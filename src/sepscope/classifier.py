"""Tame/feral classification of finite forbidden-induced-subgraph families.

A hereditary class given by a finite forbidden set ``H`` is strongly
quasi-tame exactly when, for some k, every k-theta, k-prism, k-pyramid,
k-ladder-theta, k-ladder-prism, k-claw, and k-paw graph contains a member of
``H``; otherwise the class is feral (it keeps a family whose members have
exponentially many minimal separators).  With a complete member forbidding
large cliques, blocking theta, ladder-theta, claw, and paw upgrades the
verdict to tame.

The "every k-theta" quantifier ranges over infinitely many graphs.  Two
finitizations make it checkable at desk scale:

* plain path lengths are capped at 5h: any longer instance shrinks, by
  repeated middle-edge contraction of long degree-2 paths, to one below the
  cap without ever creating a forbidden subgraph (reduce_degree_two_paths);
* ladder attachment layouts are checked on the canonical layout plus a
  seeded random sample, and the verdict is labelled "canonical+sampled".

The feral direction never relies on sampling: it returns one concrete
instance that avoids every member, checked exhaustively.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .detectors import FOUND, UNKNOWN, find_induced_subgraph
from .families import (
    StructureWitness,
    claw,
    ladder_theta,
    ladder_prism,
    paw,
    prism,
    pyramid,
    sampled_ladder_instance,
    theta,
)
from .graphs import Graph, contract_edge

QUASI_TAME_TYPES = (
    "theta",
    "prism",
    "pyramid",
    "ladder_theta",
    "ladder_prism",
    "claw",
    "paw",
)

# the tame criterion drops the prism-like types and adds cliques
TAME_TYPES = ("clique", "theta", "ladder_theta", "claw", "paw")


class RepresentativeBudget(RuntimeError):
    """The representative set for a family type exceeds the instance cap."""


@dataclass(frozen=True)
class ForbiddenFamily:
    members: Tuple[Graph, ...]
    h: int = 0

    def __post_init__(self):
        if not self.members:
            raise ValueError("forbidden family needs at least one member")
        biggest = max(m.n for m in self.members)
        if self.h == 0:
            object.__setattr__(self, "h", biggest)
        elif self.h < biggest:
            raise ValueError("h must be at least the largest member size")


@dataclass
class ClassificationVerdict:
    status: str  # strongly_quasi_tame | tame | feral | inconclusive
    k_certificate: int
    evidence: Dict[str, dict] = field(default_factory=dict)
    caps: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "k_certificate": self.k_certificate,
            "evidence": self.evidence,
            "caps": self.caps,
        }


def _degree_two_runs(g: Graph) -> List[List[int]]:
    """Maximal chains of degree-2 vertices, each chain listed in path order."""
    deg2 = {v for v in range(g.n) if g.degree(v) == 2}
    seen = set()
    runs = []
    for v in sorted(deg2):
        if v in seen:
            continue
        seen.add(v)
        chain = [v]
        for i, direction in enumerate(g.neighbors(v)):
            prev, cur = v, direction
            side = []
            while cur in deg2 and cur not in seen:
                side.append(cur)
                seen.add(cur)
                onward = [u for u in g.neighbors(cur) if u != prev]
                if not onward:
                    break
                prev, cur = cur, onward[0]
            chain = side[::-1] + chain if i == 0 else chain + side
        runs.append(chain)
    return runs


def _run_path_vertices(g: Graph, run: Sequence[int]) -> int:
    """Vertex count of the longest induced path whose interior lies in run."""
    r = len(run)
    ends = []
    for tip, inward in ((run[0], run[1] if r > 1 else None), (run[-1], run[-2] if r > 1 else None)):
        anchor = [u for u in g.neighbors(tip) if u != inward and u not in run]
        ends.append(anchor[0] if anchor else None)
    a, b = ends
    if a is None and b is None:
        # isolated path component, or a pure cycle of degree-2 vertices
        on_cycle = r > 2 and g.has_edge(run[0], run[-1])
        return r - 1 if on_cycle else r
    if a is None or b is None:
        return r + 1
    if a == b:
        # both chain ends hang off one hub; adding it would close a cycle
        return r
    if g.has_edge(a, b):
        return r + 1
    return r + 2


def reduce_degree_two_paths(g: Graph, h: int) -> Graph:
    """Contract middle edges of long all-degree-2 induced paths to a fixpoint.

    Any induced path on at least 5h vertices whose internal vertices all have
    degree 2 loses one middle edge per round.  Shrinking such a path cannot
    create a forbidden subgraph on at most h vertices, so "contains some
    member" is preserved downward.
    """
    if h <= 5:
        raise ValueError("reduction needs h > 5")
    floor = 5 * h
    while True:
        target = None
        for run in _degree_two_runs(g):
            if len(run) >= 2 and _run_path_vertices(g, run) >= floor:
                target = run
                break
        if target is None:
            return g
        mid = len(target) // 2 - 1
        g, _ = contract_edge(g, target[mid], target[mid + 1])


def _is_complete(g: Graph) -> bool:
    return all(g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n))


def _contains_member(
    g: Graph, hh: ForbiddenFamily, budget: int
) -> Tuple[Optional[int], bool]:
    """(index of an embedded member, any search hit its budget)."""
    capped = False
    order = sorted(range(len(hh.members)), key=lambda i: hh.members[i].n)
    for i in order:
        verdict = find_induced_subgraph(g, hh.members[i], budget=budget)
        if verdict.status == FOUND:
            return i, capped
        if verdict.status == UNKNOWN:
            capped = True
    return None, capped


def _length_sweep(k: int, lo: int, cap: int, count_only: bool = False):
    if count_only:
        total = 1
        span = cap - lo + 1
        for i in range(k):
            total = total * (span + i) // (i + 1)
        return total
    return combinations_with_replacement(range(lo, cap + 1), k)


def _representatives(family_type, k, cap, seed, sample, max_instances):
    """Yield (graph, description) for every checked representative."""
    if family_type in ("theta", "prism", "pyramid"):
        maker, lo = {
            "theta": (theta, 4),
            "prism": (prism, 2),
            "pyramid": (pyramid, 3),
        }[family_type]
        # all-minimum lengths first: a cheap avoidance probe before the
        # budget gate, so feral certificates never pay for the full sweep
        g, _ = maker((lo,) * k)
        yield g, f"{family_type}(k={k}, lengths={[lo] * k})"
        total = _length_sweep(k, lo, cap, count_only=True)
        if total > max_instances:
            raise RepresentativeBudget(
                f"{family_type} at k={k}, cap={cap}: {total} length multisets "
                f"exceed the {max_instances} instance cap"
            )
        for lengths in _length_sweep(k, lo, cap):
            if all(l == lo for l in lengths):
                continue
            g, _ = maker(lengths)
            yield g, f"{family_type}(k={k}, lengths={list(lengths)})"
        return
    if family_type in ("ladder_theta", "ladder_prism", "ladder"):
        maker = {"ladder_theta": ladder_theta, "ladder_prism": ladder_prism}.get(family_type)
        if maker is not None:
            g, _ = maker(k)
            yield g, f"{family_type}(k={k}, layout=canonical)"
        else:
            from .families import ladder as plain_ladder

            g, _ = plain_ladder(k)
            yield g, f"ladder(k={k}, layout=canonical)"
        rng = random.Random(seed)
        for i in range(sample):
            g, _ = sampled_ladder_instance(family_type, k, rng, max_len=min(cap, 7))
            yield g, f"{family_type}(k={k}, layout=sampled[{i}])"
        return
    if family_type == "claw":
        g, _ = claw(k)
        yield g, f"claw(k={k})"
        return
    if family_type == "paw":
        g, _ = paw(k)
        yield g, f"paw(k={k})"
        return
    raise ValueError(f"unknown family type: {family_type!r}")


def forbids_family_type(
    hh: ForbiddenFamily,
    family_type: str,
    k: int,
    length_cap: int,
    seed: int = 1,
    sample: int = 64,
    max_instances: int = 30000,
    budget: int = 10_000_000,
) -> Tuple[bool, dict]:
    """Does every capped representative of family_type contain a member of hh?

    True comes with an embedding certificate (which members carried the
    sweep, how many instances were checked, and whether layouts were
    exhaustive or canonical+sampled).  False comes with one concrete
    representative that avoids every member, checked exhaustively.
    """
    if family_type not in QUASI_TAME_TYPES:
        raise ValueError(f"family type must be one of {QUASI_TAME_TYPES}")
    exhaustive_layouts = family_type in ("theta", "prism", "pyramid", "claw", "paw")
    mode = "exhaustive" if exhaustive_layouts else "canonical+sampled"
    used: Dict[int, int] = {}
    checked = 0
    any_capped = False
    for g, desc in _representatives(family_type, k, length_cap, seed, sample, max_instances):
        checked += 1
        idx, capped = _contains_member(g, hh, budget)
        any_capped = any_capped or capped
        if idx is None:
            if capped:
                raise RepresentativeBudget(
                    f"{family_type} at k={k}: member search on {desc} hit its budget"
                )
            return False, {
                "forbidden": False,
                "family_type": family_type,
                "k": k,
                "mode": mode,
                "instance": desc,
                "n": g.n,
                "edges": [list(e) for e in g.edges()],
            }
        used[idx] = used.get(idx, 0) + 1
    return True, {
        "forbidden": True,
        "family_type": family_type,
        "k": k,
        "mode": mode,
        "instances_checked": checked,
        "members_used": sorted(used),
    }


def classify(
    hh: ForbiddenFamily,
    k_max: int = 6,
    length_cap: Optional[int] = None,
    seed: int = 1,
    sample: int = 64,
    max_instances: int = 30000,
    budget: int = 10_000_000,
) -> ClassificationVerdict:
    """Scan k = 3..k_max for a witness that hh forbids all seven types.

    Hit: strongly_quasi_tame at the smallest such k; additionally tame when a
    complete member blocks large cliques (the remaining tame types are among
    the seven already certified).  Miss at k_max with a concrete avoiding
    representative: feral with that instance as evidence.  Otherwise
    inconclusive (budget gaps).
    """
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    h_eff = max(6, hh.h)
    cap = length_cap if length_cap is not None else 5 * h_eff
    caps = {
        "k_max": k_max,
        "length_cap": cap,
        "sample": sample,
        "max_instances": max_instances,
        "h": h_eff,
    }

    def probe(t, k):
        try:
            return forbids_family_type(
                hh, t, k, cap, seed=seed, sample=sample,
                max_instances=max_instances, budget=budget,
            )
        except RepresentativeBudget as exc:
            return None, {"forbidden": None, "family_type": t, "k": k, "error": str(exc)}

    final_row: Dict[str, dict] = {}
    for k in range(3, k_max + 1):
        row: Dict[str, dict] = {}
        all_forbidden = True
        for t in QUASI_TAME_TYPES:
            ok, ev = probe(t, k)
            row[t] = ev
            if ok is not True:
                all_forbidden = False
        final_row = row
        if all_forbidden:
            complete_sizes = [m.n for m in hh.members if _is_complete(m)]
            if complete_sizes:
                row["clique"] = {
                    "forbidden": True,
                    "family_type": "clique",
                    "complete_member_size": min(complete_sizes),
                }
                return ClassificationVerdict("tame", k, row, caps)
            return ClassificationVerdict("strongly_quasi_tame", k, row, caps)
    for t in QUASI_TAME_TYPES:
        ev = final_row.get(t, {})
        if ev.get("forbidden") is False:
            return ClassificationVerdict("feral", k_max, {t: ev}, caps)
    return ClassificationVerdict("inconclusive", 0, final_row, caps)
