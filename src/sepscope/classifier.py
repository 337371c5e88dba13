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

* plain paths are capped at h + 2 vertices: any longer instance shrinks to
  one within the cap without creating a forbidden subgraph on at most h
  vertices (path_length_cap holds the proof, reduce_degree_two_paths cuts);
* ladder attachment layouts are checked on the canonical layout plus a
  seeded random sample, and the verdict is labelled "canonical+sampled".

The feral direction never relies on sampling: it returns one concrete
instance that avoids every member, checked exhaustively.

classify evaluates a type only while it can change the verdict.  A row
k < k_max counts only when all seven types are forbidden, so it stops at
its first type that is not; the k_max row stops at its first avoider, which
is then the whole feral evidence, and runs to the end otherwise.  Skipped
types draw nothing from a shared random state (every sweep seeds its own),
so the verdict, evidence and caps are those of evaluating every row in
full.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb
import random
from typing import Dict, Optional, Sequence, Tuple

from .detectors import FOUND, UNKNOWN, find_induced_subgraph
from .families import (
    BUNDLES,
    claw,
    ladder_theta,
    ladder_prism,
    paw,
    prism,
    pyramid,
    sampled_ladder_instance,
    theta,
)
from .graphs import BudgetExhausted, Graph, bits, flood, mask_of

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

# sampled layouts per ladder type and k, and the most length multisets a
# theta/prism/pyramid sweep may build; both are reported under `caps`.  No
# default sweep reaches MAX_INSTANCES for h <= 8 (prism at k = 6, h = 8
# builds C(14, 6) = 3,003); members on 14+ vertices or k_max 10 at h = 8 do.
SAMPLE = 64
MAX_INSTANCES = 30000


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


def path_length_cap(h: int) -> int:
    """The longest plain path a sweep or a reduction keeps: h + 2 vertices.

    Lengths count path vertices, ends included.  Contract one interior edge
    of a path whose m >= h + 1 interior vertices all have degree 2.  A set S
    of at most h vertices of the result either misses one of the m - 1
    interior vertices, and then shifting the vertices past that gap one
    step along the path embeds S in the original; or S is the whole
    interior of h vertices, an induced path the original also has.  So
    paths of h + 3 or more vertices shrink to h + 2 and "contains some
    member" is preserved downward.  A run that closes a cycle (pure cycle,
    hub loop, adjacent anchors) keeps more than h vertices at this length,
    so S misses one.  Theta, prism and pyramid paths (k >= 3) have degree-2
    interiors, so sweeping lengths up to the cap covers every length.
    """
    return h + 2


def reduce_degree_two_paths(g: Graph, h: int) -> Graph:
    """Cut every long all-degree-2 induced path to path_length_cap(h) vertices.

    A run is a component of the degree-2 vertices; its anchors are its
    neighbours.  The longest induced path whose interior lies in a run has
    P = |run| + |anchors| vertices, less one when the run and its anchors
    close a cycle: no anchor (the run is a cycle), one hub, or two adjacent
    anchors.  When P > h + 2, P - (h + 2) consecutive run vertices go and
    the vertices on either side of them are joined; the kept vertices keep
    their order.  By path_length_cap no forbidden subgraph on at most h
    vertices appears.  The cut is the fixpoint of contracting one run edge
    per round, up to isomorphism: such a contraction changes no degree, so
    each run shrinks on its own until P = h + 2.  Returns g itself when no
    run is long.  At h = 0 a cut could join two anchors twice.
    """
    if h < 1:
        raise ValueError("reduction needs h >= 1")
    nbr = [g.nbr_mask(v) for v in range(g.n)]
    deg2 = mask_of(v for v in range(g.n) if nbr[v].bit_count() == 2)
    rest, dropped, joins = deg2, 0, []
    while rest:
        run, reach = flood(nbr, rest & -rest, deg2)
        rest &= ~run
        anchors = reach & ~run
        a = anchors.bit_count()
        closes = a < 2 or bool(nbr[(anchors & -anchors).bit_length() - 1] & anchors)
        cut = run.bit_count() + a - closes - path_length_cap(h)
        if cut <= 0:
            continue
        # drop `cut` run vertices in a row, walking away from `before`: an
        # anchor, or any vertex of a run that is a cycle
        side = anchors or run
        before = side & -side
        step = nbr[before.bit_length() - 1] & run
        step &= -step
        for _ in range(cut):
            dropped |= step
            step = nbr[step.bit_length() - 1] & ~dropped & ~before
        joins.append((before.bit_length() - 1, step.bit_length() - 1))
    if not joins:
        return g
    idx = {v: i for i, v in enumerate(bits(g.full_mask() & ~dropped))}
    edges = [(idx[u], idx[v]) for u, v in g.edges() + joins if u in idx and v in idx]
    return Graph(len(idx), edges)


def _is_complete(g: Graph) -> bool:
    return all(g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n))


def _contains_member(
    g: Graph, hh: ForbiddenFamily, order: Sequence[int], budget: int
) -> Tuple[Optional[int], bool]:
    """(index of an embedded member, any search hit its budget).

    Members are tried in the given order of indices into hh.members.
    """
    capped = False
    for i in order:
        verdict = find_induced_subgraph(g, hh.members[i], budget=budget)
        if verdict.status == FOUND:
            return i, capped
        if verdict.status == UNKNOWN:
            capped = True
    return None, capped


def _representatives(family_type, k, h, seed):
    """Yield (graph, description) for every checked representative.

    Raises BudgetExhausted, after the all-minimum instance, when a length
    sweep would build more than MAX_INSTANCES graphs.
    """
    if family_type in ("theta", "prism", "pyramid"):
        maker = {"theta": theta, "prism": prism, "pyramid": pyramid}[family_type]
        lo = BUNDLES[family_type][1]
        # all-minimum lengths first: a cheap avoidance probe before the
        # budget gate, so feral certificates never pay for the full sweep
        g, _ = maker((lo,) * k)
        yield g, f"{family_type}(k={k}, lengths={[lo] * k})"
        top = path_length_cap(h)
        total = comb(top - lo + k, k)
        if total > MAX_INSTANCES:
            raise BudgetExhausted(f"{family_type} at k={k}, cap={top}: {total} length multisets "
                                  f"exceed the {MAX_INSTANCES} instance cap")
        for lengths in combinations_with_replacement(range(lo, top + 1), k):
            if all(l == lo for l in lengths):
                continue
            g, _ = maker(lengths)
            yield g, f"{family_type}(k={k}, lengths={list(lengths)})"
        return
    if family_type in ("ladder_theta", "ladder_prism"):
        maker = ladder_theta if family_type == "ladder_theta" else ladder_prism
        g, _ = maker(k)
        yield g, f"{family_type}(k={k}, layout=canonical)"
        rng = random.Random(seed)
        for i in range(SAMPLE):
            g, _ = sampled_ladder_instance(family_type, k, rng, max_len=7)
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
    seed: int = 1,
    *,
    budget: int = 10_000_000,
) -> Tuple[Optional[bool], dict]:
    """Does every representative of family_type contain a member of hh?

    Theta, prism and pyramid paths take every length up to path_length_cap.

    True comes with an embedding certificate (which members carried the
    sweep, how many instances were checked, and whether layouts were
    exhaustive or canonical+sampled).  False comes with one concrete
    representative that avoids every member, checked exhaustively.  None
    comes with an `error` when the sweep exceeds MAX_INSTANCES or a member
    search exhausts its budget (search nodes per member and instance)
    before any avoider is certified.
    """
    if family_type not in QUASI_TAME_TYPES:
        raise ValueError(f"family type must be one of {QUASI_TAME_TYPES}")
    exhaustive_layouts = family_type in ("theta", "prism", "pyramid", "claw", "paw")
    mode = "exhaustive" if exhaustive_layouts else "canonical+sampled"
    used: Dict[int, int] = {}
    checked = 0
    # smallest members first
    order = sorted(range(len(hh.members)), key=lambda i: hh.members[i].n)
    try:
        for g, desc in _representatives(family_type, k, hh.h, seed):
            checked += 1
            idx, capped = _contains_member(g, hh, order, budget)
            if idx is None:
                if capped:
                    raise BudgetExhausted(
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
    except BudgetExhausted as exc:
        return None, {"forbidden": None, "family_type": family_type, "k": k, "error": str(exc)}
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
    seed: int = 1,
    *,
    budget: int = 10_000_000,
) -> ClassificationVerdict:
    """Scan k = 3..k_max for a witness that hh forbids all seven types.

    Hit: strongly_quasi_tame at the smallest such k; additionally tame when a
    complete member blocks large cliques (the remaining tame types are among
    the seven already certified).  Miss at k_max with a concrete avoiding
    representative: feral with that instance as evidence.  Otherwise
    inconclusive (budget gaps), with the whole k_max row as evidence.  The
    budget counts search nodes per member-containment test.

    Types are evaluated in QUASI_TAME_TYPES order.  A row below k_max stops
    at its first type that is not forbidden, since it can then no longer be
    the certificate; the k_max row stops at its first avoider, the first one
    the full row would report.  Each sweep seeds its own random layouts, so
    the skipped types change no draw of the ones that run, and the verdict
    is that of evaluating every type at every k.
    """
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    caps = {"k_max": k_max, "length_cap": path_length_cap(hh.h), "sample": SAMPLE,
            "max_instances": MAX_INSTANCES, "h": hh.h}

    final_row: Dict[str, dict] = {}
    for k in range(3, k_max + 1):
        row: Dict[str, dict] = {}
        all_forbidden = True
        for t in QUASI_TAME_TYPES:
            ok, ev = forbids_family_type(hh, t, k, seed=seed, budget=budget)
            row[t] = ev
            if ok is not True:
                all_forbidden = False
                # a row below k_max is discarded; at k_max the first avoider is the evidence
                if k < k_max or ok is False:
                    break
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
