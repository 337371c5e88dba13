"""Tame/feral classification of finite forbidden-induced-subgraph families.

A hereditary class given by a finite forbidden set ``H`` is strongly
quasi-tame exactly when, for some k, every k-theta, k-prism, k-pyramid,
k-ladder-theta, k-ladder-prism, k-claw, and k-paw graph contains a member of
``H``; otherwise the class is feral (it keeps a family whose members have
exponentially many minimal separators).  With a complete member forbidding
large cliques, blocking theta, ladder-theta, claw, and paw upgrades the
verdict to tame.

The "every k-theta" quantifier ranges over infinitely many graphs.  For
members on at most h vertices, with m = max(h, 3), five of the seven types
are decided for every k by a few uniform instances:

(a) An embedding of a member touches at most h of a theta, prism or
    pyramid's paths (each path with its clique end, if any).  The touched
    paths, topped up to m, form with the ends an m-path sub-bundle, which
    is an induced subgraph.  So for k >= m a bundle contains a member
    exactly when one of its m-path sub-bundles does, and a bundle of fewer
    paths is itself induced in a larger one.
(b) Lengths run over lo..max(lo, h + 2), lo the type's least length:
    path_length_cap shrinks any longer path to that length one contraction
    at a time without creating a member.  (At h = 1 the cap h + 2 = 3 is
    below theta's lo = 4; the only member is then the 1-vertex graph, which
    every instance contains.)  With R such lengths, a bundle on
    k >= R(m - 1) + 1 paths repeats some length L m times, and its paths of
    length L form the uniform bundle L^m.  So if every L^m contains a
    member, every bundle on at least R(m - 1) + 1 paths does.  If some L^m
    avoids every member, then by (a) L^k does for every k, a feral
    certificate that holds at every k.
(c) A connected member component on at most h vertices that embeds in a
    long claw is a path or a subdivided claw, and fits in one long claw of
    arm h; claw(m) holds m >= h anti-complete copies, one per component.
    So claw(k) for k >= m contains a member exactly when claw(m) does, and
    claw(k) is induced in claw(m) for k <= m.  The same holds for paw, whose
    connected induced subgraphs are paths and triangles with pendant paths.
    The bound is m, which is R(m - 1) + 1 with the one instance R = 1.

Ladder attachment layouts are not finitized yet: ladder_theta and
ladder_prism are checked on the canonical layout plus a seeded random sample
at k = 3..k_max, labelled "canonical+sampled", and stop at the first k whose
instances all contain a member.  A (k + 1)-layout contains k-layouts, so the
rows are monotone in k.

The feral direction never relies on sampling: it returns one concrete
instance that avoids every member, checked exhaustively.
"""

from dataclasses import dataclass, field
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
from .graphs import Graph, bits, degree_two_runs, mask_of

QUASI_TAME_TYPES = (
    "theta",
    "prism",
    "pyramid",
    "ladder_theta",
    "ladder_prism",
    "claw",
    "paw",
)

# sampled layouts per ladder type and k, reported under `caps`
SAMPLE = 64


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


def path_length_cap(h: int) -> int:
    """The longest plain path an instance or a reduction keeps: h + 2 vertices.

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
    interiors, so lengths up to the cap, or up to the type's least length
    when that is larger, cover every length.
    """
    return h + 2


def reduce_degree_two_paths(g: Graph, h: int) -> Graph:
    """Cut every long all-degree-2 induced path to path_length_cap(h) vertices.

    Runs and anchors are as in degree_two_runs.  The longest induced path
    whose interior lies in a run has P = |run| + |anchors| vertices, less
    one when the run and its anchors close a cycle: no anchor (the run is a
    cycle), one hub, or two adjacent anchors.  When P > h + 2, P - (h + 2)
    consecutive run vertices go and their two outer neighbours are joined,
    the rest keeping their order.  By path_length_cap no forbidden subgraph
    on at most h vertices appears.  The cut is the fixpoint of contracting
    one run edge per round, up to isomorphism: such a contraction changes
    no degree, so each run shrinks on its own until P = h + 2.  Returns g
    itself when no run is long.  At h = 0 a cut could join two anchors twice.
    """
    if h < 1:
        raise ValueError("reduction needs h >= 1")
    dropped, joins = 0, []
    for run, a, b in degree_two_runs(g._nbr):
        closes = a is None or a == b or g.has_edge(a, b)
        cut = len(run) + (a is not None) + (a != b) - closes - path_length_cap(h)
        if cut > 0:  # drop `cut` run vertices in a row after an anchor, or a cycle's first vertex
            walk = run if a is None else [a] + run
            dropped |= mask_of(walk[1:cut + 1])
            joins.append((walk[0], walk[cut + 1]))
    if not joins:
        return g
    idx = {v: i for i, v in enumerate(bits(g.full_mask() & ~dropped))}
    edges = [(idx[u], idx[v]) for u, v in g.edges() + joins if u in idx and v in idx]
    return Graph(len(idx), edges)


def _is_complete(g: Graph) -> bool:
    # exact: Graph rejects self loops and duplicate edges
    return g.m == g.n * (g.n - 1) // 2


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


def _instances(family_type, k, h, seed):
    """Yield (graph, description) for every instance checked at k.

    Theta, prism and pyramid give their uniform bundles, one per length from
    the type's least length to the larger of it and path_length_cap(h); the
    ladder types their canonical layout and SAMPLE seeded ones; claw and paw
    their one instance.
    """
    if family_type in ("theta", "prism", "pyramid"):
        maker = {"theta": theta, "prism": prism, "pyramid": pyramid}[family_type]
        lo = BUNDLES[family_type][1]
        for length in range(lo, max(lo, path_length_cap(h)) + 1):
            g, _ = maker((length,) * k)
            yield g, f"{family_type}(k={k}, lengths={[length] * k})"
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
    k_max: int = 6,
    seed: int = 1,
    *,
    budget: int = 10_000_000,
) -> Tuple[Optional[bool], dict]:
    """Does every instance of family_type from some k on contain a member of hh?

    Theta, prism, pyramid, claw and paw are decided for every k from their
    uniform instances at m = max(h, 3), by the argument in the module
    docstring: True comes with the proven bound R(m - 1) + 1 as `k`, R the
    number of uniform instances (m for claw and paw), and False with a
    uniform avoider, which avoids at every k.  The ladder types scan
    k = 3..k_max and stop at the first k whose canonical and sampled
    layouts all contain a member; without one, their evidence is the k_max
    row's.

    True comes with an embedding certificate (which members carried the
    check, how many instances were checked, and whether layouts were
    exhaustive or canonical+sampled).  False comes with one concrete
    instance that avoids every member, checked exhaustively.  None comes
    with an `error` when a member search exhausts its budget (search nodes
    per member and instance) before any avoider is certified.
    """
    if family_type not in QUASI_TAME_TYPES:
        raise ValueError(f"family type must be one of {QUASI_TAME_TYPES}")
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    ladder = family_type in ("ladder_theta", "ladder_prism")
    m = max(hh.h, 3)
    used: Dict[int, int] = {}
    checked = 0
    # smallest members first
    order = sorted(range(len(hh.members)), key=lambda i: hh.members[i].n)
    for k in range(3, k_max + 1) if ladder else (m,):
        ok = True
        for g, desc in _instances(family_type, k, hh.h, seed):
            checked += 1
            idx, capped = _contains_member(g, hh, order, budget)
            if idx is None:
                ok = None if capped else False
                break
            used[idx] = used.get(idx, 0) + 1
        if ok:
            break
    if ok and not ladder:
        k = checked * (m - 1) + 1  # all R = checked uniform instances carry a member
    head = {"forbidden": ok, "family_type": family_type, "k": k}
    if ok is None:
        return None, {**head, "error": f"{family_type} at k={k}: member search on {desc} hit its budget"}
    mode = "canonical+sampled" if ladder else "exhaustive"
    if ok is False:
        return False, {**head, "mode": mode, "instance": desc, "n": g.n,
                       "edges": [list(e) for e in g.edges()]}
    return True, {**head, "mode": mode, "instances_checked": checked, "members_used": sorted(used)}


def classify(
    hh: ForbiddenFamily,
    k_max: int = 6,
    seed: int = 1,
    *,
    budget: int = 10_000_000,
) -> ClassificationVerdict:
    """Check the seven types in QUASI_TAME_TYPES order, one forbids_family_type each.

    The first avoider makes hh feral, with that instance as the whole
    evidence and its k as k_certificate.  Otherwise a type whose member
    search ran out of budget makes it inconclusive, with every type's entry
    as evidence.  Otherwise hh is strongly_quasi_tame at the largest of the
    types' k, proven for the five uniform types and the first forbidden k
    of the sampled ladder rows; additionally tame when a complete member
    blocks large cliques (the remaining tame types are among the seven).
    k_max bounds only the ladder scan, and must be at least 3.  The budget
    counts search nodes per member-containment test.
    """
    caps = {"k_max": k_max, "length_cap": path_length_cap(hh.h), "sample": SAMPLE, "h": hh.h}
    row: Dict[str, dict] = {}
    for t in QUASI_TAME_TYPES:
        ok, row[t] = forbids_family_type(hh, t, k_max, seed, budget=budget)
        if ok is False:
            return ClassificationVerdict("feral", row[t]["k"], {t: row[t]}, caps)
    if any(ev["forbidden"] is None for ev in row.values()):
        return ClassificationVerdict("inconclusive", 0, row, caps)
    k = max(ev["k"] for ev in row.values())
    complete_sizes = [m.n for m in hh.members if _is_complete(m)]
    if complete_sizes:
        row["clique"] = {
            "forbidden": True,
            "family_type": "clique",
            "complete_member_size": min(complete_sizes),
        }
        return ClassificationVerdict("tame", k, row, caps)
    return ClassificationVerdict("strongly_quasi_tame", k, row, caps)
