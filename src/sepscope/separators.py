"""Minimal separator enumeration, certification, and the measures built on it.

A minimal separator of G is a nonempty vertex set S such that G-S has at
least two S-full components (components C with N(C) exactly S).  The empty
set is excluded by convention even on disconnected graphs.

Three independent enumeration routes live here:

* enumerate_oracle: brute force over every connected vertex set, reading
  each one's neighbourhood off its vertices' masks, with no flood and no
  pruning; the reference the other routes are judged against.
* enumerate_closure: the plain seed-and-expand closure of Berry, Bordat
  and Cogis (IJFCS 2000): seed with neighborhoods of components around each
  closed vertex neighborhood, then close under the separator expansion
  step, keeping only the separators found.  It runs on G with each run of
  four or more degree-2 vertices cut to three and the separators slid back
  along it.
* enumerate_branching: the recursive trace-guided branching procedure for
  graphs whose minimal separators are dominated by k vertices.  Returns a
  superset before filtering; the filtered view equals the oracle on inputs
  satisfying the domination hypothesis.  Its traces come from the closure
  run on each induced subgraph G[W]; the oracle stays the independent
  reference that closure and branching are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graphs import (
    BudgetExhausted, Graph, VertexSet, bits, connected_sets, degree_two_runs, flood, mask_of, set_of,
)


# ---------------------------------------------------------------------------
# core predicates
# ---------------------------------------------------------------------------


def _is_min_sep_in(nbr: Sequence[int], wmask: int, smask: int) -> bool:
    """True when G[wmask] - S has two S-full components; S lies inside wmask."""
    r = wmask & ~smask
    fulls = 0
    while r:
        comp, reach = flood(nbr, r & -r, r)
        if reach & smask == smask:
            fulls += 1
            if fulls == 2:
                return True
        r &= ~comp
    return False


def is_minimal_separator(g: Graph, s: Iterable[int]) -> bool:
    smask = mask_of(s)
    if smask == 0 or smask & ~g.full_mask():
        return False
    return _is_min_sep_in(g._nbr, g.full_mask(), smask)


def _uv_separator_fault(g: Graph, smask: int, u: int, v: int) -> Optional[str]:
    """Why S is not a minimal u,v-separator, or None when it is one.

    S is one when u and v lie outside S, in different components of g-S,
    and both components are S-full.
    """
    if smask >> u & 1 or smask >> v & 1:
        return "separator may not contain u or v"
    rest = g.full_mask() & ~smask
    cu, reach_u = flood(g._nbr, 1 << u, rest)
    if cu >> v & 1:
        return "set does not separate u from v"
    cv, reach_v = flood(g._nbr, 1 << v, rest)
    if reach_u & ~cu != smask or reach_v & ~cv != smask:
        return "not a minimal u,v-separator"
    return None


# ---------------------------------------------------------------------------
# route 1: connected-set oracle
# ---------------------------------------------------------------------------


def _min_sep_masks_in(nbr: Sequence[int], wmask: int, budget: Optional[int] = None) -> Set[int]:
    """All minimal separator masks of the graph induced on wmask, by brute
    force over its connected vertex sets.

    A connected C inside W with N_W(C) = S nonempty is an S-full component
    of G[W] - S: C avoids S, no vertex of W outside C + S is next to C, and
    C is next to all of S.  Conversely every S-full component is such a C.
    So S is a minimal separator of G[W] exactly when two distinct connected
    sets have neighbourhood S in G[W].  connected_sets yields each connected
    set once, so the second sighting of S is a second set.  Memory: one int
    per distinct N_W(C), the separators among them.  Visiting more than
    `budget` connected sets raises BudgetExhausted.
    """
    seen: Set[int] = set()
    found: Set[int] = set()
    sets = connected_sets(nbr, wmask, wmask)
    for c, reach in itertools.islice(sets, budget):
        s = reach & wmask & ~c
        if s in seen:
            found.add(s)
        else:
            seen.add(s)
    if next(sets, None) is not None:
        raise BudgetExhausted(f"oracle enumeration has more than {budget} connected sets to visit")
    found.discard(0)
    return found


def enumerate_oracle(g: Graph, *, budget: int = 2_000_000) -> List[VertexSet]:
    """Every minimal separator, found by visiting every connected vertex set.

    The budget counts connected sets visited, at most 2^n - 1 and n(n+1)/2
    on a path; a graph with more connected sets than the budget raises
    BudgetExhausted.  Output sorted lexicographically.
    """
    return sorted(set_of(m) for m in _min_sep_masks_in(g._nbr, g.full_mask(), budget))


# ---------------------------------------------------------------------------
# route 2: neighborhood closure
# ---------------------------------------------------------------------------


def _closure_masks(nbr: Sequence[int], wmask: int, budget: int) -> Set[int]:
    """Minimal separator masks of the graph induced on wmask, by the
    seed-and-expand closure of Berry, Bordat and Cogis (IJFCS 2000).

    Seeds: N(C) for every component C of G[W] - N[v], every v in W.
    Expansion: for a found separator S and x in S, every N(C) for C a
    component of G[W] - (S + N(x)).  Neighbourhoods are taken in G[W].  One
    work stack holds the regions still to split into components; each
    nonempty N(C) not found yet is a new separator and pushes its |S|
    expansion regions.

    1. Every nonempty candidate is a minimal separator of G[W].  For a seed,
       S = N(C) lies in N(v), so C and the component of v are two S-full
       components of G[W] - S.  For an expansion it is the theorem of Berry,
       Bordat and Cogis, on the component of G[W] that holds S and C.
    2. The closure is complete on a disconnected G[W] as well.  A minimal
       separator's two full components are next to all of it, so it lies in
       one component K of G[W] and is a minimal separator of G[K].  Inside K
       the seeds and expansions are those of the closure of G[K], which finds
       every minimal separator of G[K] by the same theorem; the other
       components of G[W] have empty neighbourhoods and offer nothing.

    The budget counts separators found; finding one more raises
    BudgetExhausted.
    """
    found: Set[int] = set()
    regions = [wmask & ~(nbr[v] | 1 << v) for v in bits(wmask)]
    while regions:
        r = regions.pop()
        while r:
            comp, reach = flood(nbr, r & -r, r)
            r &= ~comp
            smask = reach & wmask & ~comp
            if smask and smask not in found:
                if len(found) == budget:
                    raise BudgetExhausted(f"closure found more than {budget} separators")
                found.add(smask)
                regions += [wmask & ~smask & ~nbr[x] for x in bits(smask)]
    return found


def enumerate_closure(g: Graph, *, budget: int = 2_000_000) -> List[VertexSet]:
    """Minimal separators by seeded closure (see _closure_masks), run on G
    with each long run of degree-2 vertices cut short.

    Lemma.  Let p_1..p_L, L >= 3, be a run (see degree_two_runs) with
    anchors a next to p_1 and b next to p_L, maybe a == b.  A minimal
    separator S meets the run in no vertex; or in one, p_i, and then so
    does (S - p_i) + p_j for every j in [1 + [a in S], L - [b in S]]; or in
    two, and then S = {p_i, p_j}, j >= i + 2, and every such pair is a
    minimal separator or none is.  Proof: a run vertex in S needs its two
    neighbours in two S-full components, so no two S-vertices are adjacent
    and p_1 (p_L) is in S only when a (b) is not.  Between S-vertices p_i,
    p_j in a row lies a component with neighbourhood {p_i, p_j}, S-full
    because p_i needs it; so S = {p_i, p_j}, and the component holding a
    is the other S-full one exactly when it holds b, for every i and j.
    With p_i alone in S, no component off the run is next to p_i, and the
    two pieces holding p_{i-1} (or a) and p_{i+1} (or b) change only in
    run vertices as p_i moves, so which of them are S-full does not move.

    The cut keeps p_1, p_2, p_L of each run with L >= 4 and anchors, and
    joins p_2 to p_L.  A separator of the cut graph with p_2 then expands
    to those p_j, one with {p_1, p_L} to every pair; one with p_1 or p_L
    alone is skipped, as its p_2 twin stands for it.  Each such class has
    fewer members in the cut graph than in G, so the budget can count the
    separators returned.
    """
    nbr, wmask = g._nbr, g.full_mask()
    if list(map(int.bit_count, nbr)).count(2) < 4:
        return sorted(set_of(m) for m in _closure_masks(nbr, wmask, budget))
    nbr, runs, out = list(nbr), [], []
    for run, a, b in degree_two_runs(g._nbr):
        if len(run) >= 4 and a is not None:
            p = [1 << v for v in run]
            nbr[run[1]] |= p[-1]
            nbr[run[-1]] |= p[1]
            wmask &= ~mask_of(run[2:-1])
            runs.append((p, p[0] | p[1] | p[-1], 1 << a, 1 << b))
    for s in _closure_masks(nbr, wmask, budget):
        got = [s]
        for p, kept, ab, bb in runs:
            hit = s & kept
            if hit == p[1]:
                got = [t ^ hit | v for t in got for v in p[bool(s & ab):len(p) - bool(s & bb)]]
            elif hit == p[0] | p[-1]:
                got = [x | y for i, x in enumerate(p) for y in p[i + 2:]]
            elif hit:
                break
        else:
            out += got
            if len(out) > budget:
                raise BudgetExhausted(f"closure found more than {budget} separators")
    return sorted(set_of(m) for m in out)


# ---------------------------------------------------------------------------
# close separators
# ---------------------------------------------------------------------------


def close_separator(g: Graph, u: int, v: int) -> VertexSet:
    """The unique minimal u,v-separator contained in N(v).

    Built as N(C) for C the component of u in g - N[v].  Raises ValueError
    when u and v coincide, are adjacent, or lie in different components.
    """
    if u == v:
        raise ValueError("u and v must differ")
    if g.has_edge(u, v):
        raise ValueError("u and v must be non-adjacent")
    nbr, full = g._nbr, g.full_mask()
    if not flood(nbr, 1 << u, full)[0] >> v & 1:
        raise ValueError("u and v must lie in the same component")
    comp, reach = flood(nbr, 1 << u, full & ~g.closed_nbr_mask(v))
    smask = reach & ~comp
    fault = _uv_separator_fault(g, smask, u, v)
    if fault:
        raise ValueError(fault)
    return set_of(smask)


def separator_leq(g: Graph, s1: Iterable[int], s2: Iterable[int], u: int, v: int) -> bool:
    """Partial order on minimal u,v-separators: s1 <= s2 iff the u-side
    component of g-s1 is contained in the u-side component of g-s2."""
    m1, m2 = mask_of(s1), mask_of(s2)
    for m in (m1, m2):
        fault = _uv_separator_fault(g, m, u, v)
        if fault:
            raise ValueError(fault)
    nbr, full = g._nbr, g.full_mask()
    c1 = flood(nbr, 1 << u, full & ~m1)[0]
    c2 = flood(nbr, 1 << u, full & ~m2)[0]
    return c1 & ~c2 == 0


def minimal_uv_separators(
    g: Graph, u: int, v: int, separators: Iterable[VertexSet]
) -> List[VertexSet]:
    """Filter a separator list down to the minimal u,v-separators."""
    return sorted(
        tuple(s) for s in separators if _uv_separator_fault(g, mask_of(s), u, v) is None
    )


# ---------------------------------------------------------------------------
# trace families and shattering
# ---------------------------------------------------------------------------


def trace_family(g: Graph, v: int, separators: Iterable[VertexSet]) -> Tuple[VertexSet, ...]:
    """The distinct sets N(v) & S over the given minimal separators S
    avoiding v, sorted."""
    nv = g.nbr_mask(v)
    seen = set()
    for s in separators:
        smask = mask_of(s)
        if smask >> v & 1:
            continue
        seen.add(smask & nv)
    return tuple(sorted(set_of(m) for m in seen))


def shattered_set_max(traces: Iterable[VertexSet]) -> VertexSet:
    """A largest set shattered by the trace family, by exhaustive search.

    Its size is the family's VC dimension.  Convention: the empty family
    and the family {()} both shatter only the empty set.
    """
    fam = [mask_of(t) for t in traces]
    universe = 0
    for m in fam:
        universe |= m
    uni = set_of(universe)
    best: VertexSet = ()
    for d in range(1, len(uni) + 1):
        hit = None
        for combo in itertools.combinations(uni, d):
            hmask = mask_of(combo)
            got = set()
            for m in fam:
                got.add(m & hmask)
                if len(got) == 1 << d:
                    break
            if len(got) == 1 << d:
                hit = combo
                break
        if hit is None:
            break
        best = hit
    return best


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def domination_number(
    g: Graph,
    target: Iterable[int],
    candidates: Iterable[int],
    *,
    budget: int = 1 << 24,
) -> Tuple[int, VertexSet]:
    """Smallest X within candidates with target a subset of N[X], exact.

    Iterative deepening on |X|: at each size a depth-first search branches
    on the uncovered target vertex with the fewest dominators.  Every X
    that covers the target holds one of that vertex's dominators, so the
    first size that succeeds is the least.  The sizes tried are 1, then a
    packing bound and up: target vertices with pairwise disjoint dominator
    sets, picked greedily in ascending order, need one X-vertex each.  The
    budget counts search nodes over all sizes.  Raises ValueError when some
    target vertex has no dominator among the candidates, BudgetExhausted
    past the budget.
    """
    tmask = mask_of(target)
    cover = {c: g.closed_nbr_mask(c) & tmask for c in sorted(set(candidates))}
    dominators = {t: [c for c, m in cover.items() if m >> t & 1] for t in bits(tmask)}
    if not all(dominators.values()):
        raise ValueError("target is not dominable from the candidate set")
    if tmask == 0:
        return 0, ()
    nodes = 0

    def search(uncovered: int, left: int) -> Optional[VertexSet]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"domination search passed {budget} nodes")
        if not uncovered:
            return ()
        if not left:
            return None
        for c in min((dominators[t] for t in bits(uncovered)), key=len):
            got = search(uncovered & ~cover[c], left - 1)
            if got is not None:
                return (c,) + got
        return None

    size = 1
    while (got := search(tmask, size)) is None:
        size += 1
        if size == 2:
            taken, packing = set(), 0
            for ds in dominators.values():
                if taken.isdisjoint(ds):
                    taken.update(ds)
                    packing += 1
            size = max(size, packing)
    return size, tuple(sorted(got))


# ---------------------------------------------------------------------------
# route 3: trace-guided branching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchResult:
    """Output of enumerate_branching.

    raw is the returned candidate collection (internal empty-set seeds are
    dropped); filtered keeps only certified minimal separators of the input
    graph.  complete is False when the budget truncated the recursion.
    """

    raw: Tuple[VertexSet, ...]
    filtered: Tuple[VertexSet, ...]
    nodes: int
    states: int
    complete: bool


def enumerate_branching(g: Graph, k: int, *, budget: int = 2_000_000) -> BranchResult:
    """Branching enumeration of minimal separators.

    Recursive scheme on (current graph W, active set X inside W), from the
    root state (V, V):

    * X empty: return {empty}.
    * Q = vertices whose closed neighborhood covers at least |X|/(2k) of X.
    * rule 1: for q in Q and each trace Y of q (N(q) & S over minimal
      separators S of the current graph avoiding q), recurse on
      (W - Y, X - N[q]) and re-add Y.
    * rule 2: for each k-subset R of W - Q, recurse on (W - Q, (X & N(R)) - Q)
      and re-add Q.

    Every call also seeds its collection with the empty set and with Q; the
    degenerate cases S contained in N(q) and S = Q need them.  The union is a
    superset of every minimal separator contained in X; filtering by
    is_minimal_separator recovers exactly those, all of them at the root.

    The root's collection is {V - W, (V - W) + Q} over every state (W, X)
    the search enters, so calls return nothing and add those masks to one
    set.  By induction: a call's set is {0, Q} plus each child's set with
    the edge's label (Y or Q) re-added, which is what the edge removed from
    W.  A call cut off by the budget, or entered after truncation, has the
    set {0} and adds V - W alone; a memo hit adds nothing new.

    Tie-break and exploration order: ascending vertex index everywhere.
    States are memoized on (W, X) as finished keys; traces come from the
    closure run on the current induced subgraph G[W], so each node costs
    polynomial work per separator of G[W].  The budget counts recursion
    nodes, and bounds each trace closure's separators too; when either
    runs out the result is partial and complete is False.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    full = g.full_mask()
    nbr = g._nbr
    truncated = False

    seps_cache: Dict[int, Set[int]] = {}

    def seps_of(wmask: int) -> Set[int]:
        nonlocal truncated
        got = seps_cache.get(wmask)
        if got is None:
            try:
                got = _closure_masks(nbr, wmask, budget)
            except BudgetExhausted:
                truncated = True
                got = set()
            seps_cache[wmask] = got
        return got

    trace_cache: Dict[Tuple[int, int], List[int]] = {}

    def traces_of(wmask: int, q: int) -> List[int]:
        key = (wmask, q)
        got = trace_cache.get(key)
        if got is not None:
            return got
        qn = nbr[q]
        out = sorted({m & qn for m in seps_of(wmask) if not m >> q & 1})
        trace_cache[key] = out
        return out

    finished: Set[Tuple[int, int]] = set()
    collected: Set[int] = set()
    nodes = 0

    def rec(wmask: int, xmask: int) -> None:
        nonlocal nodes, truncated
        key = (wmask, xmask)
        if key in finished:
            return
        removed = full & ~wmask
        collected.add(removed)
        if truncated:
            return
        nodes += 1
        if nodes > budget:
            truncated = True
            return
        if xmask == 0:
            finished.add(key)
            return
        xsize = xmask.bit_count()
        qmask = 0
        ws = wmask
        while ws:
            vb = ws & -ws
            ws ^= vb
            if 2 * k * ((nbr[vb.bit_length() - 1] | vb) & xmask).bit_count() >= xsize:
                qmask |= vb
        collected.add(removed | qmask)
        # rule 1
        for q in bits(qmask):
            xq = xmask & ~(nbr[q] | (1 << q))
            for y in traces_of(wmask, q):
                rec(wmask & ~y, xq)
        # rule 2
        wrest = wmask & ~qmask
        rest = set_of(wrest)
        if len(rest) >= k:
            child_keys = set()
            for comb in itertools.combinations(rest, k):
                nr = 0
                for v in comb:
                    nr |= nbr[v]
                child_keys.add(xmask & nr & ~qmask)
            for cx in sorted(child_keys):
                rec(wrest, cx)
        if not truncated:
            finished.add(key)

    rec(full, full)
    raw = sorted(set_of(m) for m in collected if m)
    return BranchResult(
        raw=tuple(raw),
        filtered=tuple(s for s in raw if is_minimal_separator(g, s)),
        nodes=nodes,
        states=len(finished),
        complete=not truncated,
    )
