"""Minimal separator enumeration, certification, and the measures built on it.

A minimal separator of G is a nonempty vertex set S such that G-S has at
least two S-full components (components C with N(C) exactly S).  The empty
set is excluded by convention even on disconnected graphs.

Three independent enumeration routes live here:

* enumerate_oracle: brute force over every vertex subset.  Slow, obviously
  correct; the reference the other routes are judged against.
* enumerate_closure: seed with neighborhoods of components around each
  closed vertex neighborhood, then close under the separator expansion step.
* enumerate_branching: the recursive trace-guided branching procedure for
  graphs whose minimal separators are dominated by k vertices.  Returns a
  superset before filtering; the filtered view equals the oracle on inputs
  satisfying the domination hypothesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graphs import (
    Graph,
    bits,
    flood,
    induced_subgraph,
    mask_of,
    set_of,
)

VertexSet = Tuple[int, ...]


class CapExceeded(RuntimeError):
    """An exhaustive routine was asked to exceed its configured cap."""


# ---------------------------------------------------------------------------
# core predicates
# ---------------------------------------------------------------------------


def _full_component_masks(g: Graph, smask: int) -> List[int]:
    """Components of g-S whose open neighborhood is exactly S."""
    out = []
    r = g.full_mask() & ~smask
    while r:
        comp, reach = flood(g._nbr, r & -r, r)
        if reach & smask == smask:
            out.append(comp)
        r &= ~comp
    return out


def full_components(g: Graph, s: Iterable[int]) -> List[VertexSet]:
    """All S-full components of g-S, ordered by smallest vertex."""
    smask = mask_of(s)
    if smask & ~g.full_mask():
        raise ValueError("separator vertices out of range")
    return [set_of(c) for c in _full_component_masks(g, smask)]


def is_minimal_separator(g: Graph, s: Iterable[int]) -> bool:
    smask = mask_of(s)
    if smask == 0 or smask & ~g.full_mask():
        return False
    return len(_full_component_masks(g, smask)) >= 2


@dataclass(frozen=True)
class SeparatorRecord:
    """A certified minimal separator with its full components."""

    separator: VertexSet
    full_component_list: Tuple[VertexSet, ...]
    witness_pair: Optional[Tuple[int, int]] = None

    def validate(self, g: Graph) -> None:
        if not self.separator:
            raise ValueError("separator must be nonempty")
        smask = mask_of(self.separator)
        fulls = [set_of(c) for c in _full_component_masks(g, smask)]
        if len(fulls) < 2:
            raise ValueError("not a minimal separator: fewer than two full components")
        if tuple(fulls) != self.full_component_list:
            raise ValueError("full component list does not match the graph")
        if self.witness_pair is not None:
            fault = _uv_separator_fault(g, smask, *self.witness_pair)
            if fault:
                raise ValueError(f"witness pair: {fault}")


def make_separator_record(
    g: Graph, s: Iterable[int], witness_pair: Optional[Tuple[int, int]] = None
) -> SeparatorRecord:
    smask = mask_of(s)
    fulls = tuple(set_of(c) for c in _full_component_masks(g, smask))
    rec = SeparatorRecord(set_of(smask), fulls, witness_pair)
    rec.validate(g)
    return rec


def _component_of(g: Graph, v: int, smask: int) -> Optional[int]:
    """Mask of v's component in g-S, or None if v is in S."""
    if smask >> v & 1:
        return None
    return flood(g._nbr, 1 << v, g.full_mask() & ~smask)[0]


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
# route 1: subset oracle
# ---------------------------------------------------------------------------


def _min_sep_masks_in(nbr: Sequence[int], wmask: int) -> List[int]:
    """All minimal separator masks of the graph induced on wmask, by brute force."""
    out = []
    s = wmask
    while s:
        smask = s
        s = (s - 1) & wmask
        r = wmask ^ smask
        fulls = 0
        while r:
            comp, reach = flood(nbr, r & -r, r)
            if reach & smask == smask:
                fulls += 1
                if fulls == 2:
                    out.append(smask)
                    break
            r &= ~comp
    return out


def enumerate_oracle(g: Graph, cap: int = 16) -> List[VertexSet]:
    """Every minimal separator, found by testing every vertex subset.

    Exponential in n; refuses graphs above the cap so nothing silently
    stalls.  Output sorted lexicographically.
    """
    if g.n > cap:
        raise CapExceeded(f"oracle enumeration capped at n <= {cap}, got n={g.n}")
    masks = _min_sep_masks_in(g._nbr, g.full_mask())
    return sorted(set_of(m) for m in masks)


# ---------------------------------------------------------------------------
# route 2: neighborhood closure
# ---------------------------------------------------------------------------


def enumerate_closure(g: Graph) -> List[VertexSet]:
    """Minimal separators by seeded closure.

    Seeds: N(C) for every component C of g - N[v], every v.  Expansion: for
    a discovered separator S and x in S, every N(C) for C a component of
    g - (S + N[x]).  Candidates are kept only if they certify as minimal
    separators.  Equality with the oracle is part of the acceptance suite.
    """
    full = g.full_mask()
    found: Set[int] = set()
    queue: List[int] = []

    def consider(cmask: int) -> None:
        smask = g.nbhd_mask(cmask)
        if smask and smask not in found and len(_full_component_masks(g, smask)) >= 2:
            found.add(smask)
            queue.append(smask)

    for v in range(g.n):
        for comp in g.components_masks(full & ~g.closed_nbr_mask(v)):
            consider(comp)
    while queue:
        smask = queue.pop()
        for x in bits(smask):
            region = full & ~(smask | g.closed_nbr_mask(x))
            for comp in g.components_masks(region):
                consider(comp)
    return sorted(set_of(m) for m in found)


# ---------------------------------------------------------------------------
# close separators
# ---------------------------------------------------------------------------


def close_separator(g: Graph, u: int, v: int) -> SeparatorRecord:
    """The unique minimal u,v-separator contained in N(v).

    Built as N(C) for C the component of u in g - N[v].  Raises ValueError
    when u and v coincide, are adjacent, or lie in different components.
    """
    if u == v:
        raise ValueError("u and v must differ")
    if g.has_edge(u, v):
        raise ValueError("u and v must be non-adjacent")
    cu = _component_of(g, u, 0)
    if cu is None or not (cu >> v & 1):
        raise ValueError("u and v must lie in the same component")
    comp = _component_of(g, u, g.closed_nbr_mask(v))
    assert comp is not None
    smask = g.nbhd_mask(comp)
    rec = make_separator_record(g, set_of(smask), witness_pair=(u, v))
    return rec


def separator_leq(g: Graph, s1: Iterable[int], s2: Iterable[int], u: int, v: int) -> bool:
    """Partial order on minimal u,v-separators: s1 <= s2 iff the u-side
    component of g-s1 is contained in the u-side component of g-s2."""
    m1, m2 = mask_of(s1), mask_of(s2)
    for m in (m1, m2):
        fault = _uv_separator_fault(g, m, u, v)
        if fault:
            raise ValueError(fault)
    c1 = _component_of(g, u, m1)
    c2 = _component_of(g, u, m2)
    assert c1 is not None and c2 is not None
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


@dataclass(frozen=True)
class TraceFamily:
    """The distinct sets N(v) & S over minimal separators S avoiding v."""

    vertex: int
    traces: Tuple[VertexSet, ...]

    def __len__(self) -> int:
        return len(self.traces)


def trace_family(
    g: Graph, v: int, separators: Optional[Iterable[VertexSet]] = None, cap: int = 16
) -> TraceFamily:
    if separators is None:
        separators = enumerate_oracle(g, cap=cap)
    nv = g.nbr_mask(v)
    seen = set()
    for s in separators:
        smask = mask_of(s)
        if smask >> v & 1:
            continue
        seen.add(smask & nv)
    return TraceFamily(v, tuple(sorted(set_of(m) for m in seen)))


@dataclass(frozen=True)
class ShatterResult:
    dimension: int
    witness: VertexSet
    exact: bool


def shattered_set_max(
    traces: Iterable[VertexSet], size_cap: Optional[int] = None
) -> ShatterResult:
    """Largest set shattered by the trace family, by exhaustive search.

    Convention: the empty family and the family {()} both report dimension 0
    with the empty witness.  When size_cap stops the ascent early the result
    is flagged exact=False (a lower bound).
    """
    fam = [mask_of(t) for t in traces]
    universe = 0
    for m in fam:
        universe |= m
    uni = set_of(universe)
    limit = len(uni) if size_cap is None else min(size_cap, len(uni))
    best = ShatterResult(0, (), True)
    d = 1
    while d <= limit:
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
            return ShatterResult(best.dimension, best.witness, True)
        best = ShatterResult(d, hit, True)
        d += 1
    exact = limit == len(uni)
    return ShatterResult(best.dimension, best.witness, exact)


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def domination_number(
    g: Graph,
    target: Iterable[int],
    candidates: Iterable[int],
    node_cap: int = 1 << 24,
) -> Tuple[int, VertexSet]:
    """Smallest X within candidates with target a subset of N[X], exact.

    Greedy upper bound followed by branch and bound on the least-covered
    target vertex.  Raises ValueError when some target vertex has no
    dominator among the candidates, CapExceeded past node_cap nodes.
    """
    tmask = mask_of(target)
    cands = sorted(set(candidates))
    cov = [(c, g.closed_nbr_mask(c) & tmask) for c in cands]
    cov = [(c, m) for c, m in cov if m]
    reach = 0
    for _, m in cov:
        reach |= m
    if tmask & ~reach:
        raise ValueError("target is not dominable from the candidate set")
    if tmask == 0:
        return 0, ()

    # greedy upper bound, lowest index breaking ties
    un = tmask
    greedy: List[int] = []
    while un:
        bc, bgain = None, 0
        for c, m in cov:
            gain = (m & un).bit_count()
            if gain > bgain:
                bc, bgain = c, gain
        greedy.append(bc)
        un &= ~g.closed_nbr_mask(bc)
    best_size = len(greedy)
    best_set = tuple(sorted(greedy))

    dominators: Dict[int, List[int]] = {
        t: [c for c, m in cov if m >> t & 1] for t in bits(tmask)
    }
    maxcov = max(m.bit_count() for _, m in cov)
    nodes = 0

    def bnb(uncovered: int, chosen: List[int], start_excluded: frozenset) -> None:
        nonlocal nodes, best_size, best_set
        nodes += 1
        if nodes > node_cap:
            raise CapExceeded("domination branch and bound node cap exceeded")
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = tuple(sorted(chosen))
            return
        lower = len(chosen) + (uncovered.bit_count() + maxcov - 1) // maxcov
        if lower >= best_size:
            return
        # branch on the uncovered vertex with fewest dominators
        pick, pickdoms = None, None
        for t in bits(uncovered):
            doms = [c for c in dominators[t] if c not in start_excluded]
            if pickdoms is None or len(doms) < len(pickdoms):
                pick, pickdoms = t, doms
                if len(doms) <= 1:
                    break
        if not pickdoms:
            return
        for c in pickdoms:
            bnb(
                uncovered & ~g.closed_nbr_mask(c),
                chosen + [c],
                start_excluded | {c},
            )

    bnb(tmask, [], frozenset())
    return best_size, best_set


def dominating_path_decomposition(
    g: Graph, record: SeparatorRecord, component_index: int
) -> List[VertexSet]:
    """Cover a pruned full component with root-to-leaf BFS paths.

    The chosen full component A is pruned to a minimal connected A' still
    dominating the separator, then split into the root-to-leaf paths of a
    BFS tree of g[A'].  Each returned set induces a path in g and their
    union dominates the separator.
    """
    record.validate(g)
    comps = record.full_component_list
    if not 0 <= component_index < len(comps):
        raise ValueError("component index out of range")
    smask = mask_of(record.separator)
    amask = mask_of(comps[component_index])

    def dominates_s(mask: int) -> bool:
        nb = 0
        for u in bits(mask):
            nb |= g.nbr_mask(u)
        return smask & ~nb == 0

    # prune to a minimal connected dominating subset, lowest index first
    cur = amask
    changed = True
    while changed:
        changed = False
        for v in bits(cur):
            cand = cur & ~(1 << v)
            if cand and g.is_connected_mask(cand) and dominates_s(cand):
                cur = cand
                changed = True
                break
    root = (cur & -cur).bit_length() - 1

    # BFS tree of g[cur]
    parent = {root: None}
    order = [root]
    frontier = [root]
    seen = 1 << root
    while frontier:
        nxt = []
        for u in frontier:
            for w in bits(g.nbr_mask(u) & cur & ~seen):
                seen |= 1 << w
                parent[w] = u
                order.append(w)
                nxt.append(w)
        frontier = nxt
    children_count = {u: 0 for u in order}
    for u in order:
        p = parent[u]
        if p is not None:
            children_count[p] += 1
    leaves = [u for u in order if children_count[u] == 0]
    if not leaves:
        leaves = [root]
    paths = []
    for leaf in leaves:
        path = []
        u: Optional[int] = leaf
        while u is not None:
            path.append(u)
            u = parent[u]
        paths.append(tuple(reversed(path)))
    return sorted(paths)


# ---------------------------------------------------------------------------
# route 3: trace-guided branching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchResult:
    """Output of enumerate_branching.

    raw is the returned candidate collection (internal empty-set seeds are
    dropped); filtered keeps only certified minimal separators of the input
    graph.  complete is False when the node cap truncated the recursion.
    """

    raw: Tuple[VertexSet, ...]
    filtered: Tuple[VertexSet, ...]
    nodes: int
    states: int
    k: int
    complete: bool


TraceOracle = Callable[[Graph, int], Iterable[VertexSet]]


def enumerate_branching(
    g: Graph,
    k: int,
    active: Optional[Iterable[int]] = None,
    trace_oracle: Optional[TraceOracle] = None,
    node_cap: int = 2_000_000,
) -> BranchResult:
    """Branching enumeration of minimal separators inside the active set.

    Recursive scheme on (current graph W, active set X):

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
    is_minimal_separator recovers exactly those.

    Tie-break and exploration order: ascending vertex index everywhere.
    States are memoized on (W, X); traces default to the subset oracle run on
    the current induced subgraph.  A custom trace_oracle(graph, q) receives
    the materialized current graph with original labels compacted, so it is
    only useful for instrumentation or tests at small n.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    full = g.full_mask()
    x0 = full if active is None else mask_of(active)
    if x0 & ~full:
        raise ValueError("active set out of range")
    nbr = g._nbr

    seps_cache: Dict[int, List[int]] = {}

    def seps_of(wmask: int) -> List[int]:
        got = seps_cache.get(wmask)
        if got is None:
            got = _min_sep_masks_in(nbr, wmask)
            seps_cache[wmask] = got
        return got

    trace_cache: Dict[Tuple[int, int], List[int]] = {}

    def traces_of(wmask: int, q: int) -> List[int]:
        key = (wmask, q)
        got = trace_cache.get(key)
        if got is not None:
            return got
        if trace_oracle is None:
            qn = nbr[q]
            ts = {m & qn for m in seps_of(wmask) if not m >> q & 1}
        else:
            sub, rel = induced_subgraph(g, set_of(wmask))
            inv = {new: old for old, new in rel.mapping.items()}
            ts = set()
            for t in trace_oracle(sub, rel.mapping[q]):
                ts.add(mask_of(inv[w] for w in t))
        out = sorted(ts)
        trace_cache[key] = out
        return out

    memo: Dict[Tuple[int, int], frozenset] = {}
    nodes = 0
    truncated = False

    def rec(wmask: int, xmask: int) -> frozenset:
        nonlocal nodes, truncated
        key = (wmask, xmask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if truncated:
            return frozenset((0,))
        nodes += 1
        if nodes > node_cap:
            truncated = True
            return frozenset((0,))
        if xmask == 0:
            res = frozenset((0,))
            memo[key] = res
            return res
        xsize = xmask.bit_count()
        qmask = 0
        for v in bits(wmask):
            nvx = ((nbr[v] & wmask) | (1 << v)) & xmask
            if 2 * k * nvx.bit_count() >= xsize:
                qmask |= 1 << v
        out = {0, qmask}
        # rule 1
        for q in bits(qmask):
            xq = xmask & ~(nbr[q] | (1 << q))
            for y in traces_of(wmask, q):
                for s in rec(wmask & ~y, xq):
                    out.add(s | y)
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
                for s in rec(wrest, cx):
                    out.add(s | qmask)
        res = frozenset(out)
        if not truncated:
            memo[key] = res
        return res

    collected = rec(full, x0)
    raw = sorted(set_of(m) for m in collected if m)
    filtered = [s for s in raw if is_minimal_separator(g, s)]
    return BranchResult(
        raw=tuple(raw),
        filtered=tuple(filtered),
        nodes=nodes,
        states=len(memo),
        k=k,
        complete=not truncated,
    )
