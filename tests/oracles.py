"""Reference oracles shared by the tests; nothing in the package uses them."""

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from sepscope import classifier, families
from sepscope.detectors import (
    ABSENT, FOUND, UNKNOWN, MinorWitness, SearchVerdict, _pattern_plan, find_induced_subgraph,
    validate_minor_witness,
)
from sepscope.graphs import BudgetExhausted, Graph, bits, connected_sets, flood, mask_of, set_of
from sepscope.separators import BranchResult, _closure_masks, _is_min_sep_in, is_minimal_separator


def canonical_form(g: Graph) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Canonical (n, edge tuple) under vertex reordering; exact for n <= 10.

    Branch-and-bound over orderings: vertices are placed one by one, the
    adjacency row against placed vertices is the comparison key, twins are
    collapsed to a single branch.
    """
    n = g.n
    if n > 10:
        raise ValueError("canonical_form supports n <= 10")
    if n == 0:
        return (0, ())
    best: List[Optional[Tuple[int, ...]]] = [None]

    def dfs(placed: List[int], rows: List[int], remaining: List[int]):
        if not remaining:
            key = tuple(rows)
            if best[0] is None or key > best[0]:
                best[0] = key
            return
        unplaced_mask = mask_of(remaining)
        scored = []
        for v in remaining:
            row = 0
            for i, p in enumerate(placed):
                if g.has_edge(v, p):
                    row |= 1 << i
            scored.append((row, v))
        # canonical key is the MAX rows tuple, so try large rows first
        scored.sort(key=lambda rv: (-rv[0], rv[1]))
        seen = set()
        for row, v in scored:
            prefix = tuple(rows + [row])
            if best[0] is not None and prefix < best[0][: len(prefix)]:
                continue
            # twin cuts: candidates interchangeable by an automorphism of the
            # remaining choice produce identical subtrees.  Equal rows plus
            # equal open nbhd among unplaced (false twins) or equal closed
            # nbhd among unplaced (true twins) certify interchangeability.
            k_open = (row, g.nbr_mask(v) & unplaced_mask & ~(1 << v))
            k_closed = (row, (g.nbr_mask(v) | (1 << v)) & unplaced_mask, 1)
            if k_open in seen or k_closed in seen:
                continue
            seen.add(k_open)
            seen.add(k_closed)
            dfs(placed + [v], rows + [row], [u for u in remaining if u != v])

    dfs([], [], list(range(n)))
    rows = best[0]
    assert rows is not None
    edges = []
    for j, row in enumerate(rows):
        for i in bits(row):
            edges.append((i, j))
    return (n, tuple(sorted(edges)))


def components(g: Graph, within: Iterable[int]) -> List[Tuple[int, ...]]:
    """Components of the subgraph induced on within, by smallest vertex."""
    rem = mask_of(within)
    out = []
    while rem:
        comp = flood(g._nbr, rem & -rem, rem)[0]
        out.append(set_of(comp))
        rem &= ~comp
    return out


def delete_vertex(g: Graph, v: int) -> Graph:
    """g - v; the vertices after v move down by one."""
    return Graph(g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)])


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """g with the edge uv contracted onto min(u, v); the vertices after
    max(u, v) move down by one."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    keep, gone = min(u, v), max(u, v)

    def new(x: int) -> int:
        return keep if x == gone else x - (x > gone)

    edges = {tuple(sorted((new(a), new(b)))) for a, b in g.edges() if {a, b} != {u, v}}
    return Graph(g.n - 1, sorted(edges))


def forbids_by_length_sweep(
    hh: classifier.ForbiddenFamily, family_type: str, k: int, *, budget: int = 10_000_000
) -> Optional[bool]:
    """Does every k-instance of family_type contain a member of hh?

    The fixed-k reference for the uniform types: theta, prism and pyramid
    are checked on every multiset of k path lengths from the type's least
    length to the larger of it and path_length_cap(h), claw and paw on
    claw(k) and paw(k).  None when a member search runs out of budget
    before an avoider is found.
    """
    maker = getattr(families, family_type)
    if family_type in ("claw", "paw"):
        graphs: Iterable[Graph] = [maker(k)[0]]
    else:
        lo = families.BUNDLES[family_type][1]
        top = max(lo, classifier.path_length_cap(hh.h))
        graphs = (maker(ls)[0] for ls in itertools.combinations_with_replacement(range(lo, top + 1), k))
    for g in graphs:
        verdicts = {find_induced_subgraph(g, m, budget=budget).status for m in hh.members}
        if FOUND not in verdicts:
            return None if UNKNOWN in verdicts else False
    return True


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


def reduce_by_edge_rounds(g: Graph, h: int) -> Graph:
    """reduce_degree_two_paths by rounds: one middle-edge contraction each.

    Any induced path on more than path_length_cap(h) vertices whose
    internal vertices all have degree 2 loses one middle edge per round.
    Shrinking such a path cannot create a forbidden subgraph on at most h
    vertices, so "contains some member" is preserved downward.
    """
    if h < 1:
        raise ValueError("reduction needs h >= 1")
    cap = classifier.path_length_cap(h)
    while True:
        target = None
        for run in _degree_two_runs(g):
            if len(run) >= 2 and _run_path_vertices(g, run) > cap:
                target = run
                break
        if target is None:
            return g
        mid = len(target) // 2 - 1
        g = contract_edge(g, target[mid], target[mid + 1])


def min_sep_masks_by_subsets(nbr: Sequence[int], wmask: int) -> List[int]:
    """All minimal separator masks of the graph induced on wmask, by brute force."""
    out = []
    s = wmask
    while s:
        if _is_min_sep_in(nbr, wmask, s):
            out.append(s)
        s = (s - 1) & wmask
    return out


def branching_by_result_sets(g: Graph, k: int, *, budget: int = 2_000_000) -> BranchResult:
    """enumerate_branching with each call returning its own candidate set.

    The literal recursive scheme: a call returns {0, Q} plus its children's
    sets, each re-adding the label (Y or Q) its edge removed, and (W, X) is
    memoized on that set.  A call cut off by the budget, or entered after
    truncation, returns {0}.  The package collects the same candidates
    from the states visited instead; this is the reference it is held to.
    """
    full = g.full_mask()
    nbr = g._nbr
    truncated = False
    seps_cache: Dict[int, Set[int]] = {}

    def traces_of(wmask: int, q: int) -> List[int]:
        nonlocal truncated
        if wmask not in seps_cache:
            try:
                seps_cache[wmask] = _closure_masks(nbr, wmask, budget)
            except BudgetExhausted:
                truncated = True
                seps_cache[wmask] = set()
        return sorted({m & nbr[q] for m in seps_cache[wmask] if not m >> q & 1})

    memo: Dict[Tuple[int, int], frozenset] = {}
    nodes = 0

    def rec(wmask: int, xmask: int) -> frozenset:
        nonlocal nodes, truncated
        key = (wmask, xmask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if truncated:
            return frozenset((0,))
        nodes += 1
        if nodes > budget:
            truncated = True
            return frozenset((0,))
        if xmask == 0:
            memo[key] = frozenset((0,))
            return memo[key]
        xsize = xmask.bit_count()
        qmask = 0
        for v in bits(wmask):
            nvx = ((nbr[v] & wmask) | (1 << v)) & xmask
            if 2 * k * nvx.bit_count() >= xsize:
                qmask |= 1 << v
        out = {0, qmask}
        for q in bits(qmask):
            xq = xmask & ~(nbr[q] | (1 << q))
            for y in traces_of(wmask, q):
                for s in rec(wmask & ~y, xq):
                    out.add(s | y)
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

    raw = sorted(set_of(m) for m in rec(full, full) if m)
    return BranchResult(
        raw=tuple(raw),
        filtered=tuple(s for s in raw if is_minimal_separator(g, s)),
        nodes=nodes,
        states=len(memo),
        complete=not truncated,
    )


def induced_minor_unpruned(g: Graph, h: Graph, *, budget: int = 2_000_000) -> SearchVerdict:
    """find_induced_minor without its free-neighbour count prune: the
    reference the pruned search is held to.

    Exact induced-minor test by branch-set growth.

    Assigns each h-vertex a connected branch set, pairwise disjoint, with
    edges between sets exactly where h has edges; unassigned g-vertices are
    deleted.  A branch set is drawn from the allowed region: the g-vertices
    in no earlier set and next to no earlier set of an h-non-neighbour.
    Three prunes cut the search, none of which loses a model:

    - Connectivity order: h-vertices are placed most placed h-neighbours
      first, then higher degree, then lower id (find_induced_subgraph's
      order).  Every vertex after the first of its h-component then has a
      placed h-neighbour.
    - Anchored branch sets: a set must touch the set B_t of each placed
      h-neighbour t, so it meets N(B_t) for the t whose allowed part of
      N(B_t) is smallest; only the connected sets meeting that part are
      enumerated, each once, rather than every connected set of the region.
    - Twin symmetry: when h-vertices u and t are twins (N(u) - t = N(t) - u,
      true or false), swapping their branch sets maps a model to a model.
      Twinship is an equivalence (no vertex has both a true and a false
      twin), and any permutation of a twin class is an automorphism, so
      every model can have its sets reordered within each class by their
      lowest g-vertex.  Hence u's set must start above the lowest vertex of
      the set of the twin placed just before it.

    Every branch set tried costs one node of the budget.
    """
    if h.n == 0:
        return SearchVerdict(FOUND, MinorWitness(()), 0)
    if h.n > g.n:
        return SearchVerdict(ABSENT, None, 0)
    hn, hnbr, gnbr = h.n, h._nbr, g._nbr
    order, steps = _pattern_plan(hnbr)
    # per depth: earlier depths adjacent, earlier depths not adjacent, and
    # the latest earlier depth holding a twin (-1 for none)
    plan = []
    for d, (_, adj, non) in enumerate(steps):
        u = order[d]
        twin = next(
            (j for j in range(d - 1, -1, -1)
             if hnbr[u] & ~(1 << order[j]) == hnbr[order[j]] & ~(1 << u)),
            -1,
        )
        plan.append((adj, non, twin))
    sets = [0] * hn  # branch set per depth
    nbhd = [0] * hn  # its neighbourhood
    nodes = 0

    def rec(d: int, free: int) -> bool:
        nonlocal nodes
        if d == hn:
            return True
        adj, non, twin = plan[d]
        if free.bit_count() < hn - d:
            return False
        allowed = free
        for j in non:
            allowed &= ~nbhd[j]
        if twin >= 0:
            low = sets[twin] & -sets[twin]
            allowed &= ~((low << 1) - 1)
        needs = [nbhd[j] for j in adj]
        anchors = min((r & allowed for r in needs), key=int.bit_count) if needs else allowed
        for s, reach in connected_sets(gnbr, allowed, anchors):
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted
            if any(not (r & s) for r in needs):
                continue
            sets[d] = s
            nbhd[d] = reach & ~s
            # only u is confined to allowed; later sets draw from free again
            if rec(d + 1, free & ~s):
                return True
        return False

    try:
        got = rec(0, g.full_mask())
    except BudgetExhausted:
        return SearchVerdict(UNKNOWN, None, nodes)
    if not got:
        return SearchVerdict(ABSENT, None, nodes)
    w = MinorWitness(tuple(sorted((u, set_of(sets[d])) for d, u in enumerate(order))))
    bad = validate_minor_witness(g, h, w)
    if bad:
        raise AssertionError(f"search produced invalid minor witness: {bad}")
    return SearchVerdict(FOUND, w, nodes)
