"""Exhaustive desk-scale searches for the obstruction structures.

Every search takes a `budget` of search nodes and returns a SearchVerdict
whose status separates "exhaustively absent" from "budget ran out"
(unknown_budget); acceptance logic may only trust the former.
Witnesses re-validate against the raw definitions independently of how the
search found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .graphs import BudgetExhausted, Graph, VertexSet, bits, connected_sets, flood, mask_of, set_of
from .families import FamilySpec, StructureWitness, skinny_ladder, verify_witness

FOUND = "found"
ABSENT = "absent_exhaustive"
UNKNOWN = "unknown_budget"


@dataclass(frozen=True)
class SearchVerdict:
    status: str
    witness: Optional[object]
    nodes_explored: int

    @property
    def found(self) -> bool:
        return self.status == FOUND


@dataclass(frozen=True)
class CreatureWitness:
    a_side: VertexSet
    b_side: VertexSet
    x_row: VertexSet
    y_row: VertexSet
    order: int


@dataclass(frozen=True)
class MinorWitness:
    branch_sets: Tuple[Tuple[int, VertexSet], ...]  # (h-vertex, g-set) pairs


# ---------------------------------------------------------------------------
# witness validation
# ---------------------------------------------------------------------------


def validate_creature(g: Graph, w: CreatureWitness) -> List[str]:
    """Clause-by-clause check; returns the list of violated clauses.

    A vertex outside V(G) or a row whose length is not the order is
    reported alone, since the other clauses cannot be read.
    """
    xs, ys = list(w.x_row), list(w.y_row)
    k = w.order
    if not all(0 <= v < g.n for v in (*w.a_side, *w.b_side, *xs, *ys)):
        return ["A, B, X, Y inside V(G)"]
    if len(xs) != k or len(ys) != k:
        return ["|X| = |Y| = order"]
    out = []
    a, b = mask_of(w.a_side), mask_of(w.b_side)
    allm = [a, b, mask_of(xs), mask_of(ys)]
    union = 0
    for m in allm:
        if union & m:
            out.append("A, B, X, Y mutually disjoint")
            break
        union |= m
    if not (a and b):
        out.append("A and B nonempty")
        return out
    if not (g.is_connected_mask(a) and g.is_connected_mask(b)):
        out.append("G[A] and G[B] connected")
    na = g.nbhd_mask(a)
    nb = g.nbhd_mask(b)
    if (na | a) & b:
        out.append("A anti-complete with B")
    for i in range(k):
        if not g.has_edge(xs[i], ys[i]):
            out.append(f"x_{i + 1}y_{i + 1} is an edge")
        if not (g.nbr_mask(xs[i]) & a):
            out.append(f"x_{i + 1} has a neighbor in A")
        if g.nbr_mask(xs[i]) & b:
            out.append(f"x_{i + 1} anti-complete with B")
        if not (g.nbr_mask(ys[i]) & b):
            out.append(f"y_{i + 1} has a neighbor in B")
        if g.nbr_mask(ys[i]) & a:
            out.append(f"y_{i + 1} anti-complete with A")
        for j in range(k):
            if i != j and g.has_edge(xs[i], ys[j]):
                out.append("x_i y_j edge only when i = j")
    return out


def validate_minor_witness(g: Graph, h: Graph, w: MinorWitness) -> List[str]:
    """Clause-by-clause check; returns the list of violated clauses."""
    if sorted(u for u, _ in w.branch_sets) != list(range(h.n)):
        return ["branch sets must cover V(H) exactly"]
    if not all(0 <= v < g.n for _, vs in w.branch_sets for v in vs):
        return ["branch sets inside V(G)"]
    out = []
    bm = {u: mask_of(vs) for u, vs in w.branch_sets}
    union = 0
    for u, m in bm.items():
        if not m:
            out.append(f"branch set {u} empty")
        if m & union:
            out.append("branch sets pairwise disjoint")
        union |= m
        if m and not g.is_connected_mask(m):
            out.append(f"branch set {u} not connected")
    for u in range(h.n):
        for v in range(u + 1, h.n):
            touching = bool(g.nbhd_mask(bm[u]) & bm[v])
            if h.has_edge(u, v) and not touching:
                out.append(f"H edge {u}{v} has no G edge between branch sets")
            if not h.has_edge(u, v) and touching:
                out.append(f"H non-edge {u}{v} has a G edge between branch sets")
    return out


# ---------------------------------------------------------------------------
# induced subgraph search
# ---------------------------------------------------------------------------


# patterns whose placement plan is kept; a classify sweep tests a few
# members against thousands of hosts
PLAN_CACHE_SIZE = 256
# one depth of a plan: (degree, earlier depths adjacent, earlier depths not adjacent)
PlanStep = Tuple[int, VertexSet, VertexSet]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pattern_plan(hnbr: Tuple[int, ...]) -> Tuple[VertexSet, Tuple[PlanStep, ...]]:
    """Placement order of the pattern with neighbour masks hnbr, and per depth
    (degree, earlier depths adjacent, earlier depths not adjacent).

    Most placed neighbours first, then higher degree, then lower id.
    """
    hdeg = [b.bit_count() for b in hnbr]
    rest = sorted(range(len(hnbr)), key=lambda u: -hdeg[u])
    order: List[int] = []
    placed = 0
    while rest:
        u = max(rest, key=lambda u: (hnbr[u] & placed).bit_count())
        rest.remove(u)
        order.append(u)
        placed |= 1 << u
    steps = tuple(
        (
            hdeg[u],
            tuple(j for j in range(d) if hnbr[u] >> order[j] & 1),
            tuple(j for j in range(d) if not hnbr[u] >> order[j] & 1),
        )
        for d, u in enumerate(order)
    )
    return tuple(order), steps


def find_induced_subgraph(g: Graph, h: Graph, *, budget: int = 10_000_000) -> SearchVerdict:
    """Injective embedding of h into g preserving adjacency and non-adjacency.

    Backtracking over h-vertices.  The next h-vertex placed is the one with
    the most placed neighbours, ties broken by higher degree and then by
    lower id.  That choice depends only on which h-vertices are placed, not
    on where they went, so the placement order is fixed once per pattern,
    before any search: it is the order the same choice, made at every search
    node, would give.  Each depth keeps its degree-feasible candidate mask
    and its (earlier depth, adjacent?) constraints; its candidates are that
    mask ANDed with the neighbour or non-neighbour masks of the earlier
    images, tried in ascending vertex order.  Every candidate tried costs
    one node of the budget.  Witness: tuple with the image of each h-vertex
    in h-vertex order.
    """
    if h.n == 0:
        return SearchVerdict(FOUND, (), 0)
    if h.n > g.n or h.m > g.m:
        return SearchVerdict(ABSENT, None, 0)
    hn, gnbr = h.n, g._nbr
    order, steps = _pattern_plan(h._nbr)
    # at_least[d]: mask of the g-vertices with degree >= d, for d <= top
    top = max(deg for deg, _, _ in steps)
    at_least = [0] * (top + 1)
    bit = 1
    for b in gnbr:
        d = b.bit_count()
        at_least[d if d < top else top] |= bit
        bit <<= 1
    for d in range(top - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    # per depth: degree-feasible mask, earlier depths adjacent / not adjacent
    plan = [(at_least[deg], adj, non) for deg, adj, non in steps]
    img = [0] * hn
    nodes = 0

    def rec(d: int, used: int) -> bool:
        nonlocal nodes
        if d == hn:
            return True
        cand, adj, non = plan[d]
        cand &= ~used
        for j in adj:
            cand &= gnbr[img[j]]
        for j in non:
            cand &= ~gnbr[img[j]]
        while cand:
            b = cand & -cand
            cand ^= b
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted
            img[d] = b.bit_length() - 1
            if rec(d + 1, used | b):
                return True
        return False

    try:
        got = rec(0, 0)
    except BudgetExhausted:
        return SearchVerdict(UNKNOWN, None, nodes)
    if not got:
        return SearchVerdict(ABSENT, None, nodes)
    witness = [0] * hn
    for d, u in enumerate(order):
        witness[u] = img[d]
    return SearchVerdict(FOUND, tuple(witness), nodes)


# ---------------------------------------------------------------------------
# induced minor search
# ---------------------------------------------------------------------------


def find_induced_minor(g: Graph, h: Graph, *, budget: int = 2_000_000) -> SearchVerdict:
    """Exact induced-minor test by branch-set growth.

    Assigns each h-vertex a connected branch set, pairwise disjoint, with
    edges between sets exactly where h has edges; unassigned g-vertices are
    deleted.  A branch set is drawn from the allowed region: the g-vertices
    in no earlier set and next to no earlier set of an h-non-neighbour.
    Four prunes cut the search, none of which loses a model:

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
    - Free-neighbour count (Hall's condition): at each node, for every
      placed set B_t whose h-vertex has c > 0 unplaced h-neighbours e, let
      room = N(B_t) & free, free being the g-vertices in no placed set.
      For each e, room minus N(B_j) over the placed j not h-adjacent to e
      must be nonempty, and the union of those c sets must hold at least c
      vertices; otherwise the node has no completion.  In any completion
      each B_e lies in free, touches B_t and misses N(B_j) for those j, so
      it holds a vertex of its set; the B_e are pairwise disjoint, so they
      hold c distinct vertices of the union.  The prune cuts only subtrees
      that hold no model and leaves the depth-first order as it was, so
      every status and witness is the one the search without it gives.

    Every branch set tried costs one node of the budget.
    """
    if h.n == 0:
        return SearchVerdict(FOUND, MinorWitness(()), 0)
    if h.n > g.n:
        return SearchVerdict(ABSENT, None, 0)
    hn, hnbr, gnbr = h.n, h._nbr, g._nbr
    order, steps = _pattern_plan(hnbr)
    # per depth: earlier depths adjacent, earlier depths not adjacent, the
    # latest earlier depth holding a twin (-1 for none), and the count prune's
    # (t, per unplaced h-neighbour e of t: the earlier depths not adjacent to e)
    plan = []
    for d, (_, adj, non) in enumerate(steps):
        u = order[d]
        twin = next(
            (j for j in range(d - 1, -1, -1)
             if hnbr[u] & ~(1 << order[j]) == hnbr[order[j]] & ~(1 << u)),
            -1,
        )
        hall = []
        for t in range(d):
            outs = tuple(tuple(j for j in steps[e][2] if j < d)
                         for e in range(d, hn) if hnbr[order[t]] >> order[e] & 1)
            if outs:
                hall.append((t, outs))
        plan.append((adj, non, twin, hall))
    sets = [0] * hn  # branch set per depth
    nbhd = [0] * hn  # its neighbourhood
    nodes = 0

    def rec(d: int, free: int) -> bool:
        nonlocal nodes
        if d == hn:
            return True
        adj, non, twin, hall = plan[d]
        if free.bit_count() < hn - d:
            return False
        for t, outs in hall:
            room = nbhd[t] & free
            union = 0
            for js in outs:
                part = room
                for j in js:
                    part &= ~nbhd[j]
                if not part:
                    return False
                union |= part
            if union.bit_count() < len(outs):
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


# ---------------------------------------------------------------------------
# creature search
# ---------------------------------------------------------------------------


def find_creature(g: Graph, k: int, *, budget: int = 100_000_000) -> SearchVerdict:
    """Exhaustive k-creature search that prunes every partial row.

    Rows are built one (x_i, y_i) pair at a time from the edges in sorted
    order; only the first pair's orientation is fixed, since flipping every
    pair and swapping A with B is a symmetry.  Each placed pair is a node; a
    cross edge x_i y_j to an earlier pair rejects it at once.  A partial row is
    dropped when one of these holds; adding a pair only grows X, Y, N(X) and
    N(Y), so a failed check stays failed for every completion:

    - fewer than 2(k - placed) + 2 vertices lie outside X + Y + (N(X) & N(Y)),
      the room the later pairs, A and B still need (a common neighbour of X
      and Y can be none of them; n < 2k + 2 thus costs no node);
    - no component of G[V - (X + Y + N[Y])] dominates X, though the connected
      A must lie in one;
    - no component of G[V - (X + Y + N[X])] dominates Y, likewise for B.

    The union of the components that dominate X (the A-region) is carried
    down the row: a child restricts its parent's A-region to
    V - (X + Y + N[Y]) of its own row, and floods only the components of
    that set that meet N(x_1).  This gives the same union.  A component D
    of the child's region that dominates X is connected inside the parent's
    region, so it lies in one parent component, which dominates the shorter
    row since D does.  And the parent's A-region is a union of whole
    components of the parent's region, so no edge leaves it within the
    child's region: every component of the restricted region is a component
    of the child's region.  The same holds for the B-region with Y and
    N(y_1); it is not flooded when the A-region is empty.

    At a full row A grows as a connected subset of the A-region that meets
    N(x_1) (every A does), each set once, and stops once it dominates X (see
    _creature_ab).  B is a component of the B-region left by A that
    dominates Y.  The budget counts placed pairs and A sets tried.
    """
    if k < 1:
        raise ValueError("creature order must be at least 1")
    full = g.full_mask()
    edges = sorted(g.edges())
    nbr = [g.nbr_mask(v) for v in range(g.n)]
    xs: List[int] = []
    ys: List[int] = []
    nodes = 0

    def place(
        start: int, xm: int, ym: int, nx: int, ny: int, region_a: int, region_b: int
    ) -> Optional[Tuple[int, int]]:
        nonlocal nodes
        if (full & ~(xm | ym | (nx & ny))).bit_count() < 2 * (k - len(xs)) + 2:
            return None
        if xs:
            region_a = sum(_dominating_components(nbr, region_a & ~(xm | ym | ny), xs))
            if not region_a:
                return None
            region_b = sum(_dominating_components(nbr, region_b & ~(xm | ym | nx), ys))
            if not region_b:
                return None
        if len(xs) == k:
            got, nodes = _creature_ab(g, xs, ys, region_a, region_b, nodes, budget)
            return got
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if (xm | ym) & (1 << u | 1 << v):
                continue
            for x, y in ((u, v), (v, u)) if xs else ((u, v),):
                nodes += 1
                if nodes > budget:
                    raise BudgetExhausted
                if nbr[x] & ym or nbr[y] & xm:
                    continue
                xs.append(x)
                ys.append(y)
                got = place(idx + 1, xm | 1 << x, ym | 1 << y, nx | nbr[x], ny | nbr[y],
                            region_a, region_b)
                if got is not None:
                    return got
                xs.pop()
                ys.pop()
        return None

    try:
        got = place(0, 0, 0, 0, 0, full, full)
    except BudgetExhausted:
        return SearchVerdict(UNKNOWN, None, nodes)
    if got is None:
        return SearchVerdict(ABSENT, None, nodes)
    w = CreatureWitness(set_of(got[0]), set_of(got[1]), tuple(xs), tuple(ys), k)
    bad = validate_creature(g, w)
    if bad:
        raise AssertionError(f"search produced invalid creature: {bad}")
    return SearchVerdict(FOUND, w, nodes)


def _dominating_components(nbr: Sequence[int], region: int, row: List[int]) -> List[int]:
    """The components of G[region] that meet N(v) for every v in row.

    Each of them meets N(row[0]), so only the components holding a vertex of
    N(row[0]) are flooded, in the order of their lowest such vertex.
    """
    out = []
    seeds = nbr[row[0]] & region
    while seeds:
        comp = flood(nbr, seeds & -seeds, region)[0]
        seeds &= ~comp
        if all(nbr[v] & comp for v in row):
            out.append(comp)
    return out


def _creature_ab(
    g: Graph,
    xs: List[int],
    ys: List[int],
    region_a: int,
    region_b: int,
    nodes: int,
    budget: int,
) -> Tuple[Optional[Tuple[int, int]], int]:
    """A and B for the full row xs, ys, or None; and the node count.

    A ranges over the connected subsets of region_a that meet N(x_1), and
    only one that dominates X is handed to B.  A dominating A is not grown:
    if some A works, so does every connected A' inside it that dominates X,
    since shrinking A only enlarges the B-region.  Take A' minimal among
    the connected sets inside A that dominate X.  Each set on its growth
    path is a proper connected subset of A', so it does not dominate X and
    was grown; hence A' is reached.

    B is the component of G[region_b - N[A]] that dominates Y and has the
    smallest lowest vertex; the first A that leaves one is returned with it.
    """
    xneed = [g.nbr_mask(x) for x in xs]

    def dominates(amask: int) -> bool:
        return all(req & amask for req in xneed)

    for amask, reach in connected_sets(g._nbr, region_a, xneed[0], dominates):
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted
        if dominates(amask):
            region = region_b & ~(reach | amask)
            comps = _dominating_components(g._nbr, region, ys)
            if comps:
                return (amask, min(comps, key=lambda c: c & -c)), nodes
    return None, nodes


def max_creature_order(g: Graph, k_max: int, *, budget: int = 100_000_000) -> int:
    """Largest k <= k_max for which a k-creature exists; 0 when none.

    Dropping a pair turns a k-creature into a (k-1)-creature, so the first
    absent order ends the scan.  Each order's search gets the budget; one
    that runs out raises BudgetExhausted.
    """
    best = 0
    for k in range(1, k_max + 1):
        verdict = find_creature(g, k, budget=budget)
        if verdict.status == UNKNOWN:
            raise BudgetExhausted(f"creature search for order {k} ran out of budget")
        if not verdict.found:
            break
        best = k
    return best


# ---------------------------------------------------------------------------
# long induced cycles
# ---------------------------------------------------------------------------


def longest_induced_cycle_at_least(
    g: Graph, r: int, *, budget: int = 10_000_000
) -> SearchVerdict:
    """Induced cycle with at least r vertices, by induced-path extension.

    Paths are rooted at their smallest vertex and may only use larger
    vertices, so each candidate cycle is explored once up to rotation.  The
    budget counts paths expanded.
    """
    if r < 3:
        raise ValueError("cycles need at least 3 vertices")
    nodes = 0
    for s in range(g.n):
        # s is the smallest vertex on the cycle, so only larger ones extend
        bigger = g.full_mask() & ~((1 << (s + 1)) - 1)
        stack: List[Tuple[List[int], int]] = [([s], 1 << s)]
        while stack:
            path, pmask = stack.pop()
            nodes += 1
            if nodes > budget:
                return SearchVerdict(UNKNOWN, None, nodes)
            last = path[-1]
            if len(path) >= r - 1:
                # a closing vertex sees exactly s and the path's last vertex
                cand = g.nbr_mask(last) & g.nbr_mask(s) & bigger & ~pmask
                for u in path[1:-1]:
                    cand &= ~g.nbr_mask(u)
                for w in bits(cand):
                    return SearchVerdict(FOUND, tuple(path + [w]), nodes)
            # extension vertices keep the path induced, root included
            forbidden = 0
            for u in path[:-1]:
                forbidden |= g.nbr_mask(u)
            ext = g.nbr_mask(last) & bigger & ~pmask & ~forbidden
            for v in bits(ext):
                stack.append((path + [v], pmask | 1 << v))
    return SearchVerdict(ABSENT, None, nodes)


# ---------------------------------------------------------------------------
# monotone subsequences and the skinny-ladder extraction
# ---------------------------------------------------------------------------


def monotone_subsequence(seq: Sequence[int]) -> Tuple[Tuple[int, ...], str]:
    """Longest monotone subsequence as (index tuple, "increasing"/"decreasing").

    Ties prefer increasing, then the lexicographically smallest index list.
    """
    n = len(seq)
    if n == 0:
        return (), "increasing"

    def longest(cmp) -> Tuple[int, ...]:
        length = [1] * n
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                if cmp(seq[i], seq[j]) and length[j] + 1 > length[i]:
                    length[i] = length[j] + 1
        best = max(length)
        out = []
        need, prev = best, None
        for i in range(n):
            if length[i] == need and (prev is None or cmp(seq[prev], seq[i])):
                out.append(i)
                prev = i
                need -= 1
                if need == 0:
                    break
        return tuple(out)

    inc = longest(lambda a, b: a < b)
    dec = longest(lambda a, b: a > b)
    if len(inc) >= len(dec):
        return inc, "increasing"
    return dec, "decreasing"


def extract_skinny_ladder(
    g: Graph, almost_witness: StructureWitness, k: int
) -> MinorWitness:
    """Build a k-skinny-ladder induced-minor witness from an almost-skinny one.

    Spokes are ordered by leftmost L-neighbor; the sequence of highest
    R-neighbor positions gets a longest monotone subsequence (reversing R's
    numbering if it came out decreasing); the first k chosen spokes stay as
    singleton branch sets while L and R are cut into consecutive intervals
    separating the chosen attachment hulls.
    """
    roles = almost_witness.role_map
    for need in ("L", "R", "S"):
        if need not in roles:
            raise ValueError(f"witness lacks role {need!r}")
    sset = roles["S"]
    spec = FamilySpec("almost_skinny_ladder", k=len(sset))
    ok, bad = verify_witness(g, spec, almost_witness)
    if not ok:
        raise ValueError(f"witness does not certify an almost-skinny-ladder: {bad}")
    L, R = list(roles["L"]), list(roles["R"])
    lpos = {v: i for i, v in enumerate(L)}
    rpos = {v: i for i, v in enumerate(R)}
    lm, rm = mask_of(L), mask_of(R)

    def lnbrs(sv: int) -> List[int]:
        return sorted(lpos[v] for v in bits(g.nbr_mask(sv) & lm))

    def rnbrs(sv: int) -> List[int]:
        return sorted(rpos[v] for v in bits(g.nbr_mask(sv) & rm))

    order = sorted(sset, key=lambda sv: lnbrs(sv)[0])
    highest_r = [rnbrs(sv)[-1] for sv in order]
    idxs, kind = monotone_subsequence(highest_r)
    if len(idxs) < k:
        raise ValueError(
            f"monotone subsequence of length {len(idxs)} cannot align {k} spokes"
        )
    if kind == "decreasing":
        R.reverse()
        rpos = {v: i for i, v in enumerate(R)}
    chosen = [order[i] for i in idxs[:k]]

    def intervals(path: List[int], hulls: List[Tuple[int, int]]) -> List[VertexSet]:
        # hulls are disjoint and ordered, so cutting right after each one works
        cuts = [0] + [hi + 1 for _, hi in hulls[:-1]] + [len(path)]
        return [tuple(path[cuts[i] : cuts[i + 1]]) for i in range(len(hulls))]

    lhulls = [(lnbrs(sv)[0], lnbrs(sv)[-1]) for sv in chosen]
    rhulls = [(rnbrs(sv)[0], rnbrs(sv)[-1]) for sv in chosen]
    l_iv = intervals(L, lhulls)
    r_iv = intervals(R, rhulls)

    ladder, _ = skinny_ladder(k)
    pairs: List[Tuple[int, VertexSet]] = []
    for i in range(k):
        pairs.append((i, tuple(sorted(l_iv[i]))))
        pairs.append((k + i, tuple(sorted(r_iv[i]))))
        pairs.append((2 * k + i, (chosen[i],)))
    w = MinorWitness(tuple(sorted(pairs)))
    bad2 = validate_minor_witness(g, ladder, w)
    if bad2:
        raise AssertionError(f"extraction produced an invalid witness: {bad2}")
    return w
