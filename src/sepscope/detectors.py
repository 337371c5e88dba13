"""Exhaustive desk-scale searches for the obstruction structures.

Every search returns a SearchVerdict whose status separates "exhaustively
absent" from "budget ran out"; acceptance logic may only trust the former.
Witnesses re-validate against the raw definitions independently of how the
search found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graphs import Graph, bits, mask_of, set_of
from .families import FamilySpec, StructureWitness, skinny_ladder, verify_witness

VertexSet = Tuple[int, ...]

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

    def as_dict(self) -> Dict[int, VertexSet]:
        return dict(self.branch_sets)


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# witness validation
# ---------------------------------------------------------------------------


def validate_creature(g: Graph, w: CreatureWitness) -> List[str]:
    """Clause-by-clause check; returns the list of violated clauses."""
    out = []
    a, b = mask_of(w.a_side), mask_of(w.b_side)
    xs, ys = list(w.x_row), list(w.y_row)
    k = w.order
    allm = [a, b, mask_of(xs), mask_of(ys)]
    if len(xs) != k or len(ys) != k:
        out.append("|X| = |Y| = order")
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
    out = []
    bm = {u: mask_of(vs) for u, vs in w.branch_sets}
    if sorted(bm) != list(range(h.n)):
        out.append("branch sets must cover V(H) exactly")
        return out
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


def find_induced_subgraph(g: Graph, h: Graph, budget: int = 10_000_000) -> SearchVerdict:
    """Injective embedding of h into g preserving adjacency and non-adjacency.

    Backtracking over h-vertices, always extending the one with the most
    placed neighbors; candidates filtered through bitmask intersection of
    neighbor/non-neighbor constraints.  Witness: tuple with image of each
    h-vertex in h-vertex order.
    """
    if h.n == 0:
        return SearchVerdict(FOUND, (), 0)
    if h.n > g.n or h.m > g.m:
        return SearchVerdict(ABSENT, None, 0)
    hdeg = [h.degree(u) for u in range(h.n)]
    gdeg_mask = [0] * (h.n)
    # vertices of g usable for h-vertex u: degree at least deg_h(u)
    for u in range(h.n):
        m = 0
        for v in range(g.n):
            if g.degree(v) >= hdeg[u]:
                m |= 1 << v
        gdeg_mask[u] = m
    nodes = 0
    image: List[Optional[int]] = [None] * h.n
    used = 0

    order_static = sorted(range(h.n), key=lambda u: -hdeg[u])

    def next_target() -> int:
        best, score = -1, (-1, -1)
        for u in order_static:
            if image[u] is not None:
                continue
            anchored = sum(1 for t in h.neighbors(u) if image[t] is not None)
            sc = (anchored, hdeg[u])
            if sc > score:
                best, score = u, sc
        return best

    def rec(depth: int) -> Optional[Tuple[int, ...]]:
        nonlocal nodes, used
        if depth == h.n:
            return tuple(image)  # type: ignore[arg-type]
        u = next_target()
        cand = gdeg_mask[u] & ~used
        for t in range(h.n):
            if image[t] is None:
                continue
            if h.has_edge(u, t):
                cand &= g.nbr_mask(image[t])
            else:
                cand &= ~g.nbr_mask(image[t])
        for v in bits(cand):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded
            image[u] = v
            used |= 1 << v
            got = rec(depth + 1)
            if got is not None:
                return got
            image[u] = None
            used &= ~(1 << v)
        return None

    try:
        got = rec(0)
    except BudgetExceeded:
        return SearchVerdict(UNKNOWN, None, nodes)
    if got is None:
        return SearchVerdict(ABSENT, None, nodes)
    return SearchVerdict(FOUND, got, nodes)


# ---------------------------------------------------------------------------
# induced minor search
# ---------------------------------------------------------------------------


def _connected_subsets(g: Graph, allowed: int, seen_budget: Set[int]) -> Iterable[int]:
    """All nonempty connected subset masks within allowed, deduped."""
    for root in bits(allowed):
        stack = [1 << root]
        while stack:
            s = stack.pop()
            if s in seen_budget:
                continue
            seen_budget.add(s)
            yield s
            grow = g.nbhd_mask(s) & allowed
            for v in bits(grow):
                if v > root:
                    stack.append(s | (1 << v))


def find_induced_minor(
    g: Graph, h: Graph, budget: int = 2_000_000, cap: int = 14
) -> SearchVerdict:
    """Exact induced-minor test by branch-set growth.

    Assigns each h-vertex a connected branch set, pairwise disjoint, with
    edges between sets exactly where h has edges; unassigned g-vertices are
    deleted.  h-vertices are processed in descending degree order; sets are
    enumerated lowest-index-anchored within the region still allowed by the
    non-adjacency constraints.
    """
    if g.n > cap:
        raise ValueError(f"induced minor search capped at n <= {cap}")
    if h.n == 0:
        return SearchVerdict(FOUND, MinorWitness(()), 0)
    if h.n > g.n:
        return SearchVerdict(ABSENT, None, 0)
    horder = sorted(range(h.n), key=lambda u: -h.degree(u))
    nodes = 0
    chosen: Dict[int, int] = {}

    def rec(idx: int, free: int) -> Optional[Dict[int, int]]:
        nonlocal nodes
        if idx == len(horder):
            return dict(chosen)
        u = horder[idx]
        allowed = free
        needed = []
        for t, m in chosen.items():
            if h.has_edge(u, t):
                needed.append(g.nbhd_mask(m))
            else:
                allowed &= ~g.nbhd_mask(m)
        # only u is confined to allowed; later sets draw from free again
        if not allowed or free.bit_count() < len(horder) - idx:
            return None
        seen: Set[int] = set()
        for s in _connected_subsets(g, allowed, seen):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded
            if any(not (req & s) for req in needed):
                continue
            chosen[u] = s
            got = rec(idx + 1, free & ~s)
            if got is not None:
                return got
            del chosen[u]
        return None

    try:
        got = rec(0, g.full_mask())
    except BudgetExceeded:
        return SearchVerdict(UNKNOWN, None, nodes)
    if got is None:
        return SearchVerdict(ABSENT, None, nodes)
    w = MinorWitness(tuple(sorted((u, set_of(m)) for u, m in got.items())))
    bad = validate_minor_witness(g, h, w)
    if bad:
        raise AssertionError(f"search produced invalid minor witness: {bad}")
    return SearchVerdict(FOUND, w, nodes)


# ---------------------------------------------------------------------------
# creature search
# ---------------------------------------------------------------------------


def find_creature(g: Graph, k: int, budget: int = 100_000_000) -> SearchVerdict:
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

    At a full row A grows as a connected subset of the dominating components
    from each anchor in N(x_1) (every A meets it), avoiding the anchors
    already tried, and stops once it dominates X: if then no component of the
    B-region covers Y, no larger A can work, since growing A only shrinks the
    B-region.  B is a component of that B-region that dominates Y.
    """
    if k < 1:
        raise ValueError("creature order must be at least 1")
    full = g.full_mask()
    edges = sorted(g.edges())
    nbr = [g.nbr_mask(v) for v in range(g.n)]
    xs: List[int] = []
    ys: List[int] = []
    nodes = 0

    def dominating(region: int, row: List[int]) -> int:
        """Union of the components of G[region] that touch N(v) for each v in row."""
        return sum(c for c in g.components_masks(region) if all(nbr[v] & c for v in row))

    def place(start: int, xm: int, ym: int, nx: int, ny: int) -> Optional[Tuple[int, int]]:
        nonlocal nodes
        if (full & ~(xm | ym | (nx & ny))).bit_count() < 2 * (k - len(xs)) + 2:
            return None
        region_a = dominating(full & ~(xm | ym | ny), xs)
        region_b = dominating(full & ~(xm | ym | nx), ys)
        if not (region_a and region_b):
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
                    raise BudgetExceeded
                if nbr[x] & ym or nbr[y] & xm:
                    continue
                xs.append(x)
                ys.append(y)
                got = place(idx + 1, xm | 1 << x, ym | 1 << y, nx | nbr[x], ny | nbr[y])
                if got is not None:
                    return got
                xs.pop()
                ys.pop()
        return None

    try:
        got = place(0, 0, 0, 0, 0)
    except BudgetExceeded:
        return SearchVerdict(UNKNOWN, None, nodes)
    if got is None:
        return SearchVerdict(ABSENT, None, nodes)
    w = CreatureWitness(set_of(got[0]), set_of(got[1]), tuple(xs), tuple(ys), k)
    bad = validate_creature(g, w)
    if bad:
        raise AssertionError(f"search produced invalid creature: {bad}")
    return SearchVerdict(FOUND, w, nodes)


def _creature_ab(
    g: Graph,
    xs: List[int],
    ys: List[int],
    region_a: int,
    region_b: int,
    nodes: int,
    budget: int,
) -> Tuple[Optional[Tuple[int, int]], int]:
    xneed = [g.nbr_mask(x) for x in xs]
    yneed = [g.nbr_mask(y) for y in ys]

    def b_for(amask: int) -> Optional[int]:
        region = region_b & ~(g.nbhd_mask(amask) | amask)
        return next((c for c in g.components_masks(region) if all(r & c for r in yneed)), None)

    seen: Set[int] = set()
    allowed = region_a
    for anchor in bits(xneed[0] & region_a):
        stack = [1 << anchor]
        while stack:
            amask = stack.pop()
            if amask in seen:
                continue
            seen.add(amask)
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded
            if all(req & amask for req in xneed):
                comp = b_for(amask)
                if comp is not None:
                    return (amask, comp), nodes
                continue  # growing a dominating A never helps
            stack.extend(amask | 1 << v for v in bits(g.nbhd_mask(amask) & allowed))
        allowed &= ~(1 << anchor)
    return None, nodes


def max_creature_order(g: Graph, cap: int, budget: int = 100_000_000) -> int:
    """Largest k <= cap for which a k-creature exists; 0 when none.

    Dropping a pair turns a k-creature into a (k-1)-creature, so the first
    absent order ends the scan.
    """
    best = 0
    for k in range(1, cap + 1):
        verdict = find_creature(g, k, budget=budget)
        if verdict.status == UNKNOWN:
            raise BudgetExceeded(f"creature search for order {k} ran out of budget")
        if not verdict.found:
            break
        best = k
    return best


# ---------------------------------------------------------------------------
# long induced cycles
# ---------------------------------------------------------------------------


def longest_induced_cycle_at_least(g: Graph, r: int, budget: int = 10_000_000) -> SearchVerdict:
    """Induced cycle with at least r vertices, by induced-path extension.

    Paths are rooted at their smallest vertex and may only use larger
    vertices, so each candidate cycle is explored once up to rotation.
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


def monotone_subsequence(
    seq: Sequence[int], r: Optional[int] = None, s: Optional[int] = None
) -> Tuple[Tuple[int, ...], str]:
    """Longest monotone subsequence as (index tuple, "increasing"/"decreasing").

    Ties prefer increasing, then the lexicographically smallest index list.
    When r and s are given, a side that reaches its own threshold wins over
    one that does not; with |seq| >= (r-1)(s-1)+1 some side always does.
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
    if r is not None or s is not None:
        inc_ok = r is not None and len(inc) >= r
        dec_ok = s is not None and len(dec) >= s
        if inc_ok != dec_ok:
            return (inc, "increasing") if inc_ok else (dec, "decreasing")
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
