"""Immutable small-graph type plus the set/contraction operations everything
else is built on.

Vertices are always 0..n-1.  Vertex sets cross API boundaries as sorted tuples
of ints; internally most routines work on integer bitmasks (bit v set <=>
vertex v in the set), which is what makes exhaustive subset enumeration viable
at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class GraphError(ValueError):
    """Raised for malformed graph construction or parse input."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit indices of mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def set_of(mask: int) -> Tuple[int, ...]:
    return tuple(bits(mask))


def flood(nbr: Sequence[int], seed: int, within: int) -> Tuple[int, int]:
    """Flood fill from the seed mask inside the graph induced on `within`.

    nbr[v] is the neighbour mask of v; seed must lie inside within.  Returns
    (comp, reach): comp is the component of the seed in G[within] and reach
    is the OR of the neighbour masks of comp's vertices, so reach & ~comp is
    N(comp) in G.
    """
    comp = frontier = seed
    reach = 0
    while frontier:
        while frontier:
            b = frontier & -frontier
            reach |= nbr[b.bit_length() - 1]
            frontier ^= b
        frontier = reach & within & ~comp
        comp |= frontier
    return comp, reach


class Graph:
    """Simple undirected graph, immutable after construction.

    Construction validates the simple-graph invariants: vertex ids in range,
    no self loops, no duplicate edges.
    """

    __slots__ = ("n", "_nbr", "_adj", "_m", "_colcache")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        nbr = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self loop at {u}")
            if nbr[u] >> v & 1:
                raise GraphError(f"duplicate edge ({u},{v})")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            m += 1
        self.n = n
        self._nbr = tuple(nbr)
        self._adj = tuple(set_of(b) for b in nbr)
        self._m = m
        self._colcache: Optional[Tuple[int, ...]] = None

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def nbr_mask(self, v: int) -> int:
        return self._nbr[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._nbr[u] >> v & 1)

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for u in range(self.n):
            w = self._nbr[u] >> (u + 1) << (u + 1)
            for v in bits(w):
                out.append((u, v))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed_nbr_mask(self, v: int) -> int:
        return self._nbr[v] | (1 << v)

    def nbhd_mask(self, smask: int, closed: bool = False) -> int:
        """Neighborhood of a vertex set given as a mask, as a mask."""
        nb = 0
        for v in bits(smask):
            nb |= self._nbr[v]
        return (nb | smask) if closed else (nb & ~smask)

    def components_masks(self, within: Optional[int] = None) -> List[int]:
        """Connected components of the subgraph induced on `within` (mask).

        Defaults to the whole vertex set.  Ordered by smallest contained
        vertex.
        """
        rem = self.full_mask() if within is None else within
        out = []
        while rem:
            comp = flood(self._nbr, rem & -rem, rem)[0]
            out.append(comp)
            rem &= ~comp
        return out

    def is_connected_mask(self, within: int) -> bool:
        return within != 0 and flood(self._nbr, within & -within, within)[0] == within

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return self.is_connected_mask(self.full_mask())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._nbr == other._nbr
        )

    def __hash__(self) -> int:
        return hash((self.n, self._nbr))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


@dataclass(frozen=True)
class Relabeling:
    """Old-vertex -> new-vertex map attached to transformed graphs."""

    mapping: Dict[int, int]

    def apply(self, vertices: Iterable[int]) -> Tuple[int, ...]:
        return tuple(sorted(self.mapping[v] for v in vertices))

    def get(self, v: int) -> Optional[int]:
        return self.mapping.get(v)


@dataclass(frozen=True)
class Contraction:
    """Record of collapsing a connected vertex set to a single vertex.

    kept_vertex is the new id of the merged vertex; mapping sends every old
    vertex (merged ones included) to its new id.
    """

    merged: Tuple[int, ...]
    kept_vertex: int
    relabeling: Relabeling


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Tuple[Graph, Relabeling]:
    """Subgraph induced on `keep`, relabeled to 0..len(keep)-1 in sorted order."""
    ks = sorted(set(keep))
    for v in ks:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    idx = {v: i for i, v in enumerate(ks)}
    edges = [
        (idx[u], idx[v])
        for u, v in itertools.combinations(ks, 2)
        if g.has_edge(u, v)
    ]
    return Graph(len(ks), edges), Relabeling(idx)


def components(g: Graph, within: Optional[Iterable[int]] = None) -> List[Tuple[int, ...]]:
    wmask = None if within is None else mask_of(within)
    return [set_of(c) for c in g.components_masks(wmask)]


def neighborhood(g: Graph, s: Iterable[int], closed: bool = False) -> Tuple[int, ...]:
    return set_of(g.nbhd_mask(mask_of(s), closed=closed))


def is_anticomplete(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff no vertex of a equals or neighbors a vertex of b."""
    am, bm = mask_of(a), mask_of(b)
    if am & bm:
        return False
    return not (g.nbhd_mask(am) & bm)


def dominates(g: Graph, xs: Iterable[int], ys: Iterable[int], closed: bool = True) -> bool:
    """True iff ys is a subset of N[xs] (or of N(xs) when closed=False).

    Open domination means every y has an actual neighbor in xs; membership in
    xs does not count.
    """
    xm, ym = mask_of(xs), mask_of(ys)
    cover = 0
    for v in bits(xm):
        cover |= g.nbr_mask(v)
    if closed:
        cover |= xm
    return ym & ~cover == 0


def contract_set(g: Graph, vs: Iterable[int]) -> Tuple[Graph, Contraction]:
    """Collapse the connected set vs to one vertex.

    The merged vertex takes the position of min(vs) in the new sorted
    labeling; all other vertices keep their relative order.
    """
    vmask = mask_of(vs)
    if vmask == 0:
        raise GraphError("cannot contract an empty set")
    if vmask & ~g.full_mask():
        raise GraphError("contraction set out of range")
    if not g.is_connected_mask(vmask):
        raise GraphError("contraction set must induce a connected subgraph")
    rep = (vmask & -vmask).bit_length() - 1
    new_order = sorted(set_of(g.full_mask() & ~vmask) + (rep,))
    idx = {v: i for i, v in enumerate(new_order)}
    mapping = dict(idx)
    for v in bits(vmask):
        mapping[v] = idx[rep]
    edges = set()
    for u, v in g.edges():
        nu, nv = mapping[u], mapping[v]
        if nu != nv:
            edges.add((min(nu, nv), max(nu, nv)))
    h = Graph(len(new_order), sorted(edges))
    return h, Contraction(set_of(vmask), idx[rep], Relabeling(mapping))


def contract_edge(g: Graph, u: int, v: int) -> Tuple[Graph, Contraction]:
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    return contract_set(g, (u, v))


def glue(a: Graph, va: int, b: Graph, vb: int) -> Tuple[Graph, Relabeling, Relabeling]:
    """Disjoint union of a and b with va and vb identified.

    Vertices of `a` keep their ids; vertices of `b` are appended, with vb
    mapped onto va.  Returns the glued graph plus both relabelings.
    """
    if not 0 <= va < a.n or not 0 <= vb < b.n:
        raise GraphError("glue vertex out of range")
    map_a = {v: v for v in range(a.n)}
    map_b = {}
    nxt = a.n
    for v in range(b.n):
        if v == vb:
            map_b[v] = va
        else:
            map_b[v] = nxt
            nxt += 1
    edges = set(a.edges())
    for u, v in b.edges():
        nu, nv = map_b[u], map_b[v]
        edges.add((min(nu, nv), max(nu, nv)))
    return Graph(nxt, sorted(edges)), Relabeling(map_a), Relabeling(map_b)


def disjoint_union(graphs: Sequence[Graph]) -> Tuple[Graph, List[Relabeling]]:
    maps = []
    edges = []
    off = 0
    for h in graphs:
        maps.append(Relabeling({v: v + off for v in range(h.n)}))
        edges.extend((u + off, v + off) for u, v in h.edges())
        off += h.n
    return Graph(off, edges), maps


# ---------------------------------------------------------------------------
# edge-list file format
#
# Optional '#' comment lines, then a header "n m", then m lines "u v" with
# 0 <= u < v < n.  Readers accept any line order; writers emit edges in
# ascending lexicographic order.
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise GraphError("empty edge-list document")
    head = rows[0][1].split()
    if len(head) != 2:
        raise GraphError(f"line {rows[0][0]}: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"line {rows[0][0]}: non-integer header") from exc
    if n < 0 or m < 0:
        raise GraphError("negative header values")
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer endpoint") from exc
        if u == v:
            raise GraphError(f"line {lineno}: self loop {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: endpoint out of range")
        if u > v:
            u, v = v, u
        edges.append((u, v))
    if len(set(edges)) != len(edges):
        raise GraphError("duplicate edge in edge list")
    return Graph(n, edges)


def format_edge_list(g: Graph, comment: Optional[str] = None) -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}" if row else "#")
    lines.append(f"{g.n} {g.m}")
    for u, v in sorted(g.edges()):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# isomorphism machinery (desk scale)
# ---------------------------------------------------------------------------


def refine_colors(g: Graph, init: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
    """Iterated neighborhood color refinement; stable partition as int colors."""
    if init is None and g._colcache is not None:
        return g._colcache
    colors = list(init) if init is not None else [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(g.n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[s] for s in sig]
        if new == colors:
            break
        colors = new
    out = tuple(colors)
    if init is None:
        g._colcache = out
    return out


def fingerprint(g: Graph) -> Tuple:
    """Cheap isomorphism-invariant summary used for bucketing."""
    colors = refine_colors(g)
    tri = 0
    for u, v in g.edges():
        tri += (g.nbr_mask(u) & g.nbr_mask(v)).bit_count()
    return (g.n, g.m, tri // 3, tuple(sorted(colors)))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test: refinement colors + backtracking."""
    if g.n != h.n or g.m != h.m:
        return False
    cg, ch = refine_colors(g), refine_colors(h)
    if sorted(cg) != sorted(ch):
        return False
    n = g.n
    # candidates per g-vertex: h-vertices of the same color
    by_color: Dict[int, List[int]] = {}
    for v in range(n):
        by_color.setdefault(ch[v], []).append(v)
    cand = [by_color.get(cg[v], []) for v in range(n)]
    if any(not c for c in cand):
        return False
    order = sorted(range(n), key=lambda v: len(cand[v]))
    assigned: Dict[int, int] = {}
    used = [False] * n

    def bt(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        gm = g.nbr_mask(v)
        for w in cand[v]:
            if used[w]:
                continue
            ok = True
            for pv, pw in assigned.items():
                if bool(gm >> pv & 1) != h.has_edge(w, pw):
                    ok = False
                    break
            if ok:
                assigned[v] = w
                used[w] = True
                if bt(i + 1):
                    return True
                del assigned[v]
                used[w] = False
        return False

    return bt(0)


def canonical_form(g: Graph) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Canonical (n, edge tuple) under vertex reordering; exact for n <= 10.

    Branch-and-bound over orderings: vertices are placed one by one, the
    adjacency row against placed vertices is the comparison key, twins are
    collapsed to a single branch.
    """
    n = g.n
    if n > 10:
        raise GraphError("canonical_form supports n <= 10")
    if n == 0:
        return (0, ())
    best: List[Optional[Tuple[int, ...]]] = [None]

    def dfs(placed: List[int], rows: List[int], remaining: List[int]):
        if not remaining:
            key = tuple(rows)
            if best[0] is None or key > best[0]:
                best[0] = key
            return
        placed_mask = mask_of(placed)
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
