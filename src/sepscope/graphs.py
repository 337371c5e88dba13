"""Immutable small-graph type plus the mask, flood-fill, edge-list and
isomorphism operations everything else is built on.

Vertices are always 0..n-1.  Vertex sets cross API boundaries as sorted tuples
of ints; internally most routines work on integer bitmasks (bit v set <=>
vertex v in the set), which is what makes exhaustive subset enumeration viable
at desk scale.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

VertexSet = Tuple[int, ...]


class GraphError(ValueError):
    """Raised for malformed graph construction or parse input."""


class BudgetExhausted(RuntimeError):
    """An exponential route used up its `budget` before it could finish."""


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


def set_of(mask: int) -> VertexSet:
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


def degree_two_runs(nbr: Sequence[int]) -> List[Tuple[List[int], Optional[int], Optional[int]]]:
    """Each maximal run of degree-2 vertices in path order, with its anchors.

    A run is a component of the degree-2 vertices.  A path p_1..p_L comes
    as ([p_1, ..., p_L], a, b), a and b the neighbours of p_1 and p_L off
    the run (a == b for a hub loop), walked from the lowest anchor (from
    the lower end if both ends sit on it).  A whole cycle comes as (its
    vertices, None, None), walked from its lowest vertex to the lower of
    that vertex's neighbours.
    """
    deg2 = mask_of(v for v, m in enumerate(nbr) if m.bit_count() == 2)
    runs: List[Tuple[List[int], Optional[int], Optional[int]]] = []
    while deg2:
        run, reach = flood(nbr, deg2 & -deg2, deg2)
        deg2 &= ~run
        anchors = reach & ~run
        if anchors:
            start = anchors & -anchors
            cur = nbr[start.bit_length() - 1] & run
            cur &= -cur
        else:
            cur = run & -run
            start = nbr[cur.bit_length() - 1]
            start &= start - 1  # the higher neighbour, so the walk heads for the lower
        prev, seq = start, []
        for _ in range(run.bit_count()):
            v = cur.bit_length() - 1
            seq.append(v)
            prev, cur = cur, nbr[v] & ~prev
        runs.append((seq, start.bit_length() - 1, cur.bit_length() - 1) if anchors else (seq, None, None))
    return runs


def connected_sets(
    nbr: Sequence[int], allowed: int, anchors: int, stop: Optional[Callable[[int], bool]] = None
) -> Iterator[Tuple[int, int]]:
    """Each connected subset of allowed that meets anchors, exactly once.

    Yields (set, reach), where reach is the OR of the neighbour masks of the
    set's vertices, so reach & ~set is its neighbourhood.  A set is rooted at
    its lowest anchor: the sets rooted at anchor a grow from {a} with the
    lower anchors banned.  Each set S carries the vertices it may still
    take; its extension set is the part of reach among them.  S's children
    take the extension vertices one at a time in ascending order, and the
    child that takes b bans every extension vertex up to b.  So a connected
    set above S that avoids S's banned vertices descends through exactly one
    child, the one taking its lowest extension vertex: every set has one
    growth path, and no `seen` set is needed.  A set for which stop holds is
    yielded but not grown.  Depth first, younger children last.
    """
    anchors &= allowed
    while anchors:
        a = anchors & -anchors
        anchors ^= a
        allowed ^= a
        # (set, its reach, vertices it may still take)
        stack = [(a, nbr[a.bit_length() - 1], allowed)]
        while stack:
            s, reach, room = stack.pop()
            yield s, reach
            if stop is not None and stop(s):
                continue
            ext = reach & room
            while ext:
                v = ext.bit_length() - 1
                b = 1 << v
                ext ^= b
                stack.append((s | b, reach | nbr[v], room & ~(ext | b)))


class Graph:
    """Simple undirected graph, immutable after construction.

    Construction validates the simple-graph invariants: vertex ids in range,
    no self loops, no duplicate edges.  Adjacency is stored as one neighbour
    mask per vertex; the sorted neighbour tuples behind `neighbors` are built
    lazily, on the first call.
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
        self._adj: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._m = m
        self._colcache: Optional[Tuple[int, ...]] = None

    @property
    def m(self) -> int:
        return self._m

    def neighbors(self, v: int) -> Tuple[int, ...]:
        if self._adj is None:
            self._adj = tuple(set_of(b) for b in self._nbr)
        return self._adj[v]

    def nbr_mask(self, v: int) -> int:
        return self._nbr[v]

    def degree(self, v: int) -> int:
        return self._nbr[v].bit_count()

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

    def nbhd_mask(self, smask: int) -> int:
        """Open neighborhood of a vertex set given as a mask, as a mask."""
        nb = 0
        for v in bits(smask):
            nb |= self._nbr[v]
        return nb & ~smask

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


def fingerprint(g: Graph) -> Tuple:
    """Isomorphism-invariant key for bucketing, comparable across graphs.

    Each vertex starts as (degree, triangles at v); each round its colour
    becomes the hash of (colour, sorted neighbour colours), until the number
    of colour classes stops growing.  The colours are hashes of int tuples,
    which do not depend on PYTHONHASHSEED; a collision only merges buckets.
    The per-vertex colours are cached on the graph for are_isomorphic.
    """
    if g._colcache is None:
        n, nbr = g.n, g._nbr
        adj = [g.neighbors(v) for v in range(n)]
        # each triangle at v is seen from both of its other vertices
        colors = [
            hash((nbr[v].bit_count(), sum((nbr[u] & nbr[v]).bit_count() for u in adj[v]) // 2))
            for v in range(n)
        ]
        classes = len(set(colors))
        while True:
            colors = [hash((colors[v], tuple(sorted([colors[u] for u in adj[v]])))) for v in range(n)]
            grown = len(set(colors))
            if grown <= classes:
                break
            classes = grown
        g._colcache = tuple(colors)
    return (g.n, g.m, tuple(sorted(g._colcache)))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test: equal fingerprints, then backtracking.

    Each g-vertex is only tried on h-vertices of its fingerprint colour; the
    colours are invariant under isomorphism, and a hash collision only
    widens a candidate list.
    """
    if fingerprint(g) != fingerprint(h):
        return False
    n, cg, ch = g.n, g._colcache, h._colcache
    by_color: Dict[int, List[int]] = {}
    for v in range(n):
        by_color.setdefault(ch[v], []).append(v)
    # equal fingerprints give every g-colour a nonempty list
    cand = [by_color[cg[v]] for v in range(n)]
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
