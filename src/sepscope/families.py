"""Deterministic generators for the named graph families, with role witnesses.

Every generator returns (Graph, StructureWitness).  The witness maps role
names onto vertex tuples; path-valued roles ("L", "R", "P_3", arms) are in
path order, everything else sorted.  Role name patterns:

    a, b, x, y            distinguished single vertices
    a_3, b_2, s_1         indexed single vertices
    P_2                   the second path, endpoints included
    L, R, S               the left path, right path, spoke/separator set
    cL_2, cR_4            block-boundary vertices of the twisted ladder
    a1_3, b2_1            superscript-then-index vertices of the twisted ladder
    block_4               vertex set of the fourth twisted-ladder block
    arm_1_5_b             tree 1, node 5, arm b of a feral construction

Length convention everywhere: the length of a path is its vertex count.

The twisted ladder is defined only up to the properties its separator-count
and creature-freeness arguments use; the adjacency implemented here is a
concrete layout satisfying all of them (S-removal leaves the two induced
paths L and R, every choice set is a minimal x,y-separator, and removing
N[cL_i] together with N[cR_{i+1}] separates lower blocks from higher ones).
Property tests pin those facts rather than any drawing.  The listed
properties do not make the ladder 3-creature-free: every layout of this
shape in the spaces the README lists holds a 3-creature, and this one has
creature order exactly 4 (no 5-creature at k = 2 or k = 3), pinned in
tests/test_detectors.py.  Acceptance criterion 4 checks that the order does
not grow with k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graphs import Graph, disjoint_union

VertexSet = Tuple[int, ...]

FAMILY_NAMES = (
    "theta",
    "prism",
    "pyramid",
    "ladder_theta",
    "ladder_prism",
    "ladder",
    "claw",
    "paw",
    "long_claw",
    "long_paw",
    "skinny_ladder",
    "almost_skinny_ladder",
    "twisted_ladder",
    "claw_feral",
    "paw_feral",
    "subdivision",
)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    k: int = 0
    path_lengths: Optional[Tuple[int, ...]] = None
    arm_length: Optional[int] = None
    c: Optional[int] = None
    base_graph: Optional[Graph] = None
    layout_seed: Optional[int] = None


@dataclass
class StructureWitness:
    role_map: Dict[str, VertexSet] = field(default_factory=dict)

    def one(self, role: str) -> int:
        (v,) = self.role_map[role]
        return v


class _Builder:
    """Edge accumulator that hands out vertex ids on demand."""

    def __init__(self):
        self.edges: List[Tuple[int, int]] = []
        self.count = 0

    def vertex(self) -> int:
        v = self.count
        self.count += 1
        return v

    def path(self, length: int, first: Optional[int] = None, last: Optional[int] = None) -> List[int]:
        """A path on `length` vertices; given ends are reused, the rest are new."""
        head = [] if first is None or length < 1 else [first]
        tail = [] if last is None or length - len(head) < 1 else [last]
        fresh = length - len(head) - len(tail)
        seq = head + list(range(self.count, self.count + fresh)) + tail
        self.count += max(fresh, 0)
        self.edges.extend(zip(seq, seq[1:]))
        return seq

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def clique(self, vs: Sequence[int]) -> None:
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                self.edges.append((vs[i], vs[j]))

    def graph(self) -> Graph:
        return Graph(self.count, self.edges)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# theta / prism / pyramid
# ---------------------------------------------------------------------------


def theta(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """k internally disjoint anti-complete paths joining a to b, lengths >= 4."""
    lengths = tuple(lengths)
    _need(len(lengths) >= 3, "theta needs at least 3 paths")
    _need(all(l >= 4 for l in lengths), "theta paths need length >= 4")
    b = _Builder()
    a, bb = b.vertex(), b.vertex()
    w = StructureWitness({"a": (a,), "b": (bb,)})
    for i, l in enumerate(lengths, 1):
        w.role_map[f"P_{i}"] = tuple(b.path(l, first=a, last=bb))
    return b.graph(), w


def prism(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """Two k-cliques joined by anti-complete paths, lengths >= 2."""
    lengths = tuple(lengths)
    k = len(lengths)
    _need(k >= 3, "prism needs at least 3 paths")
    _need(all(l >= 2 for l in lengths), "prism paths need length >= 2")
    b = _Builder()
    avs = [b.vertex() for _ in range(k)]
    bvs = [b.vertex() for _ in range(k)]
    b.clique(avs)
    b.clique(bvs)
    w = StructureWitness()
    for i in range(1, k + 1):
        w.role_map[f"a_{i}"] = (avs[i - 1],)
        w.role_map[f"b_{i}"] = (bvs[i - 1],)
        w.role_map[f"P_{i}"] = tuple(b.path(lengths[i - 1], first=avs[i - 1], last=bvs[i - 1]))
    return b.graph(), w


def pyramid(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """Apex a joined to a k-clique by anti-complete paths, lengths >= 3."""
    lengths = tuple(lengths)
    k = len(lengths)
    _need(k >= 3, "pyramid needs at least 3 paths")
    _need(all(l >= 3 for l in lengths), "pyramid paths need length >= 3")
    b = _Builder()
    a = b.vertex()
    bvs = [b.vertex() for _ in range(k)]
    b.clique(bvs)
    w = StructureWitness({"a": (a,)})
    for i in range(1, k + 1):
        w.role_map[f"b_{i}"] = (bvs[i - 1],)
        w.role_map[f"P_{i}"] = tuple(b.path(lengths[i - 1], first=a, last=bvs[i - 1]))
    return b.graph(), w


# ---------------------------------------------------------------------------
# ladder types
# ---------------------------------------------------------------------------


def _check_attach(attach: Sequence[Sequence[int]], path_len: int, side: str) -> None:
    hulls = []
    for i, pos in enumerate(attach):
        _need(len(pos) >= 1, f"spoke {i + 1} needs a neighbor in {side}")
        _need(all(0 <= p < path_len for p in pos), f"{side} attachment out of range")
        hulls.append((min(pos), max(pos)))
    for i in range(len(hulls)):
        for j in range(len(hulls)):
            if i != j:
                lo, hi = hulls[i]
                _need(
                    not any(lo <= p <= hi for p in attach[j]),
                    f"attachment hulls on {side} must be disjoint",
                )


def _canonical_attach(k: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple((i,) for i in range(k))


def ladder_theta(
    k: int,
    lengths: Optional[Sequence[int]] = None,
    l_len: Optional[int] = None,
    attach: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[Graph, StructureWitness]:
    """Backbone path L plus apex b, with k paths from L-attached a_i to b."""
    _need(k >= 3, "ladder_theta needs k >= 3")
    lengths = tuple(lengths) if lengths is not None else (3,) * k
    _need(len(lengths) == k, "need one length per path")
    _need(all(l >= 3 for l in lengths), "ladder_theta paths need length >= 3")
    l_len = l_len if l_len is not None else k
    attach = tuple(tuple(a) for a in attach) if attach is not None else _canonical_attach(k)
    _need(len(attach) == k, "need one attachment set per path")
    _check_attach(attach, l_len, "L")
    b = _Builder()
    L = [b.vertex() for _ in range(l_len)]
    for u, v in zip(L, L[1:]):
        b.edge(u, v)
    apex = b.vertex()
    w = StructureWitness({"L": tuple(L), "b": (apex,)})
    for i in range(1, k + 1):
        p = b.path(lengths[i - 1], last=apex)
        w.role_map[f"a_{i}"] = (p[0],)
        w.role_map[f"P_{i}"] = tuple(p)
        for pos in attach[i - 1]:
            b.edge(p[0], L[pos])
    return b.graph(), w


def ladder_prism(
    k: int,
    lengths: Optional[Sequence[int]] = None,
    l_len: Optional[int] = None,
    attach: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[Graph, StructureWitness]:
    """Backbone path L plus a k-clique, with paths from L-attached a_i to b_i."""
    _need(k >= 3, "ladder_prism needs k >= 3")
    lengths = tuple(lengths) if lengths is not None else (2,) * k
    _need(len(lengths) == k, "need one length per path")
    _need(all(l >= 2 for l in lengths), "ladder_prism paths need length >= 2")
    l_len = l_len if l_len is not None else k
    attach = tuple(tuple(a) for a in attach) if attach is not None else _canonical_attach(k)
    _need(len(attach) == k, "need one attachment set per path")
    _check_attach(attach, l_len, "L")
    b = _Builder()
    L = [b.vertex() for _ in range(l_len)]
    for u, v in zip(L, L[1:]):
        b.edge(u, v)
    bvs = [b.vertex() for _ in range(k)]
    b.clique(bvs)
    w = StructureWitness({"L": tuple(L)})
    for i in range(1, k + 1):
        w.role_map[f"b_{i}"] = (bvs[i - 1],)
        p = b.path(lengths[i - 1], last=bvs[i - 1])
        w.role_map[f"a_{i}"] = (p[0],)
        w.role_map[f"P_{i}"] = tuple(p)
        for pos in attach[i - 1]:
            b.edge(p[0], L[pos])
    return b.graph(), w


def ladder(
    k: int,
    lengths: Optional[Sequence[int]] = None,
    l_len: Optional[int] = None,
    attach: Optional[Sequence[Sequence[int]]] = None,
    r_len: Optional[int] = None,
    r_attach: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[Graph, StructureWitness]:
    """Two backbone paths L and R bridged by k anti-complete a_i..b_i paths.

    Endpoints are distinct even at length 2 (the shortest bridge is an edge).
    The a-side and b-side attachment orders are independent; nothing forces
    the i-th hull on L to face the i-th hull on R.
    """
    _need(k >= 1, "ladder needs k >= 1")
    lengths = tuple(lengths) if lengths is not None else (2,) * k
    _need(len(lengths) == k, "need one length per path")
    _need(all(l >= 2 for l in lengths), "ladder paths need length >= 2")
    l_len = l_len if l_len is not None else k
    r_len = r_len if r_len is not None else k
    attach = tuple(tuple(a) for a in attach) if attach is not None else _canonical_attach(k)
    r_attach = tuple(tuple(a) for a in r_attach) if r_attach is not None else _canonical_attach(k)
    _need(len(attach) == k and len(r_attach) == k, "need one attachment set per path")
    _check_attach(attach, l_len, "L")
    _check_attach(r_attach, r_len, "R")
    b = _Builder()
    L = [b.vertex() for _ in range(l_len)]
    for u, v in zip(L, L[1:]):
        b.edge(u, v)
    R = [b.vertex() for _ in range(r_len)]
    for u, v in zip(R, R[1:]):
        b.edge(u, v)
    w = StructureWitness({"L": tuple(L), "R": tuple(R)})
    for i in range(1, k + 1):
        p = b.path(lengths[i - 1])
        w.role_map[f"a_{i}"] = (p[0],)
        w.role_map[f"b_{i}"] = (p[-1],)
        w.role_map[f"P_{i}"] = tuple(p)
        for pos in attach[i - 1]:
            b.edge(p[0], L[pos])
        for pos in r_attach[i - 1]:
            b.edge(p[-1], R[pos])
    return b.graph(), w


# ---------------------------------------------------------------------------
# claws and paws
# ---------------------------------------------------------------------------


def long_claw(arm: int) -> Tuple[Graph, StructureWitness]:
    """Claw with each edge subdivided: three arm paths of `arm` vertices
    sharing the center; 3*arm - 2 vertices."""
    _need(arm >= 2, "long_claw needs arm length >= 2")
    b = _Builder()
    v = b.vertex()
    w = StructureWitness({"v": (v,)})
    for i, leaf_name in enumerate(("a", "b", "c"), 1):
        p = b.path(arm, first=v)
        w.role_map[f"P_{i}"] = tuple(p)
        w.role_map[leaf_name] = (p[-1],)
    return b.graph(), w


def long_paw(arm: int) -> Tuple[Graph, StructureWitness]:
    """Triangle with an arm path of `arm` vertices hanging off each corner."""
    _need(arm >= 2, "long_paw needs arm length >= 2")
    b = _Builder()
    tri = [b.vertex() for _ in range(3)]
    b.clique(tri)
    w = StructureWitness({"triangle": tuple(tri)})
    for i, leaf_name in enumerate(("a", "b", "c"), 1):
        p = b.path(arm, first=tri[i - 1])
        w.role_map[f"P_{i}"] = tuple(p)
        w.role_map[leaf_name] = (p[-1],)
    return b.graph(), w


def _copies(k: int, maker) -> Tuple[Graph, StructureWitness]:
    _need(k >= 1, "need at least one copy")
    parts = [maker(k) for _ in range(k)]
    g, rels = disjoint_union([p for p, _ in parts])
    w = StructureWitness()
    for i, ((part, pw), rel) in enumerate(zip(parts, rels), 1):
        w.role_map[f"copy_{i}"] = tuple(sorted(rel.get(v) for v in range(part.n)))
        for role, vs in pw.role_map.items():
            renamed = f"{role}_{i}" if "_" not in role else role.replace("_", f"_{i}_", 1)
            w.role_map[renamed] = tuple(rel.get(x) for x in vs)
    return g, w


def claw(k: int) -> Tuple[Graph, StructureWitness]:
    """k anti-complete copies of the long claw with arm length k."""
    return _copies(k, long_claw)


def paw(k: int) -> Tuple[Graph, StructureWitness]:
    """k anti-complete copies of the long paw with arm length k."""
    return _copies(k, long_paw)


# ---------------------------------------------------------------------------
# skinny and almost-skinny ladders
# ---------------------------------------------------------------------------


def skinny_ladder(k: int) -> Tuple[Graph, StructureWitness]:
    """Two k-paths plus degree-2 spokes s_i joined to the i-th vertex of each."""
    _need(k >= 1, "skinny_ladder needs k >= 1")
    b = _Builder()
    L = [b.vertex() for _ in range(k)]
    R = [b.vertex() for _ in range(k)]
    for seq in (L, R):
        for u, v in zip(seq, seq[1:]):
            b.edge(u, v)
    w = StructureWitness({"L": tuple(L), "R": tuple(R)})
    svs = []
    for i in range(1, k + 1):
        s = b.vertex()
        b.edge(s, L[i - 1])
        b.edge(s, R[i - 1])
        w.role_map[f"s_{i}"] = (s,)
        svs.append(s)
    w.role_map["S"] = tuple(svs)
    return b.graph(), w


def almost_skinny_ladder(
    k: int, layout_seed: Optional[int] = None
) -> Tuple[Graph, StructureWitness]:
    """Spokes joined to private disjoint intervals of two anti-complete paths.

    With no seed, the canonical instance is the skinny ladder itself.  With a
    seed, interval sizes, the neighbor subsets inside each interval, padding
    gaps, and the matching of L-order to R-order are all randomized; the
    extraction routine has to undo the R-side permutation.
    """
    _need(k >= 1, "almost_skinny_ladder needs k >= 1")
    if layout_seed is None:
        g, w = skinny_ladder(k)
        return g, w
    rng = random.Random(layout_seed)

    def side_intervals(order: Sequence[int]):
        # returns per-spoke absolute neighbor positions, plus total length
        pos = rng.randint(0, 1)
        nbrs: Dict[int, List[int]] = {}
        for spoke in order:
            size = rng.randint(1, 3)
            cells = list(range(pos, pos + size))
            chosen = {cells[0], cells[-1]}
            for cm in cells[1:-1]:
                if rng.random() < 0.5:
                    chosen.add(cm)
            nbrs[spoke] = sorted(chosen)
            pos += size + rng.randint(0, 2)
        return nbrs, pos + rng.randint(0, 1)

    l_nbrs, l_len = side_intervals(range(k))
    perm = list(range(k))
    rng.shuffle(perm)
    r_nbrs, r_len = side_intervals(perm)

    b = _Builder()
    L = [b.vertex() for _ in range(l_len)]
    R = [b.vertex() for _ in range(r_len)]
    for seq in (L, R):
        for u, v in zip(seq, seq[1:]):
            b.edge(u, v)
    w = StructureWitness({"L": tuple(L), "R": tuple(R)})
    svs = []
    for i in range(k):
        s = b.vertex()
        for p in l_nbrs[i]:
            b.edge(s, L[p])
        for p in r_nbrs[i]:
            b.edge(s, R[p])
        w.role_map[f"s_{i + 1}"] = (s,)
        svs.append(s)
    w.role_map["S"] = tuple(svs)
    return b.graph(), w


# ---------------------------------------------------------------------------
# twisted ladder
# ---------------------------------------------------------------------------


def twisted_ladder(k: int) -> Tuple[Graph, StructureWitness]:
    """The k-block counterexample family: 8k+2 vertices, 12k edges.

    Layout: L and R are paths of 3k+1 vertices; block boundaries are
    cL_i = L[3(i-1)] and cR_i = R[3(i-1)].  Inside block i the L-segment is
    cL_i, b2_i, beta_i, cL_{i+1} and the R-segment is cR_i, delta_i, a2_i,
    cR_{i+1}.  The spokes a1_i ~ {delta_i, cR_{i+1}, b2_i} and
    b1_i ~ {cL_i, beta_i, a2_i} complete the block.  x = cL_1, y = cR_{k+1}.
    Removing S = {a1_i, b1_i: all i} leaves exactly L and R; choosing the
    superscript j_i per block makes {a^{j_i}_i, b^{j_i}_i} a minimal
    x,y-separator, giving the 2^k count.
    """
    _need(k >= 1, "twisted_ladder needs k >= 1")
    b = _Builder()
    L = [b.vertex() for _ in range(3 * k + 1)]
    R = [b.vertex() for _ in range(3 * k + 1)]
    for seq in (L, R):
        for u, v in zip(seq, seq[1:]):
            b.edge(u, v)
    w = StructureWitness({"L": tuple(L), "R": tuple(R), "x": (L[0],), "y": (R[-1],)})
    svs = []
    for i in range(1, k + 1):
        ai = b.vertex()
        bi = b.vertex()
        # a1_i: two R attachments skipping a2_i, one L attachment at b2_i
        b.edge(ai, R[3 * i - 2])
        b.edge(ai, R[3 * i])
        b.edge(ai, L[3 * i - 2])
        # b1_i: two L attachments skipping b2_i, one R attachment at a2_i
        b.edge(bi, L[3 * i - 3])
        b.edge(bi, L[3 * i - 1])
        b.edge(bi, R[3 * i - 1])
        w.role_map[f"a1_{i}"] = (ai,)
        w.role_map[f"b1_{i}"] = (bi,)
        w.role_map[f"a2_{i}"] = (R[3 * i - 1],)
        w.role_map[f"b2_{i}"] = (L[3 * i - 2],)
        svs += [ai, bi]
    for i in range(1, k + 2):
        w.role_map[f"cL_{i}"] = (L[3 * (i - 1)],)
        w.role_map[f"cR_{i}"] = (R[3 * (i - 1)],)
    for i in range(1, k + 1):
        block = L[3 * (i - 1) : 3 * i + 1] + R[3 * (i - 1) : 3 * i + 1]
        block += [w.one(f"a1_{i}"), w.one(f"b1_{i}")]
        w.role_map[f"block_{i}"] = tuple(sorted(block))
    w.role_map["S"] = tuple(sorted(svs))
    return b.graph(), w


def twisted_choice_separators(k: int, w: StructureWitness) -> List[VertexSet]:
    """The 2^k designated choice sets {a^{j_i}_i, b^{j_i}_i : i}."""
    out = []
    for sel in range(1 << k):
        s: List[int] = []
        for i in range(1, k + 1):
            j = 1 + (sel >> (i - 1) & 1)
            s.append(w.one(f"a{j}_{i}"))
            s.append(w.one(f"b{j}_{i}"))
        out.append(tuple(sorted(s)))
    return out


# ---------------------------------------------------------------------------
# feral gluing constructions
# ---------------------------------------------------------------------------


def _feral(c: int, h: int, paw_nodes: bool) -> Tuple[Graph, StructureWitness]:
    _need(c >= 1, "feral construction needs c >= 1")
    _need(h >= 3, "feral construction needs arm length >= 3")
    ids: Dict[tuple, int] = {}

    def vid(key: tuple) -> int:
        if key not in ids:
            ids[key] = len(ids)
        return ids[key]

    def leaf_key(t: int, i: int, arm: str) -> tuple:
        # the a-leaf of a non-root node is the glue point on its parent
        if arm == "a" and i > 1:
            parent, parm = i // 2, ("b" if i % 2 == 0 else "c")
            return (t, parent, parm, "leaf")
        return (t, i, arm, "leaf")

    edges: List[Tuple[int, int]] = []
    w = StructureWitness()
    nodes = range(1, 1 << c)
    for t in (1, 2):
        for i in nodes:
            if paw_nodes:
                starts = [vid((t, i, "tri", j)) for j in range(3)]
                edges += [(starts[0], starts[1]), (starts[0], starts[2]), (starts[1], starts[2])]
                w.role_map[f"triangle_{t}_{i}"] = tuple(starts)
            else:
                ctr = vid((t, i, "ctr"))
                starts = [ctr, ctr, ctr]
                w.role_map[f"center_{t}_{i}"] = (ctr,)
            for start, arm in zip(starts, "abc"):
                seq = [start]
                for pos in range(1, h):
                    key = leaf_key(t, i, arm) if pos == h - 1 else (t, i, arm, pos)
                    seq.append(vid(key))
                for u, v in zip(seq, seq[1:]):
                    edges.append((u, v))
                w.role_map[f"arm_{t}_{i}_{arm}"] = tuple(seq)
                w.role_map[f"{arm}_{t}_{i}"] = (seq[-1],)
    for i in range(1 << (c - 1), 1 << c):
        for arm in "bc":
            edges.append((vid((1, i, arm, "leaf")), vid((2, i, arm, "leaf"))))
    g = Graph(len(ids), edges)
    for t in (1, 2):
        w.role_map[f"tree_{t}"] = tuple(sorted(v for key, v in ids.items() if key[0] == t))
    return g, w


def claw_feral(c: int, h: int = 6) -> Tuple[Graph, StructureWitness]:
    """Two glued binary trees of long-claws with crossed leaf pairs.

    Each tree stacks 2^c - 1 long-claws of arm length h, gluing the a-leaf of
    node 2i (resp. 2i+1) onto the b-leaf (resp. c-leaf) of node i.  Leaf-level
    b- and c-leaves are crossed between the trees; picking one endpoint per
    crossed pair gives 2^(2^c) minimal separators.  Fewer than 3h*2^(c+1)
    vertices.
    """
    return _feral(c, h, paw_nodes=False)


def paw_feral(c: int, h: int = 6) -> Tuple[Graph, StructureWitness]:
    """The long-paw version of claw_feral, crossing the same b/c leaf pairs.

    Every branch vertex sits on a triangle and every cross endpoint has
    degree 2, so the construction stays claw-free.
    """
    return _feral(c, h, paw_nodes=True)


def feral_choice_separators(c: int, w: StructureWitness) -> List[VertexSet]:
    """The 2^(2^c) designated sets: one endpoint from each crossed leaf pair."""
    pairs = []
    for i in range(1 << (c - 1), 1 << c):
        for arm in "bc":
            pairs.append((w.one(f"{arm}_1_{i}"), w.one(f"{arm}_2_{i}")))
    out = []
    for sel in range(1 << len(pairs)):
        out.append(tuple(sorted(pairs[j][sel >> j & 1] for j in range(len(pairs)))))
    return out


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------


def subdivide(g: Graph, f: int) -> Graph:
    """Replace each edge by a path on f+1 edges (f new internal vertices)."""
    _need(f >= 0, "f must be nonnegative")
    sub, _ = subdivide_with_witness(g, f)
    return sub


def subdivide_with_witness(g: Graph, f: int) -> Tuple[Graph, StructureWitness]:
    _need(f >= 0, "f must be nonnegative")
    b = _Builder()
    for _ in range(g.n):
        b.vertex()
    w = StructureWitness({"base": tuple(range(g.n))})
    for u, v in sorted(g.edges()):
        seq = [u] + [b.vertex() for _ in range(f)] + [v]
        for x, y in zip(seq, seq[1:]):
            b.edge(x, y)
        w.role_map[f"P_{u}_{v}"] = tuple(seq)
    return b.graph(), w


# ---------------------------------------------------------------------------
# witness verification
# ---------------------------------------------------------------------------


def _role(w: StructureWitness, name: str) -> VertexSet:
    if name not in w.role_map:
        raise ValueError(f"unknown role {name!r}")
    return w.role_map[name]


def _indexed(w: StructureWitness, prefix: str) -> List[VertexSet]:
    out = []
    i = 1
    while f"{prefix}_{i}" in w.role_map:
        out.append(w.role_map[f"{prefix}_{i}"])
        i += 1
    return out


def _ck_path(g: Graph, seq: Sequence[int], label: str, out: List[str]) -> None:
    ok = len(set(seq)) == len(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            adj = g.has_edge(seq[i], seq[j])
            if adj != (j == i + 1):
                ok = False
    if not ok:
        out.append(f"{label} is an induced path")


def _ck_anti(g: Graph, a: Iterable[int], b: Iterable[int], clause: str, out: List[str]) -> None:
    sa, sb = set(a), set(b)
    if sa & sb or any(g.has_edge(u, v) for u in sa for v in sb):
        out.append(clause)


def _ck_cross(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    allowed: Iterable[Tuple[int, int]],
    clause: str,
    out: List[str],
) -> None:
    """Adjacency between the two sides holds exactly on the allowed pairs."""
    ok_pairs = set()
    for u, v in allowed:
        ok_pairs.add((u, v))
        ok_pairs.add((v, u))
    for u in a:
        for v in b:
            if u == v:
                continue
            if g.has_edge(u, v) != ((u, v) in ok_pairs):
                out.append(clause)
                return


def _ck_disjoint(parts: Sequence[Iterable[int]], clause: str, out: List[str]) -> None:
    seen: set = set()
    for part in parts:
        for v in part:
            if v in seen:
                out.append(clause)
                return
            seen.add(v)


def _hulls_disjoint(
    g: Graph, spokes: Sequence[int], path: Sequence[int], side: str, out: List[str]
) -> None:
    pos = {v: i for i, v in enumerate(path)}
    att = []
    for s in spokes:
        att.append(sorted(pos[u] for u in g.neighbors(s) if u in pos))
    for i in range(len(att)):
        if not att[i]:
            continue
        lo, hi = att[i][0], att[i][-1]
        for j in range(len(att)):
            if i != j and any(lo <= p <= hi for p in att[j]):
                out.append(f"attachment hulls on {side} are pairwise disjoint")
                return


def _v_theta(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    a, b = w.one("a"), w.one("b")
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < 3:
        out.append("at least 3 paths, one P role each")
        return
    if spec.path_lengths is not None and tuple(len(p) for p in ps) != tuple(spec.path_lengths):
        out.append("path lengths match the request")
    for i, p in enumerate(ps, 1):
        if len(p) < 4:
            out.append(f"P_{i} has at least 4 vertices")
        if not p or p[0] != a or p[-1] != b:
            out.append(f"P_{i} runs from a to b")
            return
        _ck_path(g, p, f"P_{i}", out)
    _ck_disjoint([(a,), (b,)] + [p[1:-1] for p in ps], "path interiors are disjoint", out)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            _ck_anti(g, ps[i][1:-1], ps[j][1:-1], "path interiors are pairwise anti-complete", out)


def _v_prism(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < 3:
        out.append("at least 3 paths, one P role each")
        return
    avs = [w.one(f"a_{i}") for i in range(1, k + 1)]
    bvs = [w.one(f"b_{i}") for i in range(1, k + 1)]
    if spec.path_lengths is not None and tuple(len(p) for p in ps) != tuple(spec.path_lengths):
        out.append("path lengths match the request")
    for i, p in enumerate(ps, 1):
        if len(p) < 2:
            out.append(f"P_{i} has at least 2 vertices")
        if not p or p[0] != avs[i - 1] or p[-1] != bvs[i - 1]:
            out.append(f"P_{i} runs from a_{i} to b_{i}")
            return
        _ck_path(g, p, f"P_{i}", out)
    _ck_disjoint(ps, "paths are vertex-disjoint", out)
    for i in range(k):
        for j in range(i + 1, k):
            _ck_cross(
                g,
                ps[i],
                ps[j],
                [(avs[i], avs[j]), (bvs[i], bvs[j])],
                "distinct paths meet only along the two cliques",
                out,
            )


def _v_pyramid(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    a = w.one("a")
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < 3:
        out.append("at least 3 paths, one P role each")
        return
    bvs = [w.one(f"b_{i}") for i in range(1, k + 1)]
    if spec.path_lengths is not None and tuple(len(p) for p in ps) != tuple(spec.path_lengths):
        out.append("path lengths match the request")
    for i, p in enumerate(ps, 1):
        if len(p) < 3:
            out.append(f"P_{i} has at least 3 vertices")
        if not p or p[0] != a or p[-1] != bvs[i - 1]:
            out.append(f"P_{i} runs from a to b_{i}")
            return
        _ck_path(g, p, f"P_{i}", out)
    _ck_disjoint([(a,)] + [p[1:] for p in ps], "paths share only the apex", out)
    for i in range(k):
        for j in range(i + 1, k):
            _ck_cross(
                g,
                ps[i][1:],
                ps[j][1:],
                [(bvs[i], bvs[j])],
                "distinct paths meet only along the clique",
                out,
            )


def _v_ladder_theta(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    L = _role(w, "L")
    apex = w.one("b")
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < 3:
        out.append("at least 3 paths, one P role each")
        return
    avs = [w.one(f"a_{i}") for i in range(1, k + 1)]
    _ck_path(g, L, "L", out)
    for i, p in enumerate(ps, 1):
        if len(p) < 3:
            out.append(f"P_{i} has at least 3 vertices")
        if not p or p[0] != avs[i - 1] or p[-1] != apex:
            out.append(f"P_{i} runs from a_{i} to b")
            return
        _ck_path(g, p, f"P_{i}", out)
        _ck_anti(g, p[1:], L, f"only a_{i} on P_{i} has neighbors in L", out)
        if not any(g.has_edge(avs[i - 1], u) for u in L):
            out.append(f"a_{i} has a neighbor in L")
    _ck_disjoint([L, (apex,)] + [p[:-1] for p in ps], "paths share only the apex", out)
    for i in range(k):
        for j in range(i + 1, k):
            _ck_anti(g, ps[i][:-1], ps[j][:-1], "paths are anti-complete away from b", out)
    _hulls_disjoint(g, avs, L, "L", out)


def _v_ladder_prism(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    L = _role(w, "L")
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < 3:
        out.append("at least 3 paths, one P role each")
        return
    avs = [w.one(f"a_{i}") for i in range(1, k + 1)]
    bvs = [w.one(f"b_{i}") for i in range(1, k + 1)]
    _ck_path(g, L, "L", out)
    for i, p in enumerate(ps, 1):
        if len(p) < 2:
            out.append(f"P_{i} has at least 2 vertices")
        if not p or p[0] != avs[i - 1] or p[-1] != bvs[i - 1]:
            out.append(f"P_{i} runs from a_{i} to b_{i}")
            return
        _ck_path(g, p, f"P_{i}", out)
        _ck_anti(g, p[1:], L, f"only a_{i} on P_{i} has neighbors in L", out)
        if not any(g.has_edge(avs[i - 1], u) for u in L):
            out.append(f"a_{i} has a neighbor in L")
    _ck_disjoint([L] + list(ps), "paths are vertex-disjoint", out)
    for i in range(k):
        for j in range(i + 1, k):
            _ck_cross(
                g,
                ps[i],
                ps[j],
                [(bvs[i], bvs[j])],
                "distinct paths meet only along the clique",
                out,
            )
    _hulls_disjoint(g, avs, L, "L", out)


def _v_ladder(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    L, R = _role(w, "L"), _role(w, "R")
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < 1:
        out.append("at least 1 path, one P role each")
        return
    avs = [w.one(f"a_{i}") for i in range(1, k + 1)]
    bvs = [w.one(f"b_{i}") for i in range(1, k + 1)]
    _ck_path(g, L, "L", out)
    _ck_path(g, R, "R", out)
    _ck_anti(g, L, R, "L anti-complete R", out)
    for i, p in enumerate(ps, 1):
        if len(p) < 2:
            out.append(f"P_{i} has at least 2 vertices")
        if not p or p[0] != avs[i - 1] or p[-1] != bvs[i - 1]:
            out.append(f"P_{i} runs from a_{i} to b_{i}")
            return
        _ck_path(g, p, f"P_{i}", out)
        _ck_anti(g, p[1:], L, f"only a_{i} on P_{i} has neighbors in L", out)
        _ck_anti(g, p[:-1], R, f"only b_{i} on P_{i} has neighbors in R", out)
        if not any(g.has_edge(avs[i - 1], u) for u in L):
            out.append(f"a_{i} has a neighbor in L")
        if not any(g.has_edge(bvs[i - 1], u) for u in R):
            out.append(f"b_{i} has a neighbor in R")
    _ck_disjoint([L, R] + list(ps), "pieces are vertex-disjoint", out)
    for i in range(k):
        for j in range(i + 1, k):
            _ck_anti(g, ps[i], ps[j], "bridge paths are pairwise anti-complete", out)
    _hulls_disjoint(g, avs, L, "L", out)
    _hulls_disjoint(g, bvs, R, "R", out)


def _v_long_claw(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    v = w.one("v")
    ps = _indexed(w, "P")
    if len(ps) != 3:
        out.append("three arm paths")
        return
    arm = spec.arm_length if spec.arm_length is not None else (spec.k or len(ps[0]))
    for i, (p, leaf) in enumerate(zip(ps, "abc"), 1):
        if len(p) != arm:
            out.append(f"P_{i} has exactly {arm} vertices")
        if not p or p[0] != v or w.one(leaf) != p[-1]:
            out.append(f"P_{i} runs from v to the {leaf} leaf")
            return
        _ck_path(g, p, f"P_{i}", out)
    _ck_disjoint([(v,)] + [p[1:] for p in ps], "arms share only the center", out)
    for i in range(3):
        for j in range(i + 1, 3):
            _ck_anti(g, ps[i][1:], ps[j][1:], "arms are anti-complete away from v", out)


def _v_long_paw(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    tri = _role(w, "triangle")
    ps = _indexed(w, "P")
    if len(tri) != 3 or len(ps) != 3:
        out.append("a triangle and three arm paths")
        return
    arm = spec.arm_length if spec.arm_length is not None else (spec.k or len(ps[0]))
    for i, (p, leaf) in enumerate(zip(ps, "abc"), 1):
        if len(p) != arm:
            out.append(f"P_{i} has exactly {arm} vertices")
        if not p or p[0] != tri[i - 1] or w.one(leaf) != p[-1]:
            out.append(f"P_{i} runs from its triangle corner to the {leaf} leaf")
            return
        _ck_path(g, p, f"P_{i}", out)
    _ck_disjoint(ps, "arms are vertex-disjoint", out)
    for i in range(3):
        for j in range(i + 1, 3):
            _ck_cross(
                g,
                ps[i],
                ps[j],
                [(tri[i], tri[j])],
                "distinct arms meet only along the triangle",
                out,
            )


def _v_copies(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], paw: bool) -> None:
    copies = _indexed(w, "copy")
    k = spec.k or len(copies)
    if len(copies) != k or k < 1:
        out.append("one copy role per component")
        return
    sub_spec = FamilySpec("long_paw" if paw else "long_claw", k=k, arm_length=k)
    for i in range(1, k + 1):
        subw = StructureWitness()
        names = ("triangle",) if paw else ("v",)
        for name in names + ("a", "b", "c"):
            subw.role_map[name] = _role(w, f"{name}_{i}")
        for j in (1, 2, 3):
            subw.role_map[f"P_{j}"] = _role(w, f"P_{i}_{j}")
        before = len(out)
        (_v_long_paw if paw else _v_long_claw)(g, sub_spec, subw, out)
        if len(out) > before:
            out[before:] = [f"copy {i}: {msg}" for msg in out[before:]]
        member = set()
        for vs in subw.role_map.values():
            member |= set(vs)
        if member != set(copies[i - 1]):
            out.append(f"copy {i} role covers exactly its component")
    for i in range(k):
        for j in range(i + 1, k):
            _ck_anti(g, copies[i], copies[j], "copies are pairwise anti-complete", out)


def _v_skinny(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    L, R = _role(w, "L"), _role(w, "R")
    svs = [w.one(f"s_{i}") for i in range(1, len(_indexed(w, "s")) + 1)]
    k = spec.k or len(svs)
    if not (len(L) == len(R) == len(svs) == k) or k < 1:
        out.append("L, R and the spokes all have size k")
        return
    if set(_role(w, "S")) != set(svs):
        out.append("S lists exactly the spokes")
    _ck_path(g, L, "L", out)
    _ck_path(g, R, "R", out)
    _ck_anti(g, L, R, "L anti-complete R", out)
    _ck_disjoint([L, R, svs], "pieces are vertex-disjoint", out)
    lpos = {v: i for i, v in enumerate(L)}
    rpos = {v: i for i, v in enumerate(R)}
    rungs = []
    for s in svs:
        nb = g.neighbors(s)
        pl = [lpos[u] for u in nb if u in lpos]
        pr = [rpos[u] for u in nb if u in rpos]
        if len(nb) != 2 or len(pl) != 1 or len(pr) != 1 or pl[0] != pr[0]:
            out.append("each spoke joins exactly one matching rung of L and R")
            return
        rungs.append(pl[0])
    if sorted(rungs) != list(range(k)):
        out.append("one spoke per rung")


def _v_almost_skinny(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    L, R = _role(w, "L"), _role(w, "R")
    svs = [w.one(f"s_{i}") for i in range(1, len(_indexed(w, "s")) + 1)]
    k = spec.k or len(svs)
    if len(svs) != k or k < 1:
        out.append("one spoke role per index up to k")
        return
    if set(_role(w, "S")) != set(svs):
        out.append("S lists exactly the spokes")
    _ck_path(g, L, "L", out)
    _ck_path(g, R, "R", out)
    _ck_anti(g, L, R, "L anti-complete R", out)
    _ck_disjoint([L, R, svs], "pieces are vertex-disjoint", out)
    lset, rset = set(L), set(R)
    for i, s in enumerate(svs, 1):
        nb = set(g.neighbors(s))
        if not nb & lset:
            out.append(f"s_{i} has a neighbor in L")
        if not nb & rset:
            out.append(f"s_{i} has a neighbor in R")
        if nb - lset - rset:
            out.append("spokes attach only to L and R")
    _hulls_disjoint(g, svs, L, "L", out)
    _hulls_disjoint(g, svs, R, "R", out)


def _ck_exact_nbrs(g: Graph, v: int, expect: Iterable[int], clause: str, out: List[str]) -> None:
    if set(g.neighbors(v)) != set(expect):
        out.append(clause)


def _v_twisted(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    L, R = _role(w, "L"), _role(w, "R")
    k = spec.k or (len(L) - 1) // 3
    if not (len(L) == len(R) == 3 * k + 1) or k < 1:
        out.append("L and R are paths on 3k+1 vertices")
        return
    _ck_path(g, L, "L", out)
    _ck_path(g, R, "R", out)
    _ck_anti(g, L, R, "L anti-complete R", out)
    if w.one("x") != L[0] or w.one("y") != R[-1]:
        out.append("x and y are the outer corners")
    spokes = []
    for i in range(1, k + 1):
        a1, b1 = w.one(f"a1_{i}"), w.one(f"b1_{i}")
        spokes += [a1, b1]
        _ck_exact_nbrs(
            g, a1, [R[3 * i - 2], R[3 * i], L[3 * i - 2]], f"a1_{i} attaches inside block {i}", out
        )
        _ck_exact_nbrs(
            g, b1, [L[3 * i - 3], L[3 * i - 1], R[3 * i - 1]], f"b1_{i} attaches inside block {i}", out
        )
        if w.one(f"a2_{i}") != R[3 * i - 1] or w.one(f"b2_{i}") != L[3 * i - 2]:
            out.append(f"a2_{i} and b2_{i} sit on the block's inner rungs")
        blk = set(L[3 * (i - 1) : 3 * i + 1] + R[3 * (i - 1) : 3 * i + 1]) | {a1, b1}
        if set(_role(w, f"block_{i}")) != blk:
            out.append(f"block_{i} covers its two segments and spokes")
    for i in range(1, k + 2):
        if w.one(f"cL_{i}") != L[3 * (i - 1)] or w.one(f"cR_{i}") != R[3 * (i - 1)]:
            out.append("cL/cR mark the block boundaries")
            break
    if set(_role(w, "S")) != set(spokes):
        out.append("S lists exactly the spokes")
    _ck_disjoint([L, R, spokes], "pieces are vertex-disjoint", out)


def _v_feral(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], paw: bool) -> None:
    c = spec.c
    if c is None:
        c = 0
        while f"center_1_{1 << c}" in w.role_map or f"triangle_1_{1 << c}" in w.role_map:
            c += 1
    if c < 1:
        out.append("at least one long-" + ("paw" if paw else "claw") + " per tree")
        return
    expected = set()

    def want(u: int, v: int) -> None:
        expected.add((min(u, v), max(u, v)))

    for t in (1, 2):
        for i in range(1, 1 << c):
            if paw:
                tri = _role(w, f"triangle_{t}_{i}")
                if len(tri) != 3:
                    out.append(f"triangle_{t}_{i} has 3 vertices")
                    return
                want(tri[0], tri[1])
                want(tri[0], tri[2])
                want(tri[1], tri[2])
                starts = list(tri)
            else:
                starts = [w.one(f"center_{t}_{i}")] * 3
            for start, arm in zip(starts, "abc"):
                seq = _role(w, f"arm_{t}_{i}_{arm}")
                if spec.arm_length is not None and len(seq) != spec.arm_length:
                    out.append(f"arm_{t}_{i}_{arm} has {spec.arm_length} vertices")
                if not seq or seq[0] != start or w.one(f"{arm}_{t}_{i}") != seq[-1]:
                    out.append(f"arm_{t}_{i}_{arm} runs from its branch vertex to the leaf")
                    return
                for u, v in zip(seq, seq[1:]):
                    want(u, v)
            if i > 1:
                parent_leaf = "b" if i % 2 == 0 else "c"
                if w.one(f"a_{t}_{i}") != w.one(f"{parent_leaf}_{t}_{i // 2}"):
                    out.append(f"the a leaf of node {i} is glued onto node {i // 2}")
    for i in range(1 << (c - 1), 1 << c):
        for arm in "bc":
            want(w.one(f"{arm}_1_{i}"), w.one(f"{arm}_2_{i}"))
    actual = {(min(u, v), max(u, v)) for u, v in g.edges()}
    if actual - expected:
        out.append("no adjacency outside the construction")
    if expected - actual:
        out.append("every construction edge is present")


def _v_subdivision(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    base = _role(w, "base")
    paths = {
        name: vs for name, vs in w.role_map.items() if name.startswith("P_") and name != "P"
    }
    bset = set(base)
    f = None
    internals = []
    for name, p in sorted(paths.items()):
        _, su, sv = name.split("_")
        u, v = int(su), int(sv)
        if not p or p[0] != u or p[-1] != v:
            out.append(f"{name} runs between its base endpoints")
            return
        if f is None:
            f = len(p) - 2
        if len(p) - 2 != f:
            out.append("every edge is subdivided the same number of times")
        _ck_path(g, p, name, out)
        if set(p[1:-1]) & bset:
            out.append("subdivision vertices are new")
        internals.append(p[1:-1])
    if spec.k and f is not None and f != spec.k:
        out.append("subdivision count matches the request")
    _ck_disjoint(internals, "subdivision paths are internally disjoint", out)
    for i in range(len(internals)):
        for j in range(i + 1, len(internals)):
            _ck_anti(g, internals[i], internals[j], "subdivision paths are anti-complete", out)
    ends = {tuple(sorted((p[0], p[-1]))) for p in paths.values()}
    for u in base:
        for v in base:
            if u < v and g.has_edge(u, v) and (f or 0) > 0:
                out.append("base vertices keep no direct edges once subdivided")
                return
    if (f or 0) == 0:
        for u, v in ends:
            if not g.has_edge(u, v):
                out.append("zero-step subdivision keeps the base edges")
                return


_VERIFIERS = {
    "theta": _v_theta,
    "prism": _v_prism,
    "pyramid": _v_pyramid,
    "ladder_theta": _v_ladder_theta,
    "ladder_prism": _v_ladder_prism,
    "ladder": _v_ladder,
    "long_claw": _v_long_claw,
    "long_paw": _v_long_paw,
    "claw": lambda g, s, w, o: _v_copies(g, s, w, o, paw=False),
    "paw": lambda g, s, w, o: _v_copies(g, s, w, o, paw=True),
    "skinny_ladder": _v_skinny,
    "almost_skinny_ladder": _v_almost_skinny,
    "twisted_ladder": _v_twisted,
    "claw_feral": lambda g, s, w, o: _v_feral(g, s, w, o, paw=False),
    "paw_feral": lambda g, s, w, o: _v_feral(g, s, w, o, paw=True),
    "subdivision": _v_subdivision,
}


def verify_witness(
    g: Graph, spec: FamilySpec, w: StructureWitness
) -> Tuple[bool, List[str]]:
    """Clause-by-clause check of a structure witness against its family.

    Returns (ok, violations).  Checks anti-completeness, domination,
    adjacency-iff and interval clauses over the named roles; role names the
    family does not define are ignored, missing ones raise.
    """
    if spec.family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {spec.family!r}")
    for name, vs in w.role_map.items():
        for v in vs:
            if not (0 <= v < g.n):
                raise ValueError(f"role {name!r} references vertex {v} outside the graph")
    out: List[str] = []
    _VERIFIERS[spec.family](g, spec, w, out)
    return (not out), out


# ---------------------------------------------------------------------------
# spec dispatch
# ---------------------------------------------------------------------------


def generate(spec: FamilySpec) -> Tuple[Graph, StructureWitness]:
    fam = spec.family
    if fam not in FAMILY_NAMES:
        raise ValueError(f"unknown family {fam!r}")
    k = spec.k
    if fam == "theta":
        return theta(spec.path_lengths or (4,) * k)
    if fam == "prism":
        return prism(spec.path_lengths or (2,) * k)
    if fam == "pyramid":
        return pyramid(spec.path_lengths or (3,) * k)
    if fam in ("ladder_theta", "ladder_prism", "ladder"):
        if spec.layout_seed is not None:
            rng = random.Random(spec.layout_seed)
            return sampled_ladder_instance(fam, k, rng, max_len=None, lengths=spec.path_lengths)
        if fam == "ladder_theta":
            return ladder_theta(k, spec.path_lengths)
        if fam == "ladder_prism":
            return ladder_prism(k, spec.path_lengths)
        return ladder(k, spec.path_lengths)
    if fam == "claw":
        return claw(k)
    if fam == "paw":
        return paw(k)
    if fam == "long_claw":
        return long_claw(spec.arm_length if spec.arm_length is not None else k)
    if fam == "long_paw":
        return long_paw(spec.arm_length if spec.arm_length is not None else k)
    if fam == "skinny_ladder":
        return skinny_ladder(k)
    if fam == "almost_skinny_ladder":
        return almost_skinny_ladder(k, spec.layout_seed)
    if fam == "twisted_ladder":
        return twisted_ladder(k)
    if fam == "claw_feral":
        _need(spec.c is not None, "claw_feral needs c")
        return claw_feral(spec.c, spec.arm_length if spec.arm_length is not None else 6)
    if fam == "paw_feral":
        _need(spec.c is not None, "paw_feral needs c")
        return paw_feral(spec.c, spec.arm_length if spec.arm_length is not None else 6)
    if fam == "subdivision":
        _need(spec.base_graph is not None, "subdivision needs base_graph")
        return subdivide_with_witness(spec.base_graph, k)
    raise AssertionError


def sampled_ladder_instance(
    fam: str,
    k: int,
    rng: random.Random,
    max_len: Optional[int] = None,
    lengths: Optional[Sequence[int]] = None,
) -> Tuple[Graph, StructureWitness]:
    """One random layout of a ladder-type family: backbone lengths, disjoint
    attachment hulls in shuffled order, and (optionally) random path lengths."""
    min_len = 3 if fam == "ladder_theta" else 2
    if lengths is None:
        hi = max_len if max_len is not None else min_len + 3
        lengths = tuple(rng.randint(min_len, hi) for _ in range(k))

    def side(order: Sequence[int]):
        pos = rng.randint(0, 1)
        att: Dict[int, List[int]] = {}
        for spoke in order:
            size = rng.randint(1, 3)
            cells = list(range(pos, pos + size))
            chosen = {cells[0], cells[-1]}
            for cm in cells[1:-1]:
                if rng.random() < 0.5:
                    chosen.add(cm)
            att[spoke] = sorted(chosen)
            pos += size + rng.randint(0, 2)
        return [att[i] for i in range(k)], pos + rng.randint(0, 1)

    perm = list(range(k))
    rng.shuffle(perm)
    attach, l_len = side(perm)
    if fam == "ladder_theta":
        return ladder_theta(k, lengths, l_len, attach)
    if fam == "ladder_prism":
        return ladder_prism(k, lengths, l_len, attach)
    perm2 = list(range(k))
    rng.shuffle(perm2)
    r_attach, r_len = side(perm2)
    return ladder(k, lengths, l_len, attach, r_len, r_attach)
