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

The six path-bundle families (theta, prism, pyramid, ladder_theta,
ladder_prism, ladder) are defined in one place, the `_BUNDLES` table.  Each
is k paths P_1..P_k of some least length, and each end of the bundle is one
shared vertex (role a or b), a k-clique (roles a_i or b_i), or private path
ends a_i or b_i attached to a backbone path (L on the a-end, R on the
b-end) in pairwise disjoint hulls.  `_bundle` builds all six from the table
and `_v_bundle` verifies them.

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
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graphs import Graph, disjoint_union, mask_of

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

    def clique(self, size: int) -> List[int]:
        """`size` new vertices, pairwise adjacent."""
        vs = list(range(self.count, self.count + size))
        self.count += size
        self.edges.extend(combinations(vs, 2))
        return vs

    def graph(self) -> Graph:
        return Graph(self.count, self.edges)


def _need(cond: bool, msg: str, *args) -> None:
    """Raise ValueError(msg % args) unless cond; the text is built only then."""
    if not cond:
        raise ValueError(msg % args)


def _hulls_overlap(attach: Sequence[Sequence[int]]) -> bool:
    """Some attachment set has a position inside another set's hull [min, max]."""
    for i, pos in enumerate(attach):
        if pos:
            lo, hi = min(pos), max(pos)
            for j, other in enumerate(attach):
                if i != j and any(lo <= p <= hi for p in other):
                    return True
    return False


# ---------------------------------------------------------------------------
# path bundles: theta, prism, pyramid, ladder_theta, ladder_prism, ladder
# ---------------------------------------------------------------------------

# the kinds of a bundle end
_ONE, _CLIQUE, _PATH = "one", "clique", "path"

# family -> (least k, least path length, a-end kind, b-end kind)
_BUNDLES = {
    "theta": (3, 4, _ONE, _ONE),
    "prism": (3, 2, _CLIQUE, _CLIQUE),
    "pyramid": (3, 3, _ONE, _CLIQUE),
    "ladder_theta": (3, 3, _PATH, _ONE),
    "ladder_prism": (3, 2, _PATH, _CLIQUE),
    "ladder": (1, 2, _PATH, _PATH),
}


def _check_attach(attach: Sequence[Sequence[int]], path_len: int, side: str, k: int) -> None:
    _need(len(attach) == k, "need one attachment set per path on %s", side)
    for pos in attach:
        _need(
            len(pos) >= 1 and all(0 <= p < path_len for p in pos),
            "every attachment set on %s is nonempty and inside it",
            side,
        )
    _need(not _hulls_overlap(attach), "attachment hulls on %s must be disjoint", side)


def _bundle(
    fam: str,
    k: int,
    lengths: Optional[Sequence[int]] = None,
    l_len: Optional[int] = None,
    attach: Optional[Sequence[Sequence[int]]] = None,
    r_len: Optional[int] = None,
    r_attach: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[Graph, StructureWitness]:
    """The k-path bundle of `_BUNDLES[fam]`.

    Vertices are numbered a-end first, then b-end, then each path's new
    vertices in order.  A backbone defaults to k vertices with the i-th
    path end attached to its i-th vertex.
    """
    min_k, min_len, a_end, b_end = _BUNDLES[fam]
    _need(k >= min_k, "%s needs k >= %d", fam, min_k)
    lengths = (min_len,) * k if lengths is None else tuple(lengths)
    _need(len(lengths) == k, "%s needs one length per path", fam)
    _need(min(lengths) >= min_len, "%s paths need length >= %d", fam, min_len)
    b = _Builder()
    w = StructureWitness()
    ends: List[Sequence[Optional[int]]] = []
    hooks = []
    for side, at, kind, name, n, att in (
        ("a", 0, a_end, "L", l_len, attach),
        ("b", -1, b_end, "R", r_len, r_attach),
    ):
        if kind == _ONE:
            v = b.vertex()
            w.role_map[side] = (v,)
            ends.append((v,) * k)
        elif kind == _CLIQUE:
            ends.append(b.clique(k))
        else:
            att = tuple((i,) for i in range(k)) if att is None else tuple(map(tuple, att))
            n = k if n is None else n
            _check_attach(att, n, name, k)
            backbone = b.path(n)
            w.role_map[name] = tuple(backbone)
            ends.append((None,) * k)
            hooks.append((at, backbone, att))
    for i, l in enumerate(lengths):
        p = b.path(l, ends[0][i], ends[1][i])
        if a_end != _ONE:
            w.role_map[f"a_{i + 1}"] = (p[0],)
        if b_end != _ONE:
            w.role_map[f"b_{i + 1}"] = (p[-1],)
        w.role_map[f"P_{i + 1}"] = tuple(p)
        for at, backbone, att in hooks:
            b.edges.extend((p[at], backbone[pos]) for pos in att[i])
    return b.graph(), w


def theta(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """k internally disjoint anti-complete paths joining a to b, lengths >= 4."""
    lengths = tuple(lengths)
    return _bundle("theta", len(lengths), lengths)


def prism(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """Two k-cliques joined by anti-complete paths, lengths >= 2."""
    lengths = tuple(lengths)
    return _bundle("prism", len(lengths), lengths)


def pyramid(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """Apex a joined to a k-clique by anti-complete paths, lengths >= 3."""
    lengths = tuple(lengths)
    return _bundle("pyramid", len(lengths), lengths)


def ladder_theta(
    k: int,
    lengths: Optional[Sequence[int]] = None,
    l_len: Optional[int] = None,
    attach: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[Graph, StructureWitness]:
    """Backbone path L plus apex b, with k paths from L-attached a_i to b."""
    return _bundle("ladder_theta", k, lengths, l_len, attach)


def ladder_prism(
    k: int,
    lengths: Optional[Sequence[int]] = None,
    l_len: Optional[int] = None,
    attach: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[Graph, StructureWitness]:
    """Backbone path L plus a k-clique, with paths from L-attached a_i to b_i."""
    return _bundle("ladder_prism", k, lengths, l_len, attach)


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
    return _bundle("ladder", k, lengths, l_len, attach, r_len, r_attach)


def _sample_hulls(rng: random.Random, order: Sequence[int]) -> Tuple[int, List[List[int]]]:
    """A random backbone length and disjoint attachment sets laid out along
    it in `order`: one sorted position list per spoke, indexed by spoke."""
    pos = rng.randint(0, 1)
    att: List[List[int]] = [[] for _ in order]
    for spoke in order:
        size = rng.randint(1, 3)
        chosen = {pos, pos + size - 1}
        for cm in range(pos + 1, pos + size - 1):
            if rng.random() < 0.5:
                chosen.add(cm)
        att[spoke] = sorted(chosen)
        pos += size + rng.randint(0, 2)
    return pos + rng.randint(0, 1), att


def sampled_ladder_instance(
    fam: str,
    k: int,
    rng: random.Random,
    max_len: Optional[int] = None,
    lengths: Optional[Sequence[int]] = None,
) -> Tuple[Graph, StructureWitness]:
    """One random layout of a ladder-type family: backbone lengths, disjoint
    attachment hulls in shuffled order, and (optionally) random path lengths."""
    min_len = _BUNDLES[fam][1]
    if lengths is None:
        hi = max_len if max_len is not None else min_len + 3
        lengths = tuple(rng.randint(min_len, hi) for _ in range(k))
    backbones: List = []
    for _ in range(2 if fam == "ladder" else 1):
        order = list(range(k))
        rng.shuffle(order)
        backbones += _sample_hulls(rng, order)
    return _bundle(fam, k, lengths, *backbones)


# ---------------------------------------------------------------------------
# claws and paws
# ---------------------------------------------------------------------------


def _long(arm: int, paw: bool) -> Tuple[Graph, StructureWitness]:
    _need(arm >= 2, "%s needs arm length >= 2", "long_paw" if paw else "long_claw")
    b = _Builder()
    if paw:
        starts = b.clique(3)
        w = StructureWitness({"triangle": tuple(starts)})
    else:
        starts = [b.vertex()] * 3
        w = StructureWitness({"v": (starts[0],)})
    for i, (start, leaf) in enumerate(zip(starts, "abc"), 1):
        p = b.path(arm, first=start)
        w.role_map[f"P_{i}"] = tuple(p)
        w.role_map[leaf] = (p[-1],)
    return b.graph(), w


def long_claw(arm: int) -> Tuple[Graph, StructureWitness]:
    """Claw with each edge subdivided: three arm paths of `arm` vertices
    sharing the center; 3*arm - 2 vertices."""
    return _long(arm, paw=False)


def long_paw(arm: int) -> Tuple[Graph, StructureWitness]:
    """Triangle with an arm path of `arm` vertices hanging off each corner."""
    return _long(arm, paw=True)


def _copies(k: int, paw: bool) -> Tuple[Graph, StructureWitness]:
    _need(k >= 2, "%s needs k >= 2 (the arm length of each copy)", "paw" if paw else "claw")
    part, pw = _long(k, paw)
    g, rels = disjoint_union([part] * k)
    w = StructureWitness()
    for i, rel in enumerate(rels, 1):
        w.role_map[f"copy_{i}"] = tuple(rel.get(v) for v in range(part.n))
        for role, vs in pw.role_map.items():
            renamed = f"{role}_{i}" if "_" not in role else role.replace("_", f"_{i}_", 1)
            w.role_map[renamed] = tuple(rel.get(x) for x in vs)
    return g, w


def claw(k: int) -> Tuple[Graph, StructureWitness]:
    """k anti-complete copies of the long claw with arm length k."""
    return _copies(k, paw=False)


def paw(k: int) -> Tuple[Graph, StructureWitness]:
    """k anti-complete copies of the long paw with arm length k."""
    return _copies(k, paw=True)


# ---------------------------------------------------------------------------
# skinny and almost-skinny ladders
# ---------------------------------------------------------------------------


def _spoke_ladder(
    l_len: int, r_len: int, l_att: Sequence[Sequence[int]], r_att: Sequence[Sequence[int]]
) -> Tuple[Graph, StructureWitness]:
    """Paths L and R plus one spoke s_i per (L positions, R positions) pair."""
    b = _Builder()
    L, R = b.path(l_len), b.path(r_len)
    w = StructureWitness({"L": tuple(L), "R": tuple(R)})
    svs = []
    for i, (lp, rp) in enumerate(zip(l_att, r_att), 1):
        s = b.vertex()
        b.edges.extend((s, L[p]) for p in lp)
        b.edges.extend((s, R[p]) for p in rp)
        w.role_map[f"s_{i}"] = (s,)
        svs.append(s)
    w.role_map["S"] = tuple(svs)
    return b.graph(), w


def skinny_ladder(k: int) -> Tuple[Graph, StructureWitness]:
    """Two k-paths plus degree-2 spokes s_i joined to the i-th vertex of each."""
    _need(k >= 1, "skinny_ladder needs k >= 1")
    rungs = [(i,) for i in range(k)]
    return _spoke_ladder(k, k, rungs, rungs)


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
        return skinny_ladder(k)
    rng = random.Random(layout_seed)
    l_len, l_att = _sample_hulls(rng, range(k))
    perm = list(range(k))
    rng.shuffle(perm)
    r_len, r_att = _sample_hulls(rng, perm)
    return _spoke_ladder(l_len, r_len, l_att, r_att)


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
    L, R = b.path(3 * k + 1), b.path(3 * k + 1)
    w = StructureWitness({"L": tuple(L), "R": tuple(R), "x": (L[0],), "y": (R[-1],)})
    svs = []
    for i in range(1, k + 1):
        ai = b.vertex()
        bi = b.vertex()
        # a1_i: two R attachments skipping a2_i, one L attachment at b2_i
        b.edges += [(ai, R[3 * i - 2]), (ai, R[3 * i]), (ai, L[3 * i - 2])]
        # b1_i: two L attachments skipping b2_i, one R attachment at a2_i
        b.edges += [(bi, L[3 * i - 3]), (bi, L[3 * i - 1]), (bi, R[3 * i - 1])]
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
    sub, _ = subdivide_with_witness(g, f)
    return sub


def subdivide_with_witness(g: Graph, f: int) -> Tuple[Graph, StructureWitness]:
    _need(f >= 0, "f must be nonnegative")
    b = _Builder()
    b.count = g.n
    w = StructureWitness({"base": tuple(range(g.n))})
    for u, v in sorted(g.edges()):
        w.role_map[f"P_{u}_{v}"] = tuple(b.path(f + 2, first=u, last=v))
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


def _ck_meets(
    g: Graph,
    private: Sequence[Sequence[int]],
    shared: Sequence[Iterable[int]],
    cliques: Sequence[Sequence[int]],
    out: List[str],
) -> None:
    """The private parts of the paths are disjoint from each other and from
    the shared pieces, and parts i and j are adjacent exactly on the pairs
    (c[i], c[j]) of each clique c."""
    _ck_disjoint(list(shared) + list(private), "paths share only their common ends", out)
    for i in range(len(private)):
        for j in range(i + 1, len(private)):
            _ck_cross(
                g,
                private[i],
                private[j],
                [(c[i], c[j]) for c in cliques],
                "distinct paths meet only along the end cliques",
                out,
            )


def _ck_edges(g: Graph, expected: Set[Tuple[int, int]], out: List[str]) -> None:
    """g's edge set is exactly `expected`, given as (min, max) pairs."""
    actual = {(min(u, v), max(u, v)) for u, v in g.edges()}
    if actual - expected:
        out.append("no adjacency outside the construction")
    if expected - actual:
        out.append("every construction edge is present")


def _hulls_disjoint(
    g: Graph, spokes: Sequence[int], path: Sequence[int], side: str, out: List[str]
) -> None:
    pos = {v: i for i, v in enumerate(path)}
    if _hulls_overlap([[pos[u] for u in g.neighbors(s) if u in pos] for s in spokes]):
        out.append(f"attachment hulls on {side} are pairwise disjoint")


def _v_bundle(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    min_k, min_len, a_end, b_end = _BUNDLES[spec.family]
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < min_k:
        out.append(f"at least {min_k} paths, one P role each")
        return
    if spec.path_lengths is not None and tuple(len(p) for p in ps) != tuple(spec.path_lengths):
        out.append("path lengths match the request")
    ends, shared, cliques, hooks = [], [], [], []
    for side, kind, name in (("a", a_end, "L"), ("b", b_end, "R")):
        if kind == _ONE:
            ends.append([w.one(side)] * k)
            shared.append(ends[-1][:1])
            continue
        ends.append([w.one(f"{side}_{i}") for i in range(1, k + 1)])
        if kind == _CLIQUE:
            cliques.append(ends[-1])
        else:
            backbone = _role(w, name)
            _ck_path(g, backbone, name, out)
            shared.append(backbone)
            hooks.append((side, name, backbone, ends[-1]))
    if len(hooks) == 2:
        _ck_anti(g, hooks[0][2], hooks[1][2], "L anti-complete R", out)
    for i, p in enumerate(ps):
        if len(p) < min_len:
            out.append(f"P_{i + 1} has at least {min_len} vertices")
        if not p or p[0] != ends[0][i] or p[-1] != ends[1][i]:
            out.append(f"P_{i + 1} runs from its a-end to its b-end")
            return
        _ck_path(g, p, f"P_{i + 1}", out)
    for side, name, backbone, vs in hooks:
        for i, p in enumerate(ps):
            rest = p[1:] if side == "a" else p[:-1]
            _ck_anti(g, rest, backbone, f"only {side}_{i + 1} on P_{i + 1} has neighbors in {name}", out)
            if not any(g.has_edge(vs[i], u) for u in backbone):
                out.append(f"{side}_{i + 1} has a neighbor in {name}")
        _hulls_disjoint(g, vs, backbone, name, out)
    lo, hi = int(a_end == _ONE), int(b_end == _ONE)
    _ck_meets(g, [p[lo : len(p) - hi] for p in ps], shared, cliques, out)


def _v_long(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], paw: bool) -> None:
    starts = _role(w, "triangle") if paw else [w.one("v")] * 3
    ps = _indexed(w, "P")
    if len(starts) != 3 or len(ps) != 3:
        out.append("a branch vertex or triangle and three arm paths")
        return
    arm = spec.arm_length if spec.arm_length is not None else (spec.k or len(ps[0]))
    for i, (p, start, leaf) in enumerate(zip(ps, starts, "abc"), 1):
        if len(p) != arm:
            out.append(f"P_{i} has exactly {arm} vertices")
        if not p or p[0] != start or w.one(leaf) != p[-1]:
            out.append(f"P_{i} runs from its branch vertex to the {leaf} leaf")
            return
        _ck_path(g, p, f"P_{i}", out)
    if paw:
        _ck_meets(g, ps, [], [starts], out)
    else:
        _ck_meets(g, [p[1:] for p in ps], [starts[:1]], [], out)


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
        _v_long(g, sub_spec, subw, out, paw)
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


def _v_spokes(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], skinny: bool) -> None:
    """Almost-skinny: each spoke sees L and R only, in disjoint hulls on
    each.  Skinny adds that L and R have k vertices and each spoke joins
    the same single position on both."""
    L, R = _role(w, "L"), _role(w, "R")
    svs = [s for (s,) in _indexed(w, "s")]
    k = spec.k or len(svs)
    if len(svs) != k or k < 1 or (skinny and not len(L) == len(R) == k):
        out.append("one spoke role per index up to k" + (", L and R of size k" if skinny else ""))
        return
    if set(_role(w, "S")) != set(svs):
        out.append("S lists exactly the spokes")
    _ck_path(g, L, "L", out)
    _ck_path(g, R, "R", out)
    _ck_anti(g, L, R, "L anti-complete R", out)
    _ck_disjoint([L, R, svs], "pieces are vertex-disjoint", out)
    lpos = {v: i for i, v in enumerate(L)}
    rpos = {v: i for i, v in enumerate(R)}
    for i, s in enumerate(svs, 1):
        nb = g.neighbors(s)
        pl = [lpos[u] for u in nb if u in lpos]
        pr = [rpos[u] for u in nb if u in rpos]
        if not pl or not pr:
            out.append(f"s_{i} has neighbors in L and in R")
        if len(pl) + len(pr) != len(nb):
            out.append("spokes attach only to L and R")
        if skinny and not (len(pl) == 1 and pl == pr):
            out.append(f"s_{i} joins one matching rung of L and R")
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
    _ck_edges(g, expected, out)


def _v_subdivision(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> None:
    base = set(_role(w, "base"))
    f = None
    internals = []
    expected = set()
    for name, p in sorted(w.role_map.items()):
        if not name.startswith("P_"):
            continue
        _, su, sv = name.split("_")
        if not p or p[0] != int(su) or p[-1] != int(sv):
            out.append(f"{name} runs between its base endpoints")
            return
        if f is None:
            f = len(p) - 2
        if len(p) - 2 != f:
            out.append("every edge is subdivided the same number of times")
        _ck_path(g, p, name, out)
        if set(p[1:-1]) & base:
            out.append("subdivision vertices are new")
        internals.append(p[1:-1])
        expected.update((min(u, v), max(u, v)) for u, v in zip(p, p[1:]))
    if spec.k and f is not None and f != spec.k:
        out.append("subdivision count matches the request")
    _ck_disjoint(internals, "subdivision paths are internally disjoint", out)
    _ck_edges(g, expected, out)


_VERIFIERS = {
    **{fam: _v_bundle for fam in _BUNDLES},
    "long_claw": lambda g, s, w, o: _v_long(g, s, w, o, paw=False),
    "long_paw": lambda g, s, w, o: _v_long(g, s, w, o, paw=True),
    "claw": lambda g, s, w, o: _v_copies(g, s, w, o, paw=False),
    "paw": lambda g, s, w, o: _v_copies(g, s, w, o, paw=True),
    "skinny_ladder": lambda g, s, w, o: _v_spokes(g, s, w, o, skinny=True),
    "almost_skinny_ladder": lambda g, s, w, o: _v_spokes(g, s, w, o, skinny=False),
    "twisted_ladder": _v_twisted,
    "claw_feral": lambda g, s, w, o: _v_feral(g, s, w, o, paw=False),
    "paw_feral": lambda g, s, w, o: _v_feral(g, s, w, o, paw=True),
    "subdivision": _v_subdivision,
}


def verify_witness(
    g: Graph, spec: FamilySpec, w: StructureWitness
) -> Tuple[bool, List[str]]:
    """Clause-by-clause check of a structure witness against its family.

    Returns (ok, violations).  Checks that every vertex lies in some role,
    then anti-completeness, domination, adjacency-iff and interval clauses
    over the named roles; role names the family does not define are
    ignored, missing ones raise.
    """
    if spec.family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {spec.family!r}")
    for name, vs in w.role_map.items():
        for v in vs:
            if not (0 <= v < g.n):
                raise ValueError(f"role {name!r} references vertex {v} outside the graph")
    out: List[str] = []
    if mask_of(v for vs in w.role_map.values() for v in vs) != g.full_mask():
        out.append("every vertex lies in some role")
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
    if fam in _BUNDLES:
        if _BUNDLES[fam][2] != _PATH:
            lengths = spec.path_lengths or (_BUNDLES[fam][1],) * k
            return _bundle(fam, k or len(lengths), lengths)
        if spec.layout_seed is not None:
            rng = random.Random(spec.layout_seed)
            return sampled_ladder_instance(fam, k, rng, lengths=spec.path_lengths)
        return _bundle(fam, k, spec.path_lengths)
    if fam in ("claw", "paw"):
        return _copies(k, paw=fam == "paw")
    if fam in ("long_claw", "long_paw"):
        return _long(spec.arm_length if spec.arm_length is not None else k, paw=fam == "long_paw")
    if fam == "skinny_ladder":
        return skinny_ladder(k)
    if fam == "almost_skinny_ladder":
        return almost_skinny_ladder(k, spec.layout_seed)
    if fam == "twisted_ladder":
        return twisted_ladder(k)
    if fam in ("claw_feral", "paw_feral"):
        _need(spec.c is not None, "%s needs c", fam)
        return _feral(spec.c, spec.arm_length if spec.arm_length is not None else 6, fam == "paw_feral")
    _need(spec.base_graph is not None, "subdivision needs base_graph")
    return subdivide_with_witness(spec.base_graph, k)
