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

Each family is named once, in the `FAMILIES` table at the end of this
module: name -> (builder from a FamilySpec, verifier, the FamilySpec fields
the builder reads), in FAMILY_NAMES order.  `generate` rejects a spec that
sets any other field away from its default.

The six path-bundle families (theta, prism, pyramid, ladder_theta,
ladder_prism, ladder) are defined in one place, the `BUNDLES` table.  Each
is k paths P_1..P_k of some least length, and each end of the bundle is one
shared vertex (role a or b), a k-clique (roles a_i or b_i), or private path
ends a_i or b_i attached to a backbone path (L on the a-end, R on the
b-end) in pairwise disjoint hulls.  `_bundle` builds all six from the table;
a spec without k takes it from its number of path lengths.

`verify_witness` checks every family one way: from the roles, a verifier
derives pieces that must partition V, the exact edge set the roles imply,
and the free end-to-backbone or spoke-to-path pairs g may use.

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
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import combinations, product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graphs import Graph, VertexSet, mask_of


@dataclass(frozen=True)
class FamilySpec:
    family: str
    k: Optional[int] = None
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

    def long(self, arm: int, paw: bool, last_a: Optional[int] = None) -> Tuple[List[int], List[List[int]]]:
        """A long paw (a triangle) or long claw (one center) with arms a, b, c
        of `arm` vertices each; `last_a`, when given, ends the a-arm.

        Returns the three arm starts (the center thrice for a claw) and the
        three arms, each running from its start to its leaf.
        """
        starts = self.clique(3) if paw else [self.vertex()] * 3
        return starts, [self.path(arm, s, last) for s, last in zip(starts, (last_a, None, None))]

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

# family -> (least k, least path length, a-end kind, b-end kind); a ladder
# path's ends are distinct even at length 2 (the shortest bridge is an edge)
BUNDLES = {
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
    """The k-path bundle of `BUNDLES[fam]`.

    Vertices are numbered a-end first, then b-end, then each path's new
    vertices in order.  A backbone defaults to k vertices with the i-th
    path end attached to its i-th vertex.
    """
    min_k, min_len, a_end, b_end = BUNDLES[fam]
    _need(k >= min_k, "%s needs k >= %d", fam, min_k)
    lengths = tuple(lengths) if lengths else (min_len,) * k
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
    return _bundle("theta", len(lengths), lengths)


def prism(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """Two k-cliques joined by anti-complete paths, lengths >= 2."""
    return _bundle("prism", len(lengths), lengths)


def pyramid(lengths: Sequence[int]) -> Tuple[Graph, StructureWitness]:
    """Apex a joined to a k-clique by anti-complete paths, lengths >= 3."""
    return _bundle("pyramid", len(lengths), lengths)


def ladder_theta(k: int) -> Tuple[Graph, StructureWitness]:
    """Backbone path L plus apex b, with k paths from L-attached a_i to b."""
    return _bundle("ladder_theta", k)


def ladder_prism(k: int) -> Tuple[Graph, StructureWitness]:
    """Backbone path L plus a k-clique, with paths from L-attached a_i to b_i."""
    return _bundle("ladder_prism", k)


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
    attachment hulls in shuffled order, and (optionally) random path lengths.
    The ladder's a-side and b-side attachment orders are drawn independently."""
    min_len = BUNDLES[fam][1]
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


def _long(arm: Optional[int], paw: bool) -> Tuple[Graph, StructureWitness]:
    """A long paw (triangle) or long claw (center) with three arm paths of
    `arm` vertices each from it; a long claw has 3*arm - 2 vertices."""
    _need(arm is not None and arm >= 2, "%s needs arm_length >= 2", "long_paw" if paw else "long_claw")
    b = _Builder()
    starts, arms = b.long(arm, paw)
    w = StructureWitness({"triangle": tuple(starts)} if paw else {"v": (starts[0],)})
    for i, (p, leaf) in enumerate(zip(arms, "abc"), 1):
        w.role_map[f"P_{i}"] = tuple(p)
        w.role_map[leaf] = (p[-1],)
    return b.graph(), w


def _copies(k: int, paw: bool) -> Tuple[Graph, StructureWitness]:
    _need(k >= 2, "%s needs k >= 2 (the arm length of each copy)", "paw" if paw else "claw")
    b = _Builder()
    w = StructureWitness()
    for i in range(1, k + 1):
        first = b.count
        starts, arms = b.long(k, paw)
        w.role_map[f"copy_{i}"] = tuple(range(first, b.count))
        w.role_map.update({f"triangle_{i}": tuple(starts)} if paw else {f"v_{i}": (starts[0],)})
        for j, (p, leaf) in enumerate(zip(arms, "abc"), 1):
            w.role_map[f"P_{i}_{j}"] = tuple(p)
            w.role_map[f"{leaf}_{i}"] = (p[-1],)
    return b.graph(), w


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


def _twisted_spokes(L: Sequence[int], R: Sequence[int], i: int, a1: int, b1: int) -> List[Tuple[int, int]]:
    """Block i's spoke edges: a1_i meets R on both sides of a2_i and L at
    b2_i; b1_i meets L on both sides of b2_i and R at a2_i."""
    return [(a1, R[3 * i - 2]), (a1, R[3 * i]), (a1, L[3 * i - 2]),
            (b1, L[3 * i - 3]), (b1, L[3 * i - 1]), (b1, R[3 * i - 1])]


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
        b.edges += _twisted_spokes(L, R, i, ai, bi)
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
    fam = "paw_feral" if paw_nodes else "claw_feral"
    _need(c >= 1, "%s needs c >= 1", fam)
    _need(h >= 3, "%s needs arm_length >= 3", fam)
    b = _Builder()
    w = StructureWitness()
    for t in (1, 2):
        first = b.count
        for i in range(1, 1 << c):
            # the a-leaf of a non-root node is the b- or c-leaf of its parent
            glue = w.one(f"{'bc'[i % 2]}_{t}_{i // 2}") if i > 1 else None
            starts, arms = b.long(h, paw_nodes, glue)
            if paw_nodes:
                w.role_map[f"triangle_{t}_{i}"] = tuple(starts)
            else:
                w.role_map[f"center_{t}_{i}"] = (starts[0],)
            for p, arm in zip(arms, "abc"):
                w.role_map[f"arm_{t}_{i}_{arm}"] = tuple(p)
                w.role_map[f"{arm}_{t}_{i}"] = (p[-1],)
        w.role_map[f"tree_{t}"] = tuple(range(first, b.count))
    for i in range(1 << (c - 1), 1 << c):
        for arm in "bc":
            b.edges.append((w.one(f"{arm}_1_{i}"), w.one(f"{arm}_2_{i}")))
    return b.graph(), w


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


def subdivide(g: Graph, k: int) -> Tuple[Graph, StructureWitness]:
    """Replace each edge u < v by a path P_u_v on k+1 edges (k new internal
    vertices); the base role keeps g's vertices."""
    _need(k >= 0, "subdivision needs k >= 0")
    b = _Builder()
    b.count = g.n
    w = StructureWitness({"base": tuple(range(g.n))})
    for u, v in sorted(g.edges()):
        w.role_map[f"P_{u}_{v}"] = tuple(b.path(k + 2, first=u, last=v))
    return b.graph(), w


# ---------------------------------------------------------------------------
# witness verification
# ---------------------------------------------------------------------------

# pieces that must partition V, the exact edge set, and the free pairs g may use
Design = Tuple[List[Sequence[int]], List[Tuple[int, int]], List[Tuple[int, int]]]


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


def _pairs(pairs: Iterable[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in pairs}


def _ck_design(g: Graph, design: Design, out: List[str]) -> None:
    """The pieces partition V, and g has every design edge and, beyond the
    free pairs, no other."""
    pieces, edges, free = design
    if sum(map(len, pieces)) != g.n or mask_of(v for p in pieces for v in p) != g.full_mask():
        out.append("the pieces partition the vertices")
    actual, expected = _pairs(g.edges()), _pairs(edges)
    if actual - expected - _pairs(free):
        out.append("no adjacency outside the construction")
    if expected - actual:
        out.append("every construction edge is present")


def _ck_hooks(
    g: Graph, ends: Sequence[int], backbone: Sequence[int], label: str, name: str, out: List[str]
) -> List[List[int]]:
    """The backbone positions each end's free pairs reach in g, one list per
    end: every end reaches one, in pairwise disjoint hulls."""
    pos = {v: i for i, v in enumerate(backbone)}
    attach = [[pos[u] for u in g.neighbors(s) if u in pos] for s in ends]
    for i, at in enumerate(attach, 1):
        if not at:
            out.append(f"{label}_{i} has a neighbor in {name}")
    if _hulls_overlap(attach):
        out.append(f"attachment hulls on {name} are pairwise disjoint")
    return attach


def _v_bundle(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> Optional[Design]:
    min_k, min_len, a_end, b_end = BUNDLES[spec.family]
    ps = _indexed(w, "P")
    k = spec.k or len(ps)
    if len(ps) != k or k < min_k:
        out.append(f"at least {min_k} paths, one P role each")
        return None
    if spec.path_lengths is not None and tuple(len(p) for p in ps) != tuple(spec.path_lengths):
        out.append("path lengths match the request")
    ends, pieces, edges, free = [], [], [], []
    for side, kind, name in (("a", a_end, "L"), ("b", b_end, "R")):
        if kind == _ONE:
            ends.append([w.one(side)] * k)
            pieces.append(ends[-1][:1])
            continue
        ends.append([w.one(f"{side}_{i}") for i in range(1, k + 1)])
        if kind == _CLIQUE:
            edges += combinations(ends[-1], 2)
        else:
            backbone = _role(w, name)
            pieces.append(backbone)
            edges += zip(backbone, backbone[1:])
            free += product(ends[-1], backbone)
            _ck_hooks(g, ends[-1], backbone, side, name, out)
    for i, p in enumerate(ps):
        if len(p) < min_len:
            out.append(f"P_{i + 1} has at least {min_len} vertices")
        if not p or p[0] != ends[0][i] or p[-1] != ends[1][i]:
            out.append(f"P_{i + 1} runs from its a-end to its b-end")
            return None
        edges += zip(p, p[1:])
    lo, hi = int(a_end == _ONE), int(b_end == _ONE)
    return pieces + [p[lo : len(p) - hi] for p in ps], edges, free


def _v_node(
    w: StructureWitness, paw: bool, start: str, arms: Sequence[str], leaves: Sequence[str],
    length: Optional[int], out: List[str],
) -> Optional[Design]:
    """One long claw or paw: the branch vertex or triangle role `start`, and
    three arm roles, each running from its start to its leaf role on
    `length` vertices when that is given."""
    starts = _role(w, start) if paw else [w.one(start)] * 3
    if len(starts) != 3:
        out.append(f"{start} has 3 vertices")
        return None
    pieces = [starts if paw else starts[:1]]
    edges = list(combinations(starts, 2)) if paw else []
    for arm, s, leaf in zip(arms, starts, leaves):
        p = _role(w, arm)
        if length is not None and len(p) != length:
            out.append(f"{arm} has exactly {length} vertices")
        if not p or p[0] != s or w.one(leaf) != p[-1]:
            out.append(f"{arm} runs from its branch vertex to the {leaf} leaf")
            return None
        pieces.append(p[1:])
        edges += zip(p, p[1:])
    return pieces, edges, []


def _v_long(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], paw: bool) -> Optional[Design]:
    ps = _indexed(w, "P")
    if len(ps) != 3:
        out.append("a branch vertex or triangle and three arm paths")
        return None
    arm = len(ps[0]) if spec.arm_length is None else spec.arm_length
    return _v_node(w, paw, "triangle" if paw else "v", ("P_1", "P_2", "P_3"), "abc", arm, out)


def _v_copies(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], paw: bool) -> Optional[Design]:
    copies = _indexed(w, "copy")
    k = spec.k or len(copies)
    if len(copies) != k or k < 1:
        out.append("one copy role per component")
        return None
    pieces, edges = [], []
    for i in range(1, k + 1):
        start = f"triangle_{i}" if paw else f"v_{i}"
        arms = [f"P_{i}_{j}" for j in (1, 2, 3)]
        node = _v_node(w, paw, start, arms, [f"{x}_{i}" for x in "abc"], k, out)
        if node is None:
            return None
        if {v for p in node[0] for v in p} != set(copies[i - 1]):
            out.append(f"copy {i} role covers exactly its component")
        pieces += node[0]
        edges += node[1]
    return pieces, edges, []


def _v_spokes(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], skinny: bool) -> Optional[Design]:
    """Almost-skinny: each spoke sees L and R only, in disjoint hulls on
    each.  Skinny adds that L and R have k vertices and each spoke joins
    the same single position on both."""
    L, R = _role(w, "L"), _role(w, "R")
    svs = [s for (s,) in _indexed(w, "s")]
    k = spec.k or len(svs)
    if len(svs) != k or k < 1 or (skinny and not len(L) == len(R) == k):
        out.append("one spoke role per index up to k" + (", L and R of size k" if skinny else ""))
        return None
    if set(_role(w, "S")) != set(svs):
        out.append("S lists exactly the spokes")
    at_l = _ck_hooks(g, svs, L, "s", "L", out)
    at_r = _ck_hooks(g, svs, R, "s", "R", out)
    for i, (pl, pr) in enumerate(zip(at_l, at_r), 1):
        if skinny and not (len(pl) == 1 and pl == pr):
            out.append(f"s_{i} joins one matching rung of L and R")
    edges = list(zip(L, L[1:])) + list(zip(R, R[1:]))
    return [L, R] + [[s] for s in svs], edges, list(product(svs, L + R))


def _v_twisted(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> Optional[Design]:
    L, R = _role(w, "L"), _role(w, "R")
    k = spec.k or (len(L) - 1) // 3
    if not (len(L) == len(R) == 3 * k + 1) or k < 1:
        out.append("L and R are paths on 3k+1 vertices")
        return None
    if w.one("x") != L[0] or w.one("y") != R[-1]:
        out.append("x and y are the outer corners")
    spokes = []
    edges = list(zip(L, L[1:])) + list(zip(R, R[1:]))
    for i in range(1, k + 1):
        a1, b1 = w.one(f"a1_{i}"), w.one(f"b1_{i}")
        spokes += [a1, b1]
        edges += _twisted_spokes(L, R, i, a1, b1)
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
    return [L, R] + [[s] for s in spokes], edges, []


def _v_feral(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str], paw: bool) -> Optional[Design]:
    c = spec.c
    if c is None:
        c = 0
        while f"center_1_{1 << c}" in w.role_map or f"triangle_1_{1 << c}" in w.role_map:
            c += 1
    if c < 1:
        out.append("at least one long-" + ("paw" if paw else "claw") + " per tree")
        return None
    pieces, edges = [], []
    for t in (1, 2):
        tree = []
        for i in range(1, 1 << c):
            start = f"triangle_{t}_{i}" if paw else f"center_{t}_{i}"
            arms = [f"arm_{t}_{i}_{x}" for x in "abc"]
            node = _v_node(w, paw, start, arms, [f"{x}_{t}_{i}" for x in "abc"], spec.arm_length, out)
            if node is None:
                return None
            if i > 1:
                if w.one(f"a_{t}_{i}") != w.one(f"{'bc'[i % 2]}_{t}_{i // 2}"):
                    out.append(f"the a leaf of node {i} is glued onto node {i // 2}")
                # that leaf is a piece of the parent
                node[0][1] = node[0][1][:-1]
            tree += node[0]
            edges += node[1]
        if set(_role(w, f"tree_{t}")) != {v for p in tree for v in p}:
            out.append(f"tree_{t} covers exactly its nodes")
        pieces += tree
    for i in range(1 << (c - 1), 1 << c):
        for arm in "bc":
            edges.append((w.one(f"{arm}_1_{i}"), w.one(f"{arm}_2_{i}")))
    return pieces, edges, []


def _v_subdivision(g: Graph, spec: FamilySpec, w: StructureWitness, out: List[str]) -> Optional[Design]:
    """Base vertex i of spec.base_graph, when given, is the i-th vertex of
    the base role, and the P_u_v roles are exactly its edges."""
    base = _role(w, "base")
    pieces, edges, f, named = [base], [], None, []
    for name, p in sorted(w.role_map.items()):
        if not name.startswith("P_"):
            continue
        _, su, sv = name.split("_")
        if not p or p[0] != int(su) or p[-1] != int(sv) or not {p[0], p[-1]} <= set(base):
            out.append(f"{name} runs between its base endpoints")
            return None
        named.append((min(p[0], p[-1]), max(p[0], p[-1])))
        if f is None:
            f = len(p) - 2
        if len(p) - 2 != f:
            out.append("every edge is subdivided the same number of times")
        pieces.append(p[1:-1])
        edges += zip(p, p[1:])
    if spec.k and f is not None and f != spec.k:
        out.append("subdivision count matches the request")
    bg = spec.base_graph
    if bg is not None:
        if len(base) != bg.n:
            out.append("the base role has one vertex per base graph vertex")
        elif sorted(named) != sorted(_pairs((base[u], base[v]) for u, v in bg.edges())):
            out.append("the P roles are the base graph's edges")
    return pieces, edges, []


def verify_witness(
    g: Graph, spec: FamilySpec, w: StructureWitness
) -> Tuple[bool, List[str]]:
    """Check a structure witness against its family.

    Returns (ok, violations).  Every vertex lies in some role.  The family's
    verifier checks the roles' counts, lengths, path ends and named
    positions, and derives from them pieces that must partition V, the exact
    edge set, and, for the ladder types and spoke ladders, free end-to-
    backbone or spoke-to-path pairs that g may use.  Those g uses must give
    each end or spoke a neighbour on its backbone, in pairwise disjoint
    hulls.  Role names the family does not define are ignored, missing ones
    raise.
    """
    verifier = _family(spec)[1]
    for name, vs in w.role_map.items():
        for v in vs:
            if not (0 <= v < g.n):
                raise ValueError(f"role {name!r} references vertex {v} outside the graph")
    out: List[str] = []
    if mask_of(v for vs in w.role_map.values() for v in vs) != g.full_mask():
        out.append("every vertex lies in some role")
    design = verifier(g, spec, w, out)
    if design is not None:
        _ck_design(g, design, out)
    return (not out), out


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


def _spec_k(spec: FamilySpec) -> int:
    """spec.k, which a family that reads k but no path lengths needs."""
    _need(spec.k is not None, "%s needs k", spec.family)
    return spec.k


def _spec_bundle(spec: FamilySpec) -> Tuple[Graph, StructureWitness]:
    """k from spec.k, else the number of path lengths; a seeded spec (only
    a ladder type reads layout_seed) is sampled."""
    k = len(spec.path_lengths or ()) if spec.k is None else spec.k
    if spec.layout_seed is not None:
        rng = random.Random(spec.layout_seed)
        return sampled_ladder_instance(spec.family, k, rng, lengths=spec.path_lengths)
    return _bundle(spec.family, k, spec.path_lengths)


def _spec_feral(spec: FamilySpec, paw: bool) -> Tuple[Graph, StructureWitness]:
    _need(spec.c is not None, "%s needs c", spec.family)
    arm = 6 if spec.arm_length is None else spec.arm_length
    return paw_feral(spec.c, arm) if paw else claw_feral(spec.c, arm)


def _spec_subdivision(spec: FamilySpec) -> Tuple[Graph, StructureWitness]:
    _need(spec.base_graph is not None, "subdivision needs base_graph")
    return subdivide(spec.base_graph, _spec_k(spec))


# family -> (builder, verifier, the FamilySpec fields the builder reads); the
# key order is FAMILY_NAMES.  A ladder type's backbone layout can be seeded.
FAMILIES: Dict[str, Tuple[Callable, Callable, Tuple[str, ...]]] = {
    **{fam: (_spec_bundle, _v_bundle, ("k", "path_lengths", "layout_seed") if a_end == _PATH
             else ("k", "path_lengths")) for fam, (_, _, a_end, _) in BUNDLES.items()},
    "claw": (lambda s: claw(_spec_k(s)), partial(_v_copies, paw=False), ("k",)),
    "paw": (lambda s: paw(_spec_k(s)), partial(_v_copies, paw=True), ("k",)),
    "long_claw": (lambda s: _long(s.arm_length, False), partial(_v_long, paw=False), ("arm_length",)),
    "long_paw": (lambda s: _long(s.arm_length, True), partial(_v_long, paw=True), ("arm_length",)),
    "skinny_ladder": (lambda s: skinny_ladder(_spec_k(s)), partial(_v_spokes, skinny=True), ("k",)),
    "almost_skinny_ladder": (
        lambda s: almost_skinny_ladder(_spec_k(s), s.layout_seed), partial(_v_spokes, skinny=False),
        ("k", "layout_seed"),
    ),
    "twisted_ladder": (lambda s: twisted_ladder(_spec_k(s)), _v_twisted, ("k",)),
    "claw_feral": (partial(_spec_feral, paw=False), partial(_v_feral, paw=False), ("c", "arm_length")),
    "paw_feral": (partial(_spec_feral, paw=True), partial(_v_feral, paw=True), ("c", "arm_length")),
    "subdivision": (_spec_subdivision, _v_subdivision, ("k", "base_graph")),
}

FAMILY_NAMES = tuple(FAMILIES)


def _family(spec: FamilySpec) -> Tuple[Callable, Callable, Tuple[str, ...]]:
    """The (builder, verifier, fields read) entry of spec.family."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    return FAMILIES[spec.family]


def generate(spec: FamilySpec) -> Tuple[Graph, StructureWitness]:
    """Build spec's family instance.  Raises ValueError for an unknown family,
    or when spec sets a field the family does not read."""
    build, _, reads = _family(spec)
    unread = [f.name for f in fields(FamilySpec)[1:]
              if f.name not in reads and getattr(spec, f.name) != f.default]
    _need(not unread, "%s does not take %s", spec.family, ", ".join(unread))
    return build(spec)
