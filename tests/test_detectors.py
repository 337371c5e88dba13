import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from sepscope.corpus import erdos_renyi, nonisomorphic_graphs
import sepscope.detectors
from sepscope.detectors import (
    ABSENT,
    FOUND,
    UNKNOWN,
    CreatureWitness,
    MinorWitness,
    extract_skinny_ladder,
    find_creature,
    find_induced_minor,
    find_induced_subgraph,
    longest_induced_cycle_at_least,
    max_creature_order,
    monotone_subsequence,
    validate_creature,
    validate_minor_witness,
)
from sepscope.families import (
    almost_skinny_ladder,
    ladder_theta,
    prism,
    pyramid,
    skinny_ladder,
    theta,
    twisted_ladder,
)
from sepscope.graphs import Graph

from oracles import canonical_form, contract_edge, delete_vertex, induced_minor_unpruned


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# creatures

def test_p4_has_a_1_creature():
    verdict = find_creature(path(4), 1)
    assert verdict.found
    assert validate_creature(path(4), verdict.witness) == []


def test_small_graphs_have_no_2_creature():
    # a 2-creature needs at least 6 vertices
    for g in (cycle(5), complete(5), path(5)):
        assert find_creature(g, 2).status == ABSENT


def test_twisted_ladder_creatures():
    g, _ = twisted_ladder(2)
    v2 = find_creature(g, 2)
    assert v2.found and validate_creature(g, v2.witness) == []
    # the shipped construction does contain a 3-creature
    v3 = find_creature(g, 3)
    assert v3.found and validate_creature(g, v3.witness) == []


def test_twisted_ladder_max_creature_order_is_four():
    g, _ = twisted_ladder(2)
    assert max_creature_order(g, k_max=5) == 4


def test_find_creature_budget_gives_unknown():
    g, _ = twisted_ladder(2)
    verdict = find_creature(g, 3, budget=50)
    assert verdict.status == UNKNOWN
    assert verdict.witness is None


def test_twisted_ladder_5_creature_proof_node_accounting():
    g, _ = twisted_ladder(3)
    verdict = find_creature(g, 5)
    assert verdict.status == ABSENT and verdict.nodes_explored < 100_000
    nodes = verdict.nodes_explored
    assert find_creature(g, 5, budget=nodes).status == ABSENT
    assert find_creature(g, 5, budget=nodes - 1).status == UNKNOWN


# (status, nodes_explored, (A, B, X, Y) or None) for k = 1..5
CREATURE_PINS = {
    (twisted_ladder, 2): [
        (FOUND, 2, ((15,), (3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17), (0,), (1,))),
        (FOUND, 202, ((15,), (14,), (0, 9), (1, 8))),
        (FOUND, 788, ((7, 8, 9, 10, 11, 14), (3,), (1, 16, 12), (2, 4, 17))),
        (FOUND, 1037, ((2, 3), (10, 11), (1, 4, 15, 17), (14, 16, 9, 12))),
        (ABSENT, 2090, None),
    ],
    (twisted_ladder, 3): [
        (FOUND, 2, ((21,), (3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23,
                            24, 25), (0,), (1,))),
        (FOUND, 6577, ((21,), (20,), (0, 12), (1, 11))),
        (FOUND, 16724, ((10, 11, 12, 13, 14, 20), (3,), (1, 22, 15), (2, 4, 23))),
        (FOUND, 10365, ((2, 3), (13, 14), (1, 4, 21, 23), (20, 22, 12, 15))),
        (ABSENT, 22322, None),
    ],
    (skinny_ladder, 2): [
        (FOUND, 2, ((4,), (3, 5), (0,), (1,))),
        (FOUND, 3, ((4,), (5,), (0, 2), (1, 3))),
        (ABSENT, 0, None),
        (ABSENT, 0, None),
        (ABSENT, 0, None),
    ],
    (skinny_ladder, 3): [
        (FOUND, 2, ((6,), (2, 4, 5, 7, 8), (0,), (1,))),
        (FOUND, 5, ((6,), (2, 5, 8), (0, 3), (1, 4))),
        (ABSENT, 100, None),
        (ABSENT, 0, None),
        (ABSENT, 0, None),
    ],
    (skinny_ladder, 4): [
        (FOUND, 2, ((8,), (2, 3, 5, 6, 7, 9, 10, 11), (0,), (1,))),
        (FOUND, 18, ((4, 5, 6, 7, 8), (2,), (0, 11), (1, 3))),
        (ABSENT, 342, None),
        (ABSENT, 342, None),
        (ABSENT, 332, None),
    ],
}


def creature_row(g, k):
    v = find_creature(g, k)
    w = v.witness
    return v.status, v.nodes_explored, w and (w.a_side, w.b_side, w.x_row, w.y_row)


def test_creature_work_is_pinned():
    # verdicts, witnesses and budget counts: a pruning change must keep all three
    for (family, m), rows in CREATURE_PINS.items():
        g, _ = family(m)
        assert [creature_row(g, k) for k in range(1, 6)] == rows, (family.__name__, m)
    rng = random.Random(15)
    lines = []
    for _ in range(100):
        n = rng.randint(6, 12)
        g = erdos_renyi(n, rng.choice((0.2, 0.3, 0.4, 0.5)), rng)
        lines += [repr((n, sorted(g.edges()), k, creature_row(g, k))) for k in range(1, 6)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4d443d2af0bb207376f6454b0b7812f88a7dd1994a4ef3ae6a93c62da3cbebef"


def test_creature_row_pruning_floods_only_carried_dominators(monkeypatch):
    # each partial row floods only the components of its parent's dominating
    # regions that meet N(x_1) or N(y_1), and the B-region only while the
    # A-region is not empty; flooding all of both regions takes 110,527
    calls = []
    real = sepscope.detectors.flood

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sepscope.detectors, "flood", counted)
    g, _ = twisted_ladder(3)
    assert find_creature(g, 5).nodes_explored == 22322
    assert len(calls) == 22329


def test_too_few_vertices_cost_no_node():
    # a 3-creature needs 8 vertices; skinny_ladder(2) has 6
    g, _ = skinny_ladder(2)
    verdict = find_creature(g, 3)
    assert verdict.status == ABSENT and verdict.nodes_explored == 0


def brute_force_creature_order(g):
    """Largest k with a k-creature, from the definition and adjacency alone.

    Every pair of disjoint, connected, anti-complete sets (A, B) is tried.
    X can only use vertices with a neighbour in A and none in B, Y the
    reverse; the order is the largest induced matching between the two.
    """
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]

    def connected(s):
        start = next(iter(s))
        seen, todo = {start}, [start]
        while todo:
            for w in nbrs[todo.pop()] & s - seen:
                seen.add(w)
                todo.append(w)
        return seen == s

    def induced_matching(pairs, chosen=()):
        best = len(chosen)
        for i, (x, y) in enumerate(pairs):
            if all(y not in nbrs[a] and b not in nbrs[x] for a, b in chosen):
                rest = [(a, b) for a, b in pairs[i + 1:] if a != x and b != y]
                best = max(best, induced_matching(rest, chosen + ((x, y),)))
        return best

    subsets = [
        s
        for size in range(1, g.n + 1)
        for s in map(set, itertools.combinations(range(g.n), size))
        if connected(s)
    ]
    best = 0
    for a in subsets:
        na = set().union(*(nbrs[v] for v in a)) - a
        for b in subsets:
            nb = set().union(*(nbrs[v] for v in b)) - b
            if a & b or na & b:
                continue
            xs, ys = na - nb, nb - na
            pairs = [(x, y) for x in sorted(xs) for y in sorted(ys) if y in nbrs[x]]
            best = max(best, induced_matching(pairs))
    return best


def test_max_creature_order_matches_brute_force():
    rng = random.Random(2020)
    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    graphs += [erdos_renyi(7, rng.choice((0.3, 0.45, 0.6)), rng) for _ in range(30)]
    for g in graphs:
        assert max_creature_order(g, k_max=3) == min(brute_force_creature_order(g), 3), g.edges()


def test_creature_whose_a_holds_two_neighbours_of_x1():
    # Seeded G(11, p).  find_creature(g, 3) grows A = (6, 8) from x_1 = 1,
    # and both vertices lie in N(1), so A-growth must add a second anchor.
    g = Graph(11, [
        (0, 2), (0, 3), (0, 4), (0, 9), (1, 2), (1, 4), (1, 6), (1, 7), (1, 8), (1, 10),
        (3, 7), (3, 9), (4, 7), (4, 10), (5, 7), (5, 9), (6, 8), (6, 10), (7, 8), (7, 10),
        (9, 10),
    ])
    assert max_creature_order(g, k_max=5) == brute_force_creature_order(g) == 3


def test_validate_creature_catches_corruption():
    g = path(4)
    w = find_creature(g, 1).witness
    bad = CreatureWitness(w.a_side, w.a_side, w.x_row, w.y_row, 1)
    assert validate_creature(g, bad) != []


def test_validators_report_unreadable_witnesses_instead_of_raising():
    p4, k2 = path(4), complete(2)
    short_rows = CreatureWitness((0,), (3,), (1,), (2,), 2)
    assert validate_creature(p4, short_rows) == ["|X| = |Y| = order"]
    outside = CreatureWitness((0,), (9,), (1,), (-1,), 1)
    assert validate_creature(p4, outside) == ["A, B, X, Y inside V(G)"]
    for sets in (((0, (0,)), (1, (7,))), ((0, (0,)), (1, (-1,)))):
        assert validate_minor_witness(p4, k2, MinorWitness(sets)) == ["branch sets inside V(G)"]
    twice = MinorWitness(((0, (0,)), (1, (1,)), (1, (3,))))
    assert validate_minor_witness(p4, k2, twice) == ["branch sets must cover V(H) exactly"]


def _edited(g, add=(), drop=(), n=None):
    """g with the pairs in add joined and those in drop cut, on n vertices."""
    add, drop = ({(min(e), max(e)) for e in es} for es in (add, drop))
    return Graph(g.n if n is None else n, (set(g.edges()) | add) - drop)


# clause -> (graph, witness) breaking that clause alone of a valid creature
# witness (g, w); x_1, y_1 and y_2 are the rows' first entries
CREATURE_MUTANTS = {
    "A and B nonempty": lambda g, w: (g, replace(w, a_side=())),
    "G[A] and G[B] connected": lambda g, w: (_edited(g, n=g.n + 1), replace(w, a_side=w.a_side + (g.n,))),
    "A anti-complete with B": lambda g, w: (_edited(g, add=[(w.a_side[0], w.b_side[0])]), w),
    "x_1y_1 is an edge": lambda g, w: (_edited(g, drop=[(w.x_row[0], w.y_row[0])]), w),
    "x_1 has a neighbor in A": lambda g, w: (_edited(g, drop=[(w.x_row[0], a) for a in w.a_side]), w),
    "x_1 anti-complete with B": lambda g, w: (_edited(g, add=[(w.x_row[0], w.b_side[0])]), w),
    "y_1 has a neighbor in B": lambda g, w: (_edited(g, drop=[(w.y_row[0], b) for b in w.b_side]), w),
    "y_1 anti-complete with A": lambda g, w: (_edited(g, add=[(w.y_row[0], w.a_side[0])]), w),
    "x_i y_j edge only when i = j": lambda g, w: (_edited(g, add=[(w.x_row[0], w.y_row[1])]), w),
}


@pytest.mark.parametrize("clause", list(CREATURE_MUTANTS))
def test_validate_creature_names_the_one_broken_clause(clause):
    g, _ = twisted_ladder(2)
    w = find_creature(g, 4).witness
    assert validate_creature(g, w) == []
    assert validate_creature(*CREATURE_MUTANTS[clause](g, w)) == [clause]


def _k4_in_prism():
    """A K4 model in the triangular prism: each a_i alone, and the b-clique."""
    g, roles = prism((2, 2, 2))
    a = [roles.one(f"a_{i}") for i in (1, 2, 3)]
    b = tuple(sorted(roles.one(f"b_{i}") for i in (1, 2, 3)))
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    return g, k4, [(i, (v,)) for i, v in enumerate(a)] + [(3, b)]


def test_validate_minor_witness_names_the_one_broken_clause():
    g, k4, sets = _k4_in_prism()
    assert validate_minor_witness(g, k4, MinorWitness(tuple(sets))) == []
    k4_k1 = Graph(5, k4.edges())
    (a1,), (a2,) = sets[0][1], sets[1][1]
    rung = next(v for v in sets[3][1] if g.has_edge(a1, v))
    cases = {
        "branch set 4 empty": (g, k4_k1, sets + [(4, ())]),
        "branch sets pairwise disjoint": (g, k4, [(0, (a1, rung))] + sets[1:]),
        "branch set 4 not connected": (_edited(g, n=g.n + 2), k4_k1, sets + [(4, (g.n, g.n + 1))]),
        "H edge 01 has no G edge between branch sets": (_edited(g, drop=[(a1, a2)]), k4, sets),
        "H non-edge 01 has a G edge between branch sets": (g, _edited(k4, drop=[(0, 1)]), sets),
    }
    for clause, (host, h, bs) in cases.items():
        assert validate_minor_witness(host, h, MinorWitness(tuple(bs))) == [clause]


# induced subgraphs

def test_induced_subgraph_hand_cases():
    c5 = cycle(5)
    assert find_induced_subgraph(c5, path(3)).found
    assert find_induced_subgraph(c5, complete(3)).status == ABSENT
    assert find_induced_subgraph(c5, c5).found
    # P4 sits in C5 as an induced path
    assert find_induced_subgraph(c5, path(4)).found
    # but C4 does not
    assert find_induced_subgraph(c5, cycle(4)).status == ABSENT


def test_induced_subgraph_respects_nonedges():
    # K3 is a subgraph of K4 minus nothing; P3 induced needs a non-edge
    assert find_induced_subgraph(complete(4), path(3)).status == ABSENT


def test_induced_subgraph_disconnected_pattern():
    g = Graph(5, [(0, 1), (1, 2), (0, 2)])  # triangle + 2 isolated
    pattern = Graph(4, [(0, 1), (0, 2), (1, 2)])  # triangle + 1 isolated
    assert find_induced_subgraph(g, pattern).found


def test_induced_subgraph_witness_is_an_embedding():
    c6 = cycle(6)
    verdict = find_induced_subgraph(c6, path(4))
    image = verdict.witness
    assert len(set(image)) == 4
    for i in range(3):
        assert c6.has_edge(image[i], image[i + 1])
    assert not c6.has_edge(image[0], image[2])


def brute_force_induced_embedding(g, h):
    """First injective map of h into g that keeps edges and non-edges, or None."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    hedges = [(u, w, h.has_edge(u, w)) for u, w in itertools.combinations(range(h.n), 2)]
    for image in itertools.permutations(range(g.n), h.n):
        if all((image[w] in adj[image[u]]) == e for u, w, e in hedges):
            return image
    return None


def is_induced_embedding(g, h, image):
    return (
        len(image) == h.n
        and len(set(image)) == h.n
        and all(0 <= v < g.n for v in image)
        and all(
            g.has_edge(image[u], image[w]) == h.has_edge(u, w)
            for u, w in itertools.combinations(range(h.n), 2)
        )
    )


def test_induced_subgraph_matches_brute_force():
    rng = random.Random(7070)
    found = 0
    for _ in range(500):
        gn = rng.randint(1, 8)
        g = erdos_renyi(gn, rng.choice((0.2, 0.4, 0.6, 0.8)), rng)
        h = erdos_renyi(rng.randint(1, min(gn, 5)), rng.choice((0.3, 0.5, 0.7)), rng)
        verdict = find_induced_subgraph(g, h)
        expect = brute_force_induced_embedding(g, h)
        assert verdict.status == (ABSENT if expect is None else FOUND), (g.edges(), h.edges())
        if verdict.found:
            found += 1
            assert is_induced_embedding(g, h, verdict.witness), (g.edges(), h.edges())
    assert 100 < found < 400


# (host, pattern, status, witness, nodes_explored): any change of the
# placement order or of the candidate order moves a witness or a count here
PINNED_SUBGRAPH_SEARCHES = [
    (theta((4, 5, 6))[0], Graph(4, [(0, 1), (0, 2), (0, 3)]), FOUND, (0, 2, 4, 7), 4),
    (prism((3, 3, 3))[0], cycle(4), ABSENT, None, 63),
    (prism((3, 3, 3))[0], path(5), FOUND, (6, 0, 1, 7, 4), 5),
    (pyramid((3, 4, 5))[0], complete(3), FOUND, (1, 2, 3), 7),
    (ladder_theta(4)[0], cycle(5), ABSENT, None, 147),
    (twisted_ladder(2)[0], cycle(5), ABSENT, None, 252),
]


def test_induced_subgraph_pinned_node_counts():
    for host, pattern, status, witness, nodes in PINNED_SUBGRAPH_SEARCHES:
        verdict = find_induced_subgraph(host, pattern)
        assert (verdict.status, verdict.witness, verdict.nodes_explored) == (status, witness, nodes)


def test_induced_subgraph_budget_edge():
    g, _ = twisted_ladder(2)
    nodes = find_induced_subgraph(g, cycle(5)).nodes_explored
    assert find_induced_subgraph(g, cycle(5), budget=nodes).status == ABSENT
    edge = find_induced_subgraph(g, cycle(5), budget=nodes - 1)
    assert (edge.status, edge.witness, edge.nodes_explored) == (UNKNOWN, None, nodes)


# induced minors

def test_minor_hand_cases():
    assert find_induced_minor(cycle(6), complete(3)).found
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert find_induced_minor(tree, cycle(3)).status == ABSENT
    assert find_induced_minor(cycle(6), cycle(4)).found


def test_minor_witness_validates():
    verdict = find_induced_minor(cycle(6), complete(3))
    assert validate_minor_witness(cycle(6), complete(3), verdict.witness) == []


def induced_minors_by_contraction(g, n_min):
    """Cross-check route: the canonical forms of every induced minor of g on
    at least n_min vertices, by breadth-first vertex deletion and edge
    contraction, one layer per vertex count."""
    layer = {canonical_form(g): g}
    forms = set(layer)
    for _ in range(g.n - n_min):
        nxt = {}
        for cur in layer.values():
            for v in range(cur.n):
                child = delete_vertex(cur, v)
                nxt.setdefault(canonical_form(child), child)
            for u, v in cur.edges():
                child = contract_edge(cur, u, v)
                nxt.setdefault(canonical_form(child), child)
        layer = nxt
        forms.update(layer)
    return forms


def test_minor_routes_agree_on_small_graphs():
    # every pattern on 2-5 vertices: the 29 connected ones on 3-5 vertices,
    # the twin-heavy K5, K5 - e and K2,3 among them, and the disconnected
    # ones, whose isolated vertices are false twins; each host's induced
    # minors are listed once
    patterns = [h for n in (2, 3, 4, 5) for h in nonisomorphic_graphs(n)]
    assert len(patterns) == 51
    rng = random.Random(606)
    hosts = [twisted_ladder(1)[0], skinny_ladder(2)[0]]
    hosts += [erdos_renyi(rng.randint(4, 8), rng.choice((0.3, 0.45, 0.6)), rng) for _ in range(20)]
    found = 0
    for g in hosts:
        forms = induced_minors_by_contraction(g, 2)
        for h in patterns:
            verdict = find_induced_minor(g, h)
            expect = FOUND if canonical_form(h) in forms else ABSENT
            assert verdict.status == expect, (g.edges(), h.edges())
            if verdict.found:
                found += 1
                assert validate_minor_witness(g, h, verdict.witness) == []
    assert found == 361


# the eight patterns absent as induced minors of twisted_ladder(1), with the
# nodes each proof takes: K4, and seven dense 5-vertex graphs up to K5
ABSENT_MINOR_PROOFS = [
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2562),
    (5, [(0, 2), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)], 3261),
    (5, [(0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)], 2351),
    (5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)], 4597),
    (5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 1299),
    (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)], 3414),
    (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 1165),
    (5, [(u, v) for u in range(5) for v in range(u + 1, 5)], 1161),
]


def test_absent_minor_proofs_on_twisted_ladder_1_are_pinned():
    g, _ = twisted_ladder(1)
    for n, edges, nodes in ABSENT_MINOR_PROOFS:
        verdict = find_induced_minor(g, Graph(n, edges))
        assert (verdict.status, verdict.nodes_explored) == (ABSENT, nodes), edges


def test_minor_budget_edge_on_a_twin_pattern():
    # each of the eight patterns has twins (every vertex of K4 and K5 is a
    # twin of every other); its pinned proof fits its own node count exactly
    g, _ = twisted_ladder(1)
    for n, edges, nodes in ABSENT_MINOR_PROOFS:
        h = Graph(n, edges)
        assert find_induced_minor(g, h, budget=nodes).status == ABSENT, edges
        edge = find_induced_minor(g, h, budget=nodes - 1)
        assert (edge.status, edge.witness, edge.nodes_explored) == (UNKNOWN, None, nodes), edges


def random_minor_pattern(rng):
    """A pattern on 1-6 vertices: a G(n, p), a blow-up of a graph on 1-3
    vertices into classes of true or false twins, or the disjoint union of
    two graphs on 1-3 vertices."""
    kind = rng.randrange(3)
    if kind == 0:
        return erdos_renyi(rng.randint(1, 6), rng.choice((0.3, 0.5, 0.8)), rng)
    if kind == 1:
        base = erdos_renyi(rng.randint(1, 3), 0.6, rng)
        classes, n = [], 0
        for _ in range(base.n):
            size = rng.randint(1, 6 // base.n)
            classes.append((range(n, n + size), rng.random() < 0.5))
            n += size
        edges = [(u, v) for c, true_twins in classes if true_twins
                 for u, v in itertools.combinations(c, 2)]
        edges += [(u, v) for i, j in base.edges() for u in classes[i][0] for v in classes[j][0]]
        return Graph(n, edges)
    a = erdos_renyi(rng.randint(1, 3), 0.6, rng)
    b = erdos_renyi(rng.randint(1, 3), 0.6, rng)
    return Graph(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()])


def test_minor_count_prune_keeps_every_verdict_and_witness():
    # the free-neighbour count prune only cuts subtrees without a model, in
    # the same depth-first order: every pair the unpruned search decides
    # within the budget gets the same status and branch sets, in no more
    # nodes; a prune that asks for one vertex too many, or that also keeps
    # the next-to-B_j vertices out for placed h-neighbours j, fails this
    rng = random.Random(29)
    budget = 10_000
    tally = {FOUND: 0, ABSENT: 0, UNKNOWN: 0}
    saved = 0
    for _ in range(1000):
        g = erdos_renyi(rng.randint(3, 11), rng.choice((0.25, 0.4, 0.55, 0.7)), rng)
        h = random_minor_pattern(rng)
        ref = induced_minor_unpruned(g, h, budget=budget)
        tally[ref.status] += 1
        if ref.status == UNKNOWN:
            continue
        got = find_induced_minor(g, h, budget=budget)
        assert (got.status, got.witness) == (ref.status, ref.witness), (g.edges(), h.edges())
        assert got.nodes_explored <= ref.nodes_explored, (g.edges(), h.edges())
        saved += ref.nodes_explored - got.nodes_explored
    assert tally == {FOUND: 540, ABSENT: 396, UNKNOWN: 64}
    assert saved > 0


def test_minor_cap():
    # no vertex cap: the node budget alone bounds the search
    assert find_induced_minor(path(15), complete(3)).status == ABSENT


# long induced cycles

def test_cycle_detection():
    assert longest_induced_cycle_at_least(cycle(7), 7).found
    assert longest_induced_cycle_at_least(cycle(7), 8).status == ABSENT
    assert longest_induced_cycle_at_least(path(9), 3).status == ABSENT
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    # the chord kills the 5-cycle; best induced cycle is the 4-cycle 0-2-3-4
    assert longest_induced_cycle_at_least(g, 4).found
    assert longest_induced_cycle_at_least(g, 5).status == ABSENT


def test_cycle_witness_is_induced():
    verdict = longest_induced_cycle_at_least(cycle(8), 8)
    w = list(verdict.witness)
    assert len(w) == 8


# Erdos-Szekeres style extraction

def test_monotone_subsequence_frozen_example():
    seq = (5, 1, 4, 2, 8, 0, 9, 3)
    idx, direction = monotone_subsequence(seq)
    # longest increasing run is 1,4,8,9 (or 1,2,8,9); ties prefer increasing
    assert direction == "increasing"
    picked = [seq[i] for i in idx]
    assert len(picked) == 4 and picked == sorted(picked)


def test_monotone_subsequence_guarantee():
    # Erdos-Szekeres: any (r-1)^2+1 distinct values hold a monotone run of r
    rng = random.Random(9)
    for _ in range(50):
        r = rng.randint(2, 6)
        seq = rng.sample(range(100), (r - 1) ** 2 + 1)
        idx, direction = monotone_subsequence(seq)
        picked = [seq[i] for i in idx]
        assert list(idx) == sorted(idx) and len(picked) >= r
        assert picked == sorted(picked, reverse=direction == "decreasing")


# skinny ladder extraction

def test_extraction_from_canonical_instance():
    g, w = almost_skinny_ladder(4, layout_seed=None)
    target, _ = skinny_ladder(2)
    witness = extract_skinny_ladder(g, w, 2)
    assert validate_minor_witness(g, target, witness) == []


def test_extraction_from_randomized_layouts():
    target, _ = skinny_ladder(2)
    for seed in range(8):
        g, w = almost_skinny_ladder(4, layout_seed=seed)
        witness = extract_skinny_ladder(g, w, 2)
        assert validate_minor_witness(g, target, witness) == []
