import itertools
import random

import pytest

from sepscope.corpus import erdos_renyi, nonisomorphic_graphs
from sepscope.detectors import (
    ABSENT,
    FOUND,
    UNKNOWN,
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
from sepscope.families import almost_skinny_ladder, skinny_ladder, twisted_ladder
from sepscope.graphs import Graph, are_isomorphic, canonical_form, contract_edge, induced_subgraph


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
    assert max_creature_order(g, cap=5) == 4


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
        assert max_creature_order(g, cap=3) == min(brute_force_creature_order(g), 3), g.edges()


def test_creature_whose_a_holds_two_neighbours_of_x1():
    # Seeded G(11, p).  find_creature(g, 3) grows A = (6, 8) from x_1 = 1,
    # and both vertices lie in N(1), so A-growth must add a second anchor.
    g = Graph(11, [
        (0, 2), (0, 3), (0, 4), (0, 9), (1, 2), (1, 4), (1, 6), (1, 7), (1, 8), (1, 10),
        (3, 7), (3, 9), (4, 7), (4, 10), (5, 7), (5, 9), (6, 8), (6, 10), (7, 8), (7, 10),
        (9, 10),
    ])
    assert max_creature_order(g, cap=5) == brute_force_creature_order(g) == 3


def test_validate_creature_catches_corruption():
    g = path(4)
    w = find_creature(g, 1).witness
    from sepscope.detectors import CreatureWitness

    bad = CreatureWitness(w.a_side, w.a_side, w.x_row, w.y_row, 1)
    assert validate_creature(g, bad) != []


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


# induced minors

def test_minor_hand_cases():
    assert find_induced_minor(cycle(6), complete(3)).found
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert find_induced_minor(tree, cycle(3)).status == ABSENT
    assert find_induced_minor(cycle(6), cycle(4)).found


def test_minor_witness_validates():
    verdict = find_induced_minor(cycle(6), complete(3))
    assert validate_minor_witness(cycle(6), complete(3), verdict.witness) == []


def induced_minor_by_contraction(g, h):
    """Cross-check route: breadth-first vertex deletion and edge contraction,
    one layer per vertex count, deduplicated by canonical form."""
    layer = {canonical_form(g): g}
    for _ in range(g.n - h.n):
        nxt = {}
        for cur in layer.values():
            if cur.m < h.m:
                continue
            for v in range(cur.n):
                child, _ = induced_subgraph(cur, [u for u in range(cur.n) if u != v])
                nxt.setdefault(canonical_form(child), child)
            for u, v in cur.edges():
                child, _ = contract_edge(cur, u, v)
                nxt.setdefault(canonical_form(child), child)
        layer = nxt
    return any(are_isomorphic(cur, h) for cur in layer.values())


def test_minor_routes_agree_on_small_graphs():
    rng = random.Random(606)
    patterns = [complete(3), cycle(4), path(4), complete(4)]
    for _ in range(25):
        g = erdos_renyi(rng.randint(4, 7), 0.45, rng)
        for h in patterns:
            a = find_induced_minor(g, h)
            b = FOUND if induced_minor_by_contraction(g, h) else ABSENT
            assert a.status == b, (g.edges(), h.edges())


def test_minor_cap():
    with pytest.raises(ValueError):
        find_induced_minor(path(15), complete(3))


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
    # any sequence of (r-1)(s-1)+1 distinct values has the guaranteed run
    rng = random.Random(9)
    for _ in range(50):
        r, s = rng.randint(2, 5), rng.randint(2, 5)
        need = (r - 1) * (s - 1) + 1
        seq = rng.sample(range(100), need)
        idx, direction = monotone_subsequence(seq, r, s)
        picked = [seq[i] for i in idx]
        assert list(idx) == sorted(idx)
        if direction == "increasing":
            assert len(picked) >= r and picked == sorted(picked)
        else:
            assert len(picked) >= s and picked == sorted(picked, reverse=True)


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
