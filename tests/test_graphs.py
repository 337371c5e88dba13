import itertools
import random

import pytest

from sepscope.graphs import (
    Graph,
    GraphError,
    are_isomorphic,
    connected_sets,
    degree_two_runs,
    flood,
    format_edge_list,
    mask_of,
    parse_edge_list,
    set_of,
)

from oracles import canonical_form


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


TWO_TRIANGLES = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.neighbors(0) == (1, 3)
    assert g.degree(2) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.is_connected()


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(-1)


def test_empty_and_single_vertex():
    assert not Graph(0).is_connected()
    assert Graph(1).is_connected()
    assert not Graph(2).is_connected()


def test_components_masks_split_within():
    assert not Graph(3, [(0, 1)]).is_connected_mask(0)
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.choice((0.1, 0.25, 0.4)), rng)
        within = rng.getrandbits(n)
        comps = []
        rest = within
        while rest:
            c, reach = flood(g._nbr, rest & -rest, rest)
            assert_reach_is_the_or_of_nbr(g, [(c, reach)])
            comps.append(c)
            rest &= ~c
        union = 0
        for c in comps:
            assert c and not c & union
            union |= c
            assert g.nbhd_mask(c) & within == 0
            # connected, checked by growing one vertex at a time
            grown = c & -c
            while grown != c:
                step = g.nbhd_mask(grown) & c
                assert step, (g.edges(), within, c)
                grown |= step & -step
        assert union == within
        assert g.is_connected_mask(within) == (len(comps) == 1)


def test_neighborhood_open_and_closed():
    g = path(5)
    assert set_of(g.nbhd_mask(mask_of((2,)))) == (1, 3)
    assert set_of(g.nbhd_mask(mask_of((2,))) | mask_of((2,))) == (1, 2, 3)
    assert set_of(g.nbhd_mask(mask_of((0, 1)))) == (2,)


def test_anticomplete_and_dominates():
    # A anticomplete to B: disjoint and N(A) misses B; X dominates Y: Y inside N[X]
    g = path(6)
    assert not g.nbhd_mask(mask_of((0,))) & mask_of((2, 3))
    assert g.nbhd_mask(mask_of((0,))) & mask_of((1,))
    x = mask_of((1, 4))
    assert g.nbhd_mask(x) | x == g.full_mask()
    assert not (g.nbhd_mask(1) | 1) >> 3 & 1
    # open domination: a vertex does not cover itself
    assert not g.nbhd_mask(mask_of((0,))) & 1


def connected_subsets_by_brute_force(g, allowed, anchors):
    return sorted(
        m for m in range(1, 1 << g.n)
        if m & ~allowed == 0 and m & anchors and g.is_connected_mask(m)
    )


def assert_reach_is_the_or_of_nbr(g, pairs):
    for s, reach in pairs:
        want = 0
        for v in set_of(s):
            want |= g.nbr_mask(v)
        assert reach == want, (g.edges(), s)


def test_connected_sets_yields_each_anchored_set_once():
    rng = random.Random(33)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6)), rng)
        allowed = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        anchors = rng.getrandbits(g.n)
        # a search that repeats sets must not run away; 2^n sets are more than enough
        got = list(itertools.islice(connected_sets(g._nbr, allowed, anchors), 1 << g.n))
        assert_reach_is_the_or_of_nbr(g, got)
        want = connected_subsets_by_brute_force(g, allowed, anchors)
        assert sorted(s for s, _ in got) == want, g.edges()


def test_connected_sets_stop_keeps_every_minimal_stopping_set():
    # a stopping set is never grown, yet every inclusion-minimal one is
    # reached: each set on its growth path is a proper subset, so not stopping
    rng = random.Random(34)
    for _ in range(60):
        g = random_graph(rng.randint(2, 8), rng.choice((0.3, 0.5)), rng)
        targets = [rng.getrandbits(g.n) | 1 << rng.randrange(g.n) for _ in range(2)]

        def stop(m):
            return all(t & m for t in targets)

        full = g.full_mask()
        pairs = list(itertools.islice(connected_sets(g._nbr, full, targets[0], stop), 1 << g.n))
        assert_reach_is_the_or_of_nbr(g, pairs)
        got = [s for s, _ in pairs]
        assert len(got) == len(set(got))
        every = connected_subsets_by_brute_force(g, full, targets[0])
        assert set(got) <= set(every)
        stopping = [m for m in every if stop(m)]
        minimal = [m for m in stopping if not any(o != m and o & ~m == 0 for o in stopping)]
        assert set(minimal) <= set(got)


def test_degree_two_runs_walk_from_the_lowest_anchor():
    # a hub loop 3-4-5 on vertex 0, a path 8-7 from 0 to the leaf 6, and a
    # triangle 9-10-11 that is a run of its own
    g = Graph(12, [(0, 1), (0, 3), (3, 4), (4, 5), (0, 5), (0, 8), (7, 8), (6, 7),
                   (9, 10), (10, 11), (9, 11)])
    assert degree_two_runs(g._nbr) == [([3, 4, 5], 0, 0), ([8, 7], 0, 6), ([9, 10, 11], None, None)]
    assert degree_two_runs(Graph(4, [(0, 1), (1, 2), (2, 3)])._nbr) == [([1, 2], 0, 3)]
    assert degree_two_runs(Graph(5, [(4, 1), (1, 2), (2, 3)])._nbr) == [([2, 1], 3, 4)]


def test_edge_list_round_trip():
    rng = random.Random(4821)
    for _ in range(30):
        g = random_graph(rng.randint(0, 9), rng.choice((0.2, 0.5, 0.8)), rng)
        again = parse_edge_list(format_edge_list(g))
        assert again == g


def test_parse_edge_list_rejects_garbage():
    with pytest.raises((GraphError, ValueError)):
        parse_edge_list("not a graph")
    with pytest.raises((GraphError, ValueError)):
        parse_edge_list("2 1\n0 5\n")


def test_isomorphism_positive_and_negative():
    assert are_isomorphic(cycle(5), cycle(5))
    assert not are_isomorphic(cycle(5), path(5))
    assert not are_isomorphic(cycle(6), TWO_TRIANGLES)


def test_isomorphism_under_random_relabeling():
    rng = random.Random(911)
    for _ in range(25):
        g = random_graph(rng.randint(1, 8), 0.4, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert are_isomorphic(g, h)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_same_degree_sequence():
    # C6 and 2*C3 share the degree sequence yet differ
    assert canonical_form(cycle(6)) != canonical_form(TWO_TRIANGLES)
