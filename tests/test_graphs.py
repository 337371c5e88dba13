import random

import pytest

from sepscope.graphs import (
    Graph,
    GraphError,
    are_isomorphic,
    canonical_form,
    components,
    contract_edge,
    contract_set,
    disjoint_union,
    dominates,
    format_edge_list,
    glue,
    induced_subgraph,
    is_anticomplete,
    neighborhood,
    parse_edge_list,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


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
    assert Graph(2).components_masks() == [1, 2]


def test_components():
    g = Graph(5, [(0, 1), (2, 3)])
    assert components(g) == [(0, 1), (2, 3), (4,)]
    assert components(g, within=(0, 2, 3)) == [(0,), (2, 3)]


def test_components_masks_split_within():
    assert not Graph(3, [(0, 1)]).is_connected_mask(0)
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.choice((0.1, 0.25, 0.4)), rng)
        within = rng.getrandbits(n)
        comps = g.components_masks(within)
        assert [c & -c for c in comps] == sorted(c & -c for c in comps)
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
    assert neighborhood(g, (2,)) == (1, 3)
    assert neighborhood(g, (2,), closed=True) == (1, 2, 3)
    assert neighborhood(g, (0, 1)) == (2,)


def test_anticomplete_and_dominates():
    g = path(6)
    assert is_anticomplete(g, (0,), (2, 3))
    assert not is_anticomplete(g, (0,), (1,))
    assert dominates(g, (1, 4), range(6))
    assert not dominates(g, (0,), (3,))
    # open domination: a vertex does not cover itself
    assert not dominates(g, (0,), (0,), closed=False)


def test_induced_subgraph_relabels():
    g = cycle(5)
    h, rel = induced_subgraph(g, (1, 2, 4))
    assert h.n == 3 and h.m == 1
    assert sorted(rel.mapping) == [1, 2, 4]
    assert rel.apply((1, 2)) == (0, 1)
    assert rel.get(0) is None


def test_contract_edge_c4_gives_triangle():
    g = cycle(4)
    h, c = contract_edge(g, 0, 1)
    assert h.n == 3 and h.m == 3
    assert c.merged == (0, 1)
    with pytest.raises(GraphError):
        contract_edge(g, 0, 2)


def test_contract_set_requires_connected():
    g = path(5)
    h, c = contract_set(g, (1, 2, 3))
    assert h.n == 3 and sorted(h.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(GraphError):
        contract_set(g, (0, 4))


def test_contract_path_chain():
    h, _ = contract_set(path(6), (2, 3))
    assert h.n == 5 and are_isomorphic(h, path(5))


def test_glue_shares_one_vertex():
    a = path(3)
    b = cycle(3)
    g, ra, rb = glue(a, 2, b, 0)
    assert g.n == a.n + b.n - 1
    assert g.m == a.m + b.m
    assert ra.get(2) == rb.get(0)


def test_disjoint_union():
    g, rels = disjoint_union([path(2), cycle(3)])
    assert g.n == 5 and g.m == 4
    assert rels[1].get(0) == 2


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
    assert not are_isomorphic(cycle(6), disjoint_union([cycle(3), cycle(3)])[0])


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
    g = cycle(6)
    h, _ = disjoint_union([cycle(3), cycle(3)])
    assert canonical_form(g) != canonical_form(h)
