import random

from sepscope.corpus import erdos_renyi, nonisomorphic_graphs, random_connected_corpus

from oracles import canonical_form


def test_counts_match_the_classical_sequence():
    # graphs up to isomorphism: 1, 2, 4, 11, 34, 156, 1044, 12346
    counts = [len(nonisomorphic_graphs(n)) for n in range(1, 9)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_connected_counts():
    counts = [len(nonisomorphic_graphs(n, connected=True)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 6, 21, 112, 853, 11117]


def test_pairwise_distinct_up_to_isomorphism():
    for n in range(1, 7):
        forms = [canonical_form(g) for g in nonisomorphic_graphs(n)]
        assert len(forms) == len(set(forms))


def test_erdos_renyi_is_seed_deterministic():
    a = erdos_renyi(10, 0.4, random.Random(5))
    b = erdos_renyi(10, 0.4, random.Random(5))
    c = erdos_renyi(10, 0.4, random.Random(6))
    assert a == b
    assert a != c or a.m == c.m  # different seed almost surely differs


def test_random_connected_corpus():
    graphs = random_connected_corpus(25, seed=99, n_lo=4, n_hi=9)
    assert len(graphs) == 25
    assert all(g.is_connected() for g in graphs)
    assert all(4 <= g.n <= 9 for g in graphs)
    again = random_connected_corpus(25, seed=99, n_lo=4, n_hi=9)
    assert graphs == again
