import os
import random
import subprocess
import sys

import sepscope
from sepscope import corpus
from sepscope.corpus import erdos_renyi, nonisomorphic_graphs, random_connected_corpus
from sepscope.graphs import Graph, fingerprint

from oracles import canonical_form


def test_counts_match_the_classical_sequence():
    # graphs up to isomorphism: 1, 2, 4, 11, 34, 156, 1044, 12346
    counts = [len(nonisomorphic_graphs(n)) for n in range(1, 9)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_connected_counts():
    counts = [len(nonisomorphic_graphs(n, connected=True)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 6, 21, 112, 853, 11117]


def test_pairwise_distinct_up_to_isomorphism():
    for n in range(1, 8):
        forms = [canonical_form(g) for g in nonisomorphic_graphs(n)]
        assert len(forms) == len(set(forms))


def test_fingerprint_is_an_isomorphism_invariant():
    rng = random.Random(7)
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                assert fingerprint(h) == fingerprint(g)


def test_build_work_is_pinned(monkeypatch):
    # candidates built and isomorphism tests for a cold n <= 7 build; the
    # minimum-(degree, neighbour-degree sum) deletion rule sets both
    counts = {"candidates": 0, "iso": 0}
    graph, iso = corpus.Graph, corpus.are_isomorphic

    def counting_graph(*args):
        counts["candidates"] += 1
        return graph(*args)

    def counting_iso(g, h):
        counts["iso"] += 1
        return iso(g, h)

    monkeypatch.setattr(corpus, "_cache", {})
    monkeypatch.setattr(corpus, "Graph", counting_graph)
    monkeypatch.setattr(corpus, "are_isomorphic", counting_iso)
    assert len(corpus.nonisomorphic_graphs(7)) == 1044
    assert counts == {"candidates": 2398, "iso": 1146}


def test_corpus_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepscope.__file__)))
    script = (
        "from sepscope.corpus import nonisomorphic_graphs\n"
        "print([g.edges() for n in range(1, 7) for g in nonisomorphic_graphs(n)])\n"
    )
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outs.append(run.stdout)
    assert outs[0].startswith("[[], [], [(0, 1)], ")
    assert outs[0] == outs[1]


def test_erdos_renyi_is_seed_deterministic():
    a = erdos_renyi(10, 0.4, random.Random(5))
    b = erdos_renyi(10, 0.4, random.Random(5))
    c = erdos_renyi(10, 0.4, random.Random(6))
    assert a == b
    assert a != c or a.m == c.m  # different seed almost surely differs


def test_random_connected_corpus():
    graphs = random_connected_corpus(25, seed=99)
    assert len(graphs) == 25
    assert all(g.is_connected() for g in graphs)
    assert all(4 <= g.n <= 13 for g in graphs)
    again = random_connected_corpus(25, seed=99)
    assert graphs == again
