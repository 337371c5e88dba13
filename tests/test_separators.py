import random

import pytest

from sepscope.corpus import erdos_renyi, nonisomorphic_graphs
from sepscope.cli import result_doc
from sepscope.graphs import Graph
from sepscope.separators import (
    CapExceeded,
    close_separator,
    domination_number,
    enumerate_branching,
    enumerate_closure,
    enumerate_oracle,
    full_components,
    is_minimal_separator,
    make_separator_record,
    minimal_uv_separators,
    separator_leq,
    shattered_set_max,
    trace_family,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# hand-checked values on the usual suspects

def test_oracle_path():
    assert enumerate_oracle(path(4)) == [(1,), (2,)]


def test_oracle_cycle_five():
    # every non-adjacent pair, and nothing else
    assert enumerate_oracle(cycle(5)) == [
        (0, 2), (0, 3), (1, 3), (1, 4), (2, 4),
    ]


def test_oracle_complete_and_star():
    assert enumerate_oracle(complete(4)) == []
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert enumerate_oracle(star) == [(0,)]


def test_oracle_disconnected_has_no_empty_separator():
    g = Graph(4, [(0, 1), (2, 3)])
    assert enumerate_oracle(g) == []


def test_oracle_cap():
    with pytest.raises(CapExceeded):
        enumerate_oracle(path(20), cap=16)


def test_is_minimal_separator():
    g = cycle(5)
    assert is_minimal_separator(g, (0, 2))
    assert not is_minimal_separator(g, (0, 1))
    assert not is_minimal_separator(g, (0, 2, 3))
    assert not is_minimal_separator(g, ())


def test_full_components():
    g = cycle(6)
    fulls = full_components(g, (0, 3))
    assert sorted(fulls) == [(1, 2), (4, 5)]


def test_closure_matches_oracle_on_random_graphs():
    rng = random.Random(20240501)
    for _ in range(120):
        g = erdos_renyi(rng.randint(2, 11), rng.choice((0.2, 0.4, 0.6)), rng)
        assert enumerate_closure(g) == enumerate_oracle(g)


def test_closure_matches_oracle_exhaustively_n6():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            assert enumerate_closure(g) == enumerate_oracle(g)


def test_closure_matches_oracle_on_disconnected_graphs_n7():
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n) if not g.is_connected()]
    assert len(graphs) == 256
    for g in graphs:
        assert enumerate_closure(g) == enumerate_oracle(g), g.edges()


def test_branching_filters_to_oracle():
    rng = random.Random(77)
    for _ in range(40):
        g = erdos_renyi(rng.randint(3, 9), 0.4, rng)
        want = enumerate_oracle(g)
        kdom = 1
        for s in want:
            size, _ = domination_number(g, s, range(g.n))
            kdom = max(kdom, size)
        res = enumerate_branching(g, kdom)
        assert res.complete
        assert sorted(res.filtered) == want
        # raw is a superset: branching may return non-minimal separators
        assert set(res.filtered) <= set(res.raw)


def test_branching_small_k_is_still_sound():
    g = cycle(6)
    res = enumerate_branching(g, 1)
    assert set(res.filtered) <= set(enumerate_oracle(g))


def test_close_separator_on_cycle():
    g = cycle(6)
    rec = close_separator(g, 0, 3)
    assert rec.separator == (2, 4)
    assert set(rec.separator) <= set(g.neighbors(3))


def test_close_separator_rejects_bad_pairs():
    g = path(4)
    with pytest.raises(ValueError):
        close_separator(g, 1, 1)
    with pytest.raises(ValueError):
        close_separator(g, 0, 1)
    h = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        close_separator(h, 0, 2)


def test_close_separator_is_leq_maximal():
    rng = random.Random(31337)
    tried = 0
    while tried < 60:
        g = erdos_renyi(rng.randint(4, 9), 0.35, rng)
        if not g.is_connected():
            continue
        seps = enumerate_oracle(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                tried += 1
                rec = close_separator(g, u, v)
                for t in minimal_uv_separators(g, u, v, seps):
                    assert separator_leq(g, t, rec.separator, u, v)


def test_separator_leq_is_reflexive_and_ordered():
    g = cycle(6)
    a = (1, 5)
    b = (2, 4)
    assert separator_leq(g, a, a, 0, 3)
    assert separator_leq(g, a, b, 0, 3)  # b is closer to 3
    assert not separator_leq(g, b, a, 0, 3)


def test_domination_number_on_path():
    g = path(6)
    size, hitters = domination_number(g, (0, 1, 2, 3, 4, 5), range(6))
    assert size == 2
    assert set(hitters) and len(hitters) == 2


def test_make_separator_record_validates():
    g = cycle(5)
    rec = make_separator_record(g, (0, 2))
    assert rec.separator == (0, 2)
    assert len(rec.full_component_list) >= 2
    with pytest.raises(ValueError):
        make_separator_record(g, (0, 1))


def test_trace_family_and_shattering():
    g = cycle(6)
    seps = enumerate_oracle(g)
    tf = trace_family(g, 0, separators=seps)
    # traces live inside N[0]
    for tr in tf.traces:
        assert set(tr) <= {0, 1, 5}
    res = shattered_set_max(tf.traces)
    assert res.dimension <= 2


def test_shattered_set_max_hand_case():
    traces = [(), (0,), (1,), (0, 1)]
    res = shattered_set_max(traces)
    assert res.dimension == 2
    assert res.witness == (0, 1)
    assert shattered_set_max([(), (5,)]).dimension == 1


def test_result_doc_shape():
    g = cycle(5)
    seps = enumerate_oracle(g)
    doc = result_doc(g, "oracle", seps, 12, True)
    assert doc["n"] == 5 and doc["count"] == 5
    assert doc["algorithm"] == "oracle"
    assert doc["separators"] == [list(s) for s in seps]
    assert doc["complete"] is True
