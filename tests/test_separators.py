import hashlib
import itertools
import random

import pytest

from sepscope.corpus import erdos_renyi, nonisomorphic_graphs
from sepscope.cli import result_doc
from sepscope import separators
from sepscope.families import claw_feral, feral_choice_separators, paw_feral, twisted_ladder
from sepscope.graphs import BudgetExhausted, Graph, bits, degree_two_runs, mask_of
from sepscope.separators import (
    _closure_masks,
    _min_sep_masks_in,
    close_separator,
    domination_number,
    enumerate_branching,
    enumerate_closure,
    enumerate_oracle,
    is_minimal_separator,
    minimal_uv_separators,
    separator_leq,
    shattered_set_max,
    trace_family,
)

from oracles import branching_by_result_sets, components, min_sep_masks_by_subsets


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
    # the budget counts the 210 subpaths visited, not the 2^20 - 1 subsets
    assert len(enumerate_oracle(path(20), budget=210)) == 18
    with pytest.raises(BudgetExhausted):
        enumerate_oracle(path(20), budget=209)


def test_oracle_matches_subsets_on_every_class_n7():
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    assert len(graphs) == 1252
    for g in graphs:
        assert _min_sep_masks_in(g._nbr, g.full_mask()) == set(
            min_sep_masks_by_subsets(g._nbr, g.full_mask())
        ), g.edges()


def test_oracle_matches_subsets_inside_vertex_subsets():
    rng = random.Random(1919)
    disconnected = 0
    for _ in range(300):
        n = rng.randint(5, 12)
        g = erdos_renyi(n, rng.choice((0.2, 0.35, 0.5, 0.7)), rng)
        w = sum(1 << v for v in range(n) if rng.random() < 0.8) or g.full_mask()
        disconnected += len(components(g, bits(w))) > 1
        assert _min_sep_masks_in(g._nbr, w) == set(min_sep_masks_by_subsets(g._nbr, w)), (
            g.edges(), w,
        )
    assert disconnected > 50, disconnected
    for n in range(12, 15):
        for p in (0.2, 0.3, 0.5):
            g = erdos_renyi(n, p, rng)
            full = g.full_mask()
            assert _min_sep_masks_in(g._nbr, full) == set(min_sep_masks_by_subsets(g._nbr, full))


def test_oracle_work_is_pinned(monkeypatch):
    # connected sets visited: C8 has 8 * 7 arcs plus the whole cycle, a path
    # on 20 vertices 20 * 21 / 2 subpaths; no vertex subset is flooded
    visited = 0
    real = separators.connected_sets

    def counting_connected_sets(*args):
        nonlocal visited
        for item in real(*args):
            visited += 1
            yield item

    monkeypatch.setattr(separators, "connected_sets", counting_connected_sets)
    monkeypatch.setattr(separators, "flood", None)
    assert len(enumerate_oracle(cycle(8))) == 20
    assert visited == 57
    visited = 0
    assert enumerate_oracle(path(20)) == [(v,) for v in range(1, 19)]
    assert visited == 210


def test_is_minimal_separator():
    g = cycle(5)
    assert is_minimal_separator(g, (0, 2))
    assert not is_minimal_separator(g, (0, 1))
    assert not is_minimal_separator(g, (0, 2, 3))
    assert not is_minimal_separator(g, ())


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


def test_closure_matches_oracle_inside_proper_vertex_subsets():
    # branching takes its traces from the closure on G[W] with W != V
    rng = random.Random(606)
    disconnected = edges = 0  # W with G[W] disconnected; those with a separator
    for _ in range(300):
        n = rng.randint(5, 9)
        g = erdos_renyi(n, rng.choice((0.3, 0.5, 0.7)), rng)
        w = g.full_mask()
        while w == g.full_mask():
            w = sum(1 << v for v in range(n) if rng.random() < 0.75)
        want = set(min_sep_masks_by_subsets(g._nbr, w))
        assert _closure_masks(g._nbr, w, 1 << n) == want, (g.edges(), w)
        split = len(components(g, bits(w))) > 1
        disconnected += split
        if want:
            # the budget edge: exactly len(want) separators fit
            assert _closure_masks(g._nbr, w, len(want)) == want, (g.edges(), w)
            with pytest.raises(BudgetExhausted):
                _closure_masks(g._nbr, w, len(want) - 1)
            edges += split
    assert disconnected > 100 and edges > 50, (disconnected, edges)


def sparse_graph(rng, n):
    """A random tree on n vertices plus 0-3 chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 3)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


def test_closure_matches_oracle_on_sparse_graphs_and_subsets():
    # near-trees, where a component of G[W] - S often survives removing N(x)
    # whole or in one piece, and G[W] is often disconnected; count those
    # cases to show they occur
    rng = random.Random(1207)
    unsplit = missed = disconnected = 0
    for _ in range(60):
        n = rng.randint(8, 14)
        g = sparse_graph(rng, n)
        subsets = [g.full_mask()]
        while len(subsets) < 4:
            w = sum(1 << v for v in range(n) if rng.random() < 0.7)
            if w and w != g.full_mask():
                subsets.append(w)
        for w in subsets:
            want = set(min_sep_masks_by_subsets(g._nbr, w))
            assert _closure_masks(g._nbr, w, 1 << n) == want, (g.edges(), w)
            wverts = [v for v in range(n) if w >> v & 1]
            disconnected += len(components(g, wverts)) > 1
            for s in want:
                for d in components(g, [v for v in wverts if not s >> v & 1]):
                    for x in (v for v in range(n) if s >> v & 1):
                        rest = [v for v in d if not g._nbr[x] >> v & 1]
                        if len(rest) == len(d):
                            missed += 1
                        elif rest and len(components(g, rest)) == 1:
                            unsplit += 1
    assert disconnected > 100 and missed > 800 and unsplit > 1000, (disconnected, missed, unsplit)


def graph_with_runs(rng, kind):
    """A random graph on 1-6 vertices plus one to three runs of 1-7 new
    degree-2 vertices: subdivided edges, pendant paths, disjoint cycles, hub
    loops (both ends on one vertex) or paths beside an edge (between two
    adjacent vertices); at most 17 vertices in all."""
    g = erdos_renyi(rng.randint(1, 6), rng.choice((0.3, 0.5, 0.8)), rng)
    n, edges = g.n, set(g.edges())
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(2 if kind == "hub" else 1, 7) + 2 * (kind == "cycle")
        if n + length > 17:
            break
        new = list(range(n, n + length))
        chain = set(zip(new, new[1:]))
        if kind == "cycle":
            chain.add((new[0], new[-1]))
        elif kind == "pendant":
            chain.add((rng.randrange(n), new[0]))
        elif kind == "hub":
            u = rng.randrange(n)
            chain |= {(u, new[0]), (u, new[-1])}
        elif edges:
            u, v = rng.choice(sorted(edges))
            if kind == "subdivide":
                edges.discard((u, v))
            chain |= {(u, new[0]), (v, new[-1])}
        else:
            continue
        edges |= chain
        n += length
    return Graph(n, sorted(edges))


def test_closure_cuts_long_degree_two_runs():
    # the closure runs on G with each run of four or more degree-2 vertices
    # cut to three, then slides each separator's run vertex back along the
    # run; the budget counts the separators of G
    rng = random.Random(2611)
    long_runs = disconnected = 0
    for kind in ("subdivide", "pendant", "cycle", "hub", "beside"):
        for _ in range(150):
            g = graph_with_runs(rng, kind)
            long_runs += any(len(run) >= 4 and a is not None for run, a, _ in degree_two_runs(g._nbr))
            disconnected += not g.is_connected()
            want = enumerate_oracle(g)
            assert enumerate_closure(g) == want, (kind, g.edges())
            if want:
                with pytest.raises(BudgetExhausted):
                    enumerate_closure(g, budget=len(want) - 1)
    assert long_runs > 300 and disconnected > 100, (long_runs, disconnected)
    g, _ = paw_feral(1, 6)
    assert len(enumerate_closure(g, budget=264)) == 264
    with pytest.raises(BudgetExhausted):
        enumerate_closure(g, budget=263)


def test_feral_closures_are_pinned():
    # values of the flood-per-(S, x) closure, which is the one that ships
    g, w = claw_feral(2, 6)
    seps = enumerate_closure(g)
    assert len(seps) == 19047
    assert set(feral_choice_separators(2, w)) <= set(seps)
    assert len(set(feral_choice_separators(2, w))) == 16
    assert hashlib.sha256(repr(seps).encode()).hexdigest() == (
        "9231505e298449924ec6d14eb1fc13b225912692b8c2bb291b11e006b472f27b"
    )
    assert len(enumerate_closure(claw_feral(1, 6)[0])) == 219
    assert len(enumerate_closure(paw_feral(1, 6)[0])) == 264


def test_closure_work_is_pinned(monkeypatch):
    # flood calls for the closure of claw_feral(2, 6), whose ten runs of
    # 4-10 degree-2 vertices are cut to three each (92 vertices to 38).  The
    # plain closure floods all of G - (S + N(x)) for every separator S and x
    # in S: 144,762 calls on the uncut graph, 3,718 on the cut one.  An
    # engine that kept each separator's components and flooded only pieces
    # next to N(x) made 32,175 uncut and 1,406 cut, but at 38 vertices each
    # flood is cheap, and the plain closure takes about as long (39 against
    # 35 ms on 2 cores) with no components stored
    calls = 0
    real = separators.flood

    def counting_flood(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(separators, "flood", counting_flood)
    assert len(enumerate_closure(claw_feral(2, 6)[0])) == 19047
    assert calls == 3718


def test_closure_budget_on_a_feral_graph():
    g, _ = claw_feral(1, 6)
    assert len(enumerate_closure(g, budget=219)) == 219
    with pytest.raises(BudgetExhausted):
        enumerate_closure(g, budget=218)


def test_branching_work_over_the_classes_is_pinned():
    # criterion 2's recipe on every connected class with n <= 7
    classes = [g for n in range(1, 8) for g in nonisomorphic_graphs(n, connected=True)]
    assert len(classes) == 996
    nodes = states = 0
    for g in classes:
        want = enumerate_oracle(g)
        k = max([1] + [domination_number(g, s, range(g.n))[0] for s in want])
        res = enumerate_branching(g, k)
        assert res.complete and list(res.filtered) == want, g.edges()
        nodes += res.nodes
        states += res.states
    assert (nodes, states) == (40030, 40030)


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


def test_branching_collects_what_result_sets_return():
    # the collected candidates, node and state counts and completeness equal
    # the set-propagating recursion's, complete or cut off by a budget
    cases = [(g, k, b)
             for n in range(1, 7) for g in nonisomorphic_graphs(n, connected=True)
             for k in (1, 2, 3) for b in (1, 3, 7, 12, 20, 30, 2_000_000)]
    rng = random.Random(18)
    for _ in range(150):
        g = erdos_renyi(rng.randint(6, 10), 0.35, rng)
        cases.append((g, rng.randint(1, 3), rng.choice([rng.randint(1, 200), 2_000_000])))
    cases.append((twisted_ladder(2)[0], 3, 5000))
    for g, k, budget in cases:
        got = enumerate_branching(g, k, budget=budget)
        assert got == branching_by_result_sets(g, k, budget=budget), (g.edges(), k, budget)


def test_branching_small_k_is_still_sound():
    g = cycle(6)
    res = enumerate_branching(g, 1)
    assert set(res.filtered) <= set(enumerate_oracle(g))


def test_budgets_of_the_separator_routes():
    g = cycle(8)  # 20 minimal separators, the non-adjacent pairs
    assert len(enumerate_oracle(g, budget=57)) == 20
    with pytest.raises(BudgetExhausted):
        enumerate_oracle(g, budget=56)
    assert len(enumerate_closure(g, budget=20)) == 20
    with pytest.raises(BudgetExhausted):
        enumerate_closure(g, budget=19)
    assert enumerate_branching(g, 2, budget=632).complete
    assert not enumerate_branching(g, 2, budget=631).complete
    # the first trace closure runs out before the node budget does
    res = enumerate_branching(g, 2, budget=19)
    assert not res.complete and res.nodes == 1
    with pytest.raises(BudgetExhausted):
        domination_number(g, range(8), range(8), budget=0)


def test_close_separator_on_cycle():
    g = cycle(6)
    s = close_separator(g, 0, 3)
    assert s == (2, 4)
    assert set(s) <= set(g.neighbors(3))


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
                s = close_separator(g, u, v)
                for t in minimal_uv_separators(g, u, v, seps):
                    assert separator_leq(g, t, s, u, v)


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


def test_domination_number_jumps_to_a_packing_bound():
    # the ten spokes a1_i, b1_i of twisted_ladder(5) have pairwise disjoint
    # dominator sets, so after |X| = 1 the search goes straight to the
    # answer in 16 nodes; deepening one size at a time needs 466,041
    g, w = twisted_ladder(5)
    assert domination_number(g, w.role_map["S"], range(g.n), budget=20) == (
        10, (0, 1, 3, 4, 6, 7, 9, 10, 12, 13)
    )


def test_domination_number_matches_brute_force():
    # every graph on at most 6 vertices and seeded G(n, p) up to n = 11, each
    # with random targets and candidate subsets; the reference tries every
    # subset of the candidates in size order
    rng = random.Random(24)
    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    graphs += [erdos_renyi(rng.randint(7, 11), rng.choice((0.2, 0.35, 0.5)), rng) for _ in range(60)]
    checked = refused = 0
    for g in graphs:
        for _ in range(3):
            target = [v for v in range(g.n) if rng.random() < 0.6]
            cands = [v for v in range(g.n) if rng.random() < 0.7]
            tmask = mask_of(target)

            def covers(x):
                return tmask & ~g.nbhd_mask(mask_of(x)) & ~mask_of(x) == 0

            want = next((d for d in range(len(cands) + 1)
                         if any(covers(x) for x in itertools.combinations(cands, d))), None)
            if want is None:
                refused += 1
                with pytest.raises(ValueError, match="not dominable"):
                    domination_number(g, target, cands)
                continue
            checked += 1
            size, x = domination_number(g, target, cands)
            assert size == want == len(set(x)), (g.edges(), target, cands)
            assert set(x) <= set(cands) and covers(x)
    assert checked > 500 and refused > 50


def test_trace_family_and_shattering():
    g = cycle(6)
    seps = enumerate_oracle(g)
    traces = trace_family(g, 0, separators=seps)
    # traces live inside N[0]
    for tr in traces:
        assert set(tr) <= {0, 1, 5}
    assert len(shattered_set_max(traces)) <= 2


def test_shattered_set_max_hand_case():
    traces = [(), (0,), (1,), (0, 1)]
    assert shattered_set_max(traces) == (0, 1)
    assert shattered_set_max([(), (5,)]) == (5,)
    assert shattered_set_max([]) == shattered_set_max([()]) == ()


def test_result_doc_shape():
    g = cycle(5)
    seps = enumerate_oracle(g)
    doc = result_doc(g, "oracle", seps, 12, True)
    assert doc["n"] == 5 and doc["count"] == 5
    assert doc["algorithm"] == "oracle"
    assert doc["separators"] == [list(s) for s in seps]
    assert doc["complete"] is True
