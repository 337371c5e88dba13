import random
from collections import Counter
from itertools import combinations

import pytest

from oracles import canonical_form, forbids_by_length_sweep, reduce_by_edge_rounds
from sepscope import classifier
from sepscope.classifier import (
    QUASI_TAME_TYPES,
    ForbiddenFamily,
    classify,
    forbids_family_type,
    path_length_cap,
    reduce_degree_two_paths,
)
from sepscope.corpus import erdos_renyi, nonisomorphic_graphs
from sepscope.detectors import ABSENT, FOUND, find_induced_subgraph
from sepscope.families import prism, pyramid, subdivide, theta
from sepscope.graphs import Graph, are_isomorphic


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


P3 = path(3)
K3 = complete(3)
CLAW = Graph(4, [(0, 1), (0, 2), (0, 3)])


def test_type_tuples():
    assert QUASI_TAME_TYPES == (
        "theta", "prism", "pyramid", "ladder_theta", "ladder_prism", "claw", "paw",
    )


def test_forbidden_family_computes_h():
    fam = ForbiddenFamily((P3, CLAW))
    assert fam.h == 4
    assert ForbiddenFamily((P3,), h=7).h == 7
    with pytest.raises(ValueError):
        ForbiddenFamily((CLAW,), h=2)
    with pytest.raises(ValueError):
        ForbiddenFamily(())


def test_forbids_theta_for_p3():
    ok, ev = forbids_family_type(ForbiddenFamily((P3,)), "theta", 3)
    assert ok
    assert ev["forbidden"] is True
    assert ev["instances_checked"] > 0


def test_forbids_is_false_for_triangle_family_with_certificate():
    ok, ev = forbids_family_type(ForbiddenFamily((K3,)), "theta", 4)
    assert not ok
    assert ev["forbidden"] is False
    inst = Graph(ev["n"], [tuple(e) for e in ev["edges"]])
    # the avoider really avoids: theta graphs carry no triangle
    assert find_induced_subgraph(inst, K3).status == ABSENT


def test_theta_for_p3_at_h_38_takes_one_instance_per_length():
    # lengths 4..40 give R = 37 uniform thetas on m = 38 paths, and the
    # bound R(m - 1) + 1
    ok, ev = forbids_family_type(ForbiddenFamily((P3,), h=38), "theta")
    assert ok is True
    assert ev == {
        "forbidden": True,
        "family_type": "theta",
        "k": 37 * 37 + 1,
        "mode": "exhaustive",
        "instances_checked": 37,
        "members_used": [0],
    }


def test_classify_p3_is_strongly_quasi_tame():
    verdict = classify(ForbiddenFamily((P3,)))
    assert verdict.status == "strongly_quasi_tame"
    # prism's lengths 2..5 give the largest bound, 4 * (3 - 1) + 1
    assert verdict.k_certificate == 9
    assert set(verdict.evidence) == set(QUASI_TAME_TYPES)
    assert all(ev["forbidden"] for ev in verdict.evidence.values())


def test_classify_k3_is_feral():
    verdict = classify(ForbiddenFamily((K3,)))
    assert verdict.status == "feral"
    (t,) = verdict.evidence
    assert verdict.evidence[t]["forbidden"] is False


def test_classify_k3_claw_is_tame():
    verdict = classify(ForbiddenFamily((K3, CLAW)))
    assert verdict.status == "tame"
    assert verdict.evidence["clique"]["complete_member_size"] == 3


def test_classify_rejects_small_kmax():
    with pytest.raises(ValueError):
        classify(ForbiddenFamily((P3,)), k_max=2)


@pytest.mark.parametrize("members, kwargs, status", [
    ((K3,), {}, "feral"),  # avoided at the first type, theta
    ((CLAW,), {}, "feral"),  # theta forbidden, prism avoided
    ((P3,), {}, "strongly_quasi_tame"),
    ((K3, CLAW), {}, "tame"),
    ((P3,), {"budget": 2}, "inconclusive"),  # an `error` entry for each type
])
def test_classify_matches_every_row_evaluation(members, kwargs, status):
    # the verdict is that of evaluating all seven types: the first avoider,
    # or else the whole row
    hh = ForbiddenFamily(members)
    verdict = classify(hh, **kwargs)
    assert verdict.status == status
    row = {t: forbids_family_type(hh, t, **kwargs)[1] for t in QUASI_TAME_TYPES}
    avoided = [t for t, ev in row.items() if ev["forbidden"] is False]
    if avoided:
        assert verdict.evidence == {avoided[0]: row[avoided[0]]}
    else:
        assert {t: verdict.evidence[t] for t in QUASI_TAME_TYPES} == row


def test_classify_k3_stops_each_row_at_theta(monkeypatch):
    calls = []
    real = classifier.forbids_family_type

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(classifier, "forbids_family_type", counted)
    assert classify(ForbiddenFamily((K3,))).status == "feral"
    assert calls == [("theta", 6)]


def test_verdict_as_dict_round_trips_through_json():
    import dataclasses
    import json

    verdict = classify(ForbiddenFamily((P3,)))
    blob = json.dumps(dataclasses.asdict(verdict), sort_keys=True)
    assert json.loads(blob)["status"] == "strongly_quasi_tame"


def small_members():
    """Every graph on 1..5 vertices."""
    return [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]


def prism_bound(h):
    # prism's R = max(2, h + 2) - 1 = h + 1 lengths give the largest bound
    return (h + 1) * (max(h, 3) - 1) + 1


def test_census_of_single_member_families():
    # every graph on 1..5 vertices as the one forbidden member
    graphs = small_members()
    verdicts = [classify(ForbiddenFamily((g,))) for g in graphs]
    statuses = [v.status for v in verdicts]
    assert len(graphs) == 52
    assert Counter(statuses) == {"feral": 45, "strongly_quasi_tame": 5, "tame": 2}
    two_k2 = next(i for i, g in enumerate(graphs) if are_isomorphic(g, Graph(4, [(0, 1), (2, 3)])))
    assert (statuses[two_k2], verdicts[two_k2].k_certificate) == ("strongly_quasi_tame", 16)

    # H induced in H' gives Free(H) inside Free(H'), so Free(H) is at least as tame
    rank = {"feral": 0, "strongly_quasi_tame": 1, "tame": 2}
    pairs = [(i, j) for i, small in enumerate(graphs) for j, big in enumerate(graphs)
             if i != j and small.n <= big.n
             and find_induced_subgraph(big, small).status == FOUND]
    assert len(pairs) == 347
    assert [(i, j) for i, j in pairs if rank[statuses[i]] < rank[statuses[j]]] == []

    # a longer length cap (h raised by 3) or one more ladder row changes no
    # verdict; the certificate is the bound for h
    for g, v in zip(graphs, verdicts):
        longer = classify(ForbiddenFamily((g,), h=g.n + 3))
        wider = classify(ForbiddenFamily((g,)), k_max=7)
        assert longer.status == wider.status == v.status
        if v.status != "feral":
            assert wider.k_certificate == v.k_certificate == prism_bound(g.n)
            assert longer.k_certificate == prism_bound(g.n + 3)


def test_uniform_answers_match_the_length_sweep_at_k_6():
    # the per-type answer from uniform instances against the fixed-k sweep
    # of every length multiset, on every single member on 1..5 vertices
    pairs = 0
    for g in small_members():
        hh = ForbiddenFamily((g,))
        for t in ("theta", "prism", "pyramid", "claw", "paw"):
            assert forbids_family_type(hh, t)[0] == forbids_by_length_sweep(hh, t, 6), (g.edges(), t)
            pairs += 1
    assert pairs == 260


# degree-2 path reduction

def test_reduce_rejects_tiny_h():
    # at h = 0 a cut would keep no run vertex, so two runs between the same
    # anchors would join them twice
    with pytest.raises(ValueError, match="h >= 1"):
        reduce_degree_two_paths(theta((4, 4, 4))[0], 0)
    assert reduce_degree_two_paths(theta((4, 4, 4))[0], 1).n == 5


def test_reduce_shrinks_long_runs_only():
    g = subdivide(complete(4), 40)[0]
    reduced = reduce_degree_two_paths(g, 6)
    assert reduced.n < g.n
    # short runs stay: every run shrinks to path_length_cap(6) = 8 vertices
    again = reduce_degree_two_paths(reduced, 6)
    assert again.n == reduced.n
    short = subdivide(complete(4), 6)[0]
    assert reduce_degree_two_paths(short, 6).n == short.n


def test_reduce_preserves_branch_vertex_degrees():
    g = subdivide(complete(4), 40)[0]
    reduced = reduce_degree_two_paths(g, 6)
    assert sorted(d for v in range(g.n) if (d := g.degree(v)) != 2) == \
        sorted(d for v in range(reduced.n) if (d := reduced.degree(v)) != 2)


def test_reduce_does_not_create_short_cycles():
    g = subdivide(complete(4), 40)[0]
    reduced = reduce_degree_two_paths(g, 6)
    for pattern in (K3, cycle(4), cycle(5), cycle(6)):
        assert find_induced_subgraph(reduced, pattern).status == ABSENT


def test_reduce_handles_pure_cycle():
    g = cycle(50)
    reduced = reduce_degree_two_paths(g, 6)
    # a cycle is one degree-2 run; it shrinks until the path bound holds
    assert reduced.n < 50
    assert all(reduced.degree(v) == 2 for v in range(reduced.n))
    assert reduced.is_connected()


def hub_loops(length):
    # two pendant cycles hanging off one hub: runs with both ends at the
    # same anchor
    edges = []
    base = 1
    for _ in range(2):
        prev = 0
        for i in range(length):
            edges.append((prev, base + i))
            prev = base + i
        edges.append((prev, 0))
        base += length
    return Graph(1 + 2 * length, edges)


def with_path(g, a, b, r):
    """g plus an r-vertex path whose ends attach to a and b."""
    edges = g.edges()
    prev = a
    for v in range(g.n, g.n + r):
        edges.append((prev, v))
        prev = v
    edges.append((prev, b))
    return Graph(g.n + r, edges)


def test_reduce_handles_hub_loops():
    g = hub_loops(40)
    reduced = reduce_degree_two_paths(g, 6)
    assert reduced.n < g.n
    assert max(reduced.degree(v) for v in range(reduced.n)) == 4


def test_reduce_leaves_isolated_paths_alone_below_floor():
    g = path(8)
    assert reduce_degree_two_paths(g, 6) is g
    for n in (9, 31):
        assert reduce_degree_two_paths(path(n), 6).n == 8


def test_reduce_run_between_adjacent_anchors():
    # the run closes a cycle through the edge 0-1, so its longest induced
    # path has r + 1 vertices
    k4 = complete(4)
    short = with_path(k4, 0, 1, 7)
    assert reduce_degree_two_paths(short, 6) is short
    for r in (8, 40):
        reduced = reduce_degree_two_paths(with_path(k4, 0, 1, r), 6)
        assert are_isomorphic(reduced, short)


def test_reduce_matches_edge_rounds():
    # boundaries of h = 6 and 7, whose runs are cut to 8 and 9 path vertices
    inputs = [cycle(n) for n in (9, 10, 11, 50)]
    inputs += [path(n) for n in (8, 9, 10, 60)]
    inputs += [hub_loops(8), hub_loops(9), hub_loops(40), subdivide(complete(4), 6)[0],
               subdivide(complete(4), 7)[0], subdivide(complete(4), 40)[0]]
    rng = random.Random(20261019)
    while len(inputs) < 20:
        base = erdos_renyi(rng.randint(4, 6), 0.5, rng)
        if base.m:
            inputs.append(subdivide(base, rng.choice((5, 6, 7, 15)))[0])
    for h in (6, 7):
        for g in inputs:
            got, want = reduce_degree_two_paths(g, h), reduce_by_edge_rounds(g, h)
            assert (got.n, got.m) == (want.n, want.m)
            assert are_isomorphic(got, want)


def small_induced_forms(g, h):
    """canonical_form of every induced subgraph of g on 1..h vertices."""
    nbr = [g.nbr_mask(v) for v in range(g.n)]
    cache = {}
    forms = set()
    for size in range(1, h + 1):
        for vs in combinations(range(g.n), size):
            # adjacency among positions, the key of the subgraph up to labels
            key = (size, tuple(i for i, (u, v) in enumerate(combinations(vs, 2))
                               if nbr[u] >> v & 1))
            if key not in cache:
                pairs = list(combinations(range(size), 2))
                cache[key] = canonical_form(Graph(size, [pairs[i] for i in key[1]]))
            forms.add(cache[key])
    return forms


def subdivided(base, counts):
    """base with edge i replaced by a path through counts[i] new vertices."""
    edges, n = [], base.n
    for (u, v), c in zip(base.edges(), counts):
        chain = [u] + list(range(n, n + c)) + [v]
        n += c
        edges += zip(chain, chain[1:])
    return Graph(n, edges)


def test_reduce_creates_no_small_induced_subgraph():
    # every induced subgraph of the reduction on at most h vertices is an
    # induced subgraph of the input, checked over all vertex subsets
    rng = random.Random(20261020)
    checked = 0
    for h in range(1, 6):
        cap = path_length_cap(h)
        inputs = [cycle(n) for n in range(cap + 1, cap + 4)]
        inputs += [path(n) for n in range(cap, cap + 3)]
        inputs += [hub_loops(m) for m in range(cap - 1, cap + 2)]
        inputs += [with_path(complete(3), 0, 1, r) for r in range(cap - 2, cap + 1)]
        inputs += [theta((n, n, cap + 1))[0] for n in (4, cap + 1)]
        while len(inputs) < 80:
            base = erdos_renyi(rng.randint(2, 4), 0.6, rng)
            counts = [rng.choice((0, 1, h, h + 1, h + 2)) for _ in range(base.m)]
            g = subdivided(base, counts)
            if base.m and g.n <= 20:  # every subset is listed, so inputs stay small
                inputs.append(g)
        for g in inputs:
            reduced = reduce_degree_two_paths(g, h)
            if reduced is g:
                continue
            checked += 1
            assert reduced.n < g.n
            assert small_induced_forms(reduced, h) <= small_induced_forms(g, h)
    assert checked >= 250


def test_small_induced_subgraphs_of_a_bundle_come_from_its_m_path_sub_bundles():
    # claim (a) of the module docstring, by brute force over vertex subsets
    rng = random.Random(20261021)
    checked = 0
    for h in (2, 3, 4):
        m = max(h, 3)
        for maker, lo in ((theta, 4), (prism, 2), (pyramid, 3)):
            for k in (m + 1, m + 2):
                lengths = [rng.randint(lo, max(lo, h + 2)) for _ in range(k)]
                whole = small_induced_forms(maker(lengths)[0], h)
                parts = set()
                for sub in combinations(lengths, m):
                    parts |= small_induced_forms(maker(sub)[0], h)
                assert whole == parts, (maker.__name__, lengths)
                checked += 1
    assert checked == 18
