import random

import pytest

from sepscope.classifier import (
    QUASI_TAME_TYPES,
    TAME_TYPES,
    ClassificationVerdict,
    ForbiddenFamily,
    RepresentativeBudget,
    classify,
    forbids_family_type,
    reduce_degree_two_paths,
)
from sepscope.detectors import ABSENT, find_induced_subgraph
from sepscope.families import subdivide
from sepscope.graphs import Graph


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
    assert set(TAME_TYPES) <= set(QUASI_TAME_TYPES) | {"clique"}


def test_forbidden_family_computes_h():
    fam = ForbiddenFamily((P3, CLAW))
    assert fam.h == 4
    assert ForbiddenFamily((P3,), h=7).h == 7
    with pytest.raises(ValueError):
        ForbiddenFamily((CLAW,), h=2)
    with pytest.raises(ValueError):
        ForbiddenFamily(())


def test_forbids_theta_for_p3():
    ok, ev = forbids_family_type(ForbiddenFamily((P3,)), "theta", 3, length_cap=8)
    assert ok
    assert ev["forbidden"] is True
    assert ev["instances_checked"] > 0


def test_forbids_is_false_for_triangle_family_with_certificate():
    ok, ev = forbids_family_type(ForbiddenFamily((K3,)), "theta", 4, length_cap=20)
    assert not ok
    assert ev["forbidden"] is False
    inst = Graph(ev["n"], [tuple(e) for e in ev["edges"]])
    # the avoider really avoids: theta graphs carry no triangle
    assert find_induced_subgraph(inst, K3).status == ABSENT


def test_representative_budget_raises():
    with pytest.raises(RepresentativeBudget):
        forbids_family_type(ForbiddenFamily((P3,)), "theta", 6,
                            length_cap=40, max_instances=10)


def test_classify_p3_is_strongly_quasi_tame():
    verdict = classify(ForbiddenFamily((P3,)))
    assert verdict.status == "strongly_quasi_tame"
    assert verdict.k_certificate == 3
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


def test_verdict_as_dict_round_trips_through_json():
    import json

    verdict = classify(ForbiddenFamily((P3,)))
    blob = json.dumps(verdict.as_dict(), sort_keys=True)
    assert json.loads(blob)["status"] == "strongly_quasi_tame"


# degree-2 path reduction

def test_reduce_rejects_tiny_h():
    with pytest.raises(ValueError):
        reduce_degree_two_paths(path(40), 5)


def test_reduce_shrinks_long_runs_only():
    g = subdivide(complete(4), 40)
    reduced = reduce_degree_two_paths(g, 6)
    assert reduced.n < g.n
    # short runs stay: every run shrinks to just under the 5h floor
    again = reduce_degree_two_paths(reduced, 6)
    assert again.n == reduced.n
    short = subdivide(complete(4), 10)
    assert reduce_degree_two_paths(short, 6).n == short.n


def test_reduce_preserves_branch_vertex_degrees():
    g = subdivide(complete(4), 40)
    reduced = reduce_degree_two_paths(g, 6)
    assert sorted(d for v in range(g.n) if (d := g.degree(v)) != 2) == \
        sorted(d for v in range(reduced.n) if (d := reduced.degree(v)) != 2)


def test_reduce_does_not_create_short_cycles():
    g = subdivide(complete(4), 40)
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


def test_reduce_handles_hub_loops():
    # two long pendant cycles hanging off one hub: runs with both ends at
    # the same anchor
    edges = []
    base = 1
    for _ in range(2):
        prev = 0
        for i in range(40):
            edges.append((prev, base + i))
            prev = base + i
        edges.append((prev, 0))
        base += 40
    g = Graph(81, edges)
    reduced = reduce_degree_two_paths(g, 6)
    assert reduced.n < g.n
    assert max(reduced.degree(v) for v in range(reduced.n)) == 4


def test_reduce_leaves_isolated_paths_alone_below_floor():
    g = path(29)
    assert reduce_degree_two_paths(g, 6).n == 29
    g = path(31)
    assert reduce_degree_two_paths(g, 6).n < 31
