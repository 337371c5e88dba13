import hashlib
import random
from dataclasses import fields, replace
from itertools import product

import pytest

from sepscope.families import (
    _bundle,
    _long,
    FAMILIES,
    FAMILY_NAMES,
    FamilySpec,
    StructureWitness,
    almost_skinny_ladder,
    claw,
    claw_feral,
    feral_choice_separators,
    generate,
    ladder_prism,
    ladder_theta,
    paw,
    paw_feral,
    prism,
    pyramid,
    sampled_ladder_instance,
    skinny_ladder,
    subdivide,
    theta,
    twisted_choice_separators,
    twisted_ladder,
    verify_witness,
)
from sepscope.detectors import ABSENT, find_creature
from sepscope.graphs import Graph
from sepscope.separators import (
    domination_number,
    enumerate_closure,
    is_minimal_separator,
    minimal_uv_separators,
)


def spec_for(fam, **kw):
    return FamilySpec(fam, **kw)


def test_theta_shape():
    g, w = theta((4, 4, 4))
    # two hubs plus 2 inner vertices per path
    assert g.n == 8 and g.m == 9
    a, b = w.one("a"), w.one("b")
    assert not g.has_edge(a, b)
    assert g.degree(a) == 3 and g.degree(b) == 3


def test_theta_rejects_short_paths():
    with pytest.raises(ValueError):
        theta((3, 4, 4))
    with pytest.raises(ValueError):
        theta((4, 4))


def test_prism_shape():
    g, w = prism((2, 2, 2))
    assert g.n == 6 and g.m == 9
    # length-2 paths collapse to the rung edges of the triangular prism
    for i in (1, 2, 3):
        assert g.has_edge(w.one(f"a_{i}"), w.one(f"b_{i}"))
    with pytest.raises(ValueError):
        prism((1, 2, 2))


def test_pyramid_shape():
    g, w = pyramid((3, 3, 3))
    apex = w.one("a")
    assert g.degree(apex) == 3
    with pytest.raises(ValueError):
        pyramid((2, 3, 3))


def test_ladder_types_verify():
    for fam in ("ladder_theta", "ladder_prism", "ladder"):
        for k in (3, 4):
            g, w = _bundle(fam, k)
            ok, violations = verify_witness(g, spec_for(fam, k=k), w)
            assert ok, f"{fam}(k={k}): {violations}"


@pytest.mark.parametrize("fam, lengths", [
    ("ladder_theta", (3, 4, 3)), ("ladder_prism", (2, 3, 2)), ("ladder", (2, 2)),
])
def test_ladder_types_take_k_from_the_path_lengths(fam, lengths):
    spec = spec_for(fam, path_lengths=lengths)
    g, w = generate(spec)
    assert verify_witness(g, spec, w) == (True, [])
    assert (g, w) == _bundle(fam, len(lengths), lengths)


def test_attachment_hulls_must_be_disjoint():
    with pytest.raises(ValueError, match="hulls on L"):
        _bundle("ladder_theta", 3, None, 4, ((0, 2), (1,), (3,)))
    g, w = _bundle("ladder", 2)
    bad = Graph(g.n, g.edges() + [(w.one("a_1"), w.role_map["L"][1])])
    ok, _ = verify_witness(bad, spec_for("ladder", k=2), w)
    assert not ok

def test_claw_paw_copies():
    g, _ = claw(3)
    single, _ = _long(3, paw=False)
    assert g.n == 3 * single.n and g.m == 3 * single.m
    g, _ = paw(2)
    single, _ = _long(2, paw=True)
    assert g.n == 2 * single.n and g.m == 2 * single.m
    with pytest.raises(ValueError):
        _long(1, paw=False)


def test_skinny_ladder_shape():
    g, w = skinny_ladder(3)
    assert g.n == 9 and g.m == 10
    # spokes are an induced matching between the two paths
    spokes = w.role_map["S"]
    assert len(spokes) == 3
    # crossing two rungs keeps every degree and hull but breaks the matching
    g, w = skinny_ladder(2)
    L, R, (s1, s2) = w.role_map["L"], w.role_map["R"], w.role_map["S"]
    crossed = [(L[0], L[1]), (R[0], R[1]), (s1, L[0]), (s1, R[1]), (s2, L[1]), (s2, R[0])]
    assert not verify_witness(Graph(g.n, crossed), spec_for("skinny_ladder", k=2), w)[0]


def test_almost_skinny_layouts_verify():
    for seed in (None, 1, 2, 3, 17):
        g, w = almost_skinny_ladder(4, layout_seed=seed)
        ok, violations = verify_witness(g, spec_for("almost_skinny_ladder", k=4, layout_seed=seed), w)
        assert ok, f"seed {seed}: {violations}"
    canonical, _ = almost_skinny_ladder(3, layout_seed=None)
    plain, _ = skinny_ladder(3)
    assert canonical == plain


# one valid spec per family, in FAMILY_NAMES order
VALID_SPECS = {
    "theta": spec_for("theta", k=3),
    "prism": spec_for("prism", k=3),
    "pyramid": spec_for("pyramid", k=3),
    "ladder_theta": spec_for("ladder_theta", k=3),
    "ladder_prism": spec_for("ladder_prism", k=3),
    "ladder": spec_for("ladder", k=3),
    "claw": spec_for("claw", k=2),
    "paw": spec_for("paw", k=2),
    "long_claw": spec_for("long_claw", arm_length=3),
    "long_paw": spec_for("long_paw", arm_length=3),
    "skinny_ladder": spec_for("skinny_ladder", k=3),
    "almost_skinny_ladder": spec_for("almost_skinny_ladder", k=3, layout_seed=5),
    "twisted_ladder": spec_for("twisted_ladder", k=2),
    "claw_feral": spec_for("claw_feral", c=2),
    "paw_feral": spec_for("paw_feral", c=2),
    "subdivision": spec_for("subdivision", k=2,
                            base_graph=Graph(3, [(0, 1), (1, 2), (0, 2)])),
}


def test_every_family_generates_and_verifies():
    assert tuple(VALID_SPECS) == FAMILY_NAMES
    for fam, spec in VALID_SPECS.items():
        g, w = generate(spec)
        ok, violations = verify_witness(g, spec, w)
        assert ok, f"{fam}: {violations}"


# a value other than the default for each FamilySpec field but the family
FIELD_VALUES = {"k": 3, "path_lengths": (4, 4, 4), "arm_length": 3, "c": 2,
                "base_graph": Graph(2, [(0, 1)]), "layout_seed": 1}


def test_every_family_reads_only_spec_fields():
    assert [f.name for f in fields(FamilySpec)] == ["family", *FIELD_VALUES]
    for fam, (_, _, reads) in FAMILIES.items():
        assert reads and set(reads) <= set(FIELD_VALUES), fam


@pytest.mark.parametrize("fam, name", list(product(FAMILY_NAMES, FIELD_VALUES)))
def test_generate_rejects_each_field_its_family_does_not_read(fam, name):
    spec = replace(VALID_SPECS[fam], **{name: FIELD_VALUES[name]})
    if name not in FAMILIES[fam][2]:
        with pytest.raises(ValueError, match=f"^{fam} does not take {name}$"):
            generate(spec)
        return
    try:
        generate(spec)
    except ValueError as exc:
        assert "does not take" not in str(exc)


def test_generate_names_every_field_it_rejects():
    spec = FamilySpec("twisted_ladder", k=2, path_lengths=(9, 9), arm_length=4, c=3)
    with pytest.raises(ValueError, match="^twisted_ladder does not take path_lengths, arm_length, c$"):
        generate(spec)
    with pytest.raises(ValueError, match="^long_claw needs arm_length >= 2$"):
        generate(FamilySpec("long_claw"))


def test_generate_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate(FamilySpec("mystery", k=3))
    with pytest.raises(ValueError, match="unknown family"):
        verify_witness(Graph(1, []), FamilySpec("mystery"), StructureWitness({"a": (0,)}))


def test_twisted_ladder_counts_are_pinned():
    # regression values; also the >= 2^k guarantee
    for k, expected in ((2, 64), (3, 210)):
        g, _ = twisted_ladder(k)
        count = len(enumerate_closure(g))
        assert count == expected
        assert count >= 2 ** k


def test_twisted_ladder_certificate():
    # Result (iv) at k = 2..4: 2^k distinct minimal x,y-separators, separator
    # domination number 2k, and no 5-creature (the order is 4 at k = 2)
    for k in (2, 3, 4):
        g, w = twisted_ladder(k)
        choice = twisted_choice_separators(k, w)
        assert len(set(choice)) == 2 ** k
        x, y = w.one("x"), w.one("y")
        for s in choice:
            assert is_minimal_separator(g, s)
            # minimal x,y-separator: x and y lie in two distinct full components
            assert minimal_uv_separators(g, x, y, [s]) == [s]
        doms = [domination_number(g, s, range(g.n))[0] for s in enumerate_closure(g)]
        assert max(doms) == 2 * k
        assert find_creature(g, 5).status == ABSENT


def test_feral_sizes_and_choice_separators():
    g, w = claw_feral(2, 6)
    assert (g.n, g.m) == (92, 94)
    h, wp = paw_feral(2, 6)
    assert (h.n, h.m) == (104, 112)
    for gg, ww in ((g, w), (h, wp)):
        choice = feral_choice_separators(2, ww)
        assert len(set(choice)) == 16
        for s in choice:
            assert is_minimal_separator(gg, s)


def test_subdivision():
    base = Graph(3, [(0, 1), (1, 2), (0, 2)])
    g, _ = subdivide(base, 2)
    assert g.n == 3 + 3 * 2 and g.m == 3 * 3
    assert subdivide(base, 0)[0] == base
    _, w = subdivide(base, 1)
    assert w.role_map["base"] == (0, 1, 2)


def test_sampled_ladder_instances_verify():
    rng = random.Random(2024)
    for fam in ("ladder_theta", "ladder_prism", "ladder"):
        for _ in range(6):
            g, w = sampled_ladder_instance(fam, 3, rng, max_len=5)
            ok, violations = verify_witness(g, spec_for(fam, k=3), w)
            assert ok, f"{fam}: {violations}"


def test_ladder_monotonicity_small():
    # canonical instance of order k embeds in the one of order k+1
    from sepscope.detectors import find_induced_subgraph

    small, _ = skinny_ladder(2)
    big, _ = skinny_ladder(3)
    assert find_induced_subgraph(big, small).found


def test_claw_and_paw_name_themselves_when_k_is_below_two():
    for maker, fam in ((claw, "claw"), (paw, "paw")):
        with pytest.raises(ValueError, match=f"^{fam} needs k >= 2"):
            maker(1)


def test_subdivision_verifier_rejects_extra_edges():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    g, w = subdivide(tri, 1)
    inner = w.role_map["P_1_2"][1]
    bad = Graph(g.n, list(g.edges()) + [(0, inner)])
    ok, _ = verify_witness(bad, spec_for("subdivision", k=1, base_graph=tri), w)
    assert not ok
    p3 = Graph(3, [(0, 1), (1, 2)])
    g, w = subdivide(p3, 0)
    bad = Graph(3, [(0, 1), (1, 2), (0, 2)])
    ok, _ = verify_witness(bad, spec_for("subdivision", k=0, base_graph=p3), w)
    assert not ok
    # a subdivided P3 is no subdivision of a triangle or of K4
    g, w = subdivide(p3, 1)
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert verify_witness(g, spec_for("subdivision", k=1, base_graph=p3), w) == (True, [])
    assert verify_witness(g, spec_for("subdivision", k=1, base_graph=tri), w) == (
        False, ["the P roles are the base graph's edges"])
    assert verify_witness(g, spec_for("subdivision", k=1, base_graph=k4), w) == (
        False, ["the base role has one vertex per base graph vertex"])


def test_verifiers_reject_a_vertex_outside_every_role():
    for spec, (g, w) in (
        (spec_for("theta", k=3, path_lengths=(4, 4, 4)), theta((4, 4, 4))),
        (spec_for("prism", k=3, path_lengths=(2, 2, 2)), prism((2, 2, 2))),
        (spec_for("skinny_ladder", k=3), skinny_ladder(3)),
        (spec_for("twisted_ladder", k=1), twisted_ladder(1)),
    ):
        extra = Graph(g.n + 1, list(g.edges()) + [(0, g.n)])
        ok, bad = verify_witness(extra, spec, w)
        assert not ok and "every vertex lies in some role" in bad, spec.family


def test_verifiers_reject_roles_that_do_not_partition_the_graph():
    # an isolated vertex held only by a role the family does not define
    for spec in _mutation_specs():
        g, w = generate(spec)
        extra = Graph(g.n + 1, g.edges())
        ok, bad = verify_witness(extra, spec, StructureWitness({**w.role_map, "extra": (g.n,)}))
        assert not ok and "the pieces partition the vertices" in bad, spec.family
    g, w = claw_feral(1, 3)
    moved = w.role_map["tree_2"][0]
    roles = StructureWitness(
        {**w.role_map, "tree_1": w.role_map["tree_1"] + (moved,), "tree_2": w.role_map["tree_2"][1:]}
    )
    assert not verify_witness(g, spec_for("claw_feral", c=1, arm_length=3), roles)[0]
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    g, w = subdivide(tri, 1)
    inner = w.role_map["P_0_1"][1]
    for base in ((0, 1, inner), (0, 1, 2, inner)):
        roles = StructureWitness({**w.role_map, "base": base})
        assert not verify_witness(g, spec_for("subdivision", k=1), roles)[0], base
    # the edges match, but P_0_1 revisits 0, which is not in base
    w = StructureWitness({"base": (1, 3), "P_0_1": (0, 2, 0, 1)})
    assert not verify_witness(Graph(4, [(0, 1), (0, 2)]), spec_for("subdivision", k=2), w)[0]


def test_ladder_ends_and_spokes_need_a_backbone_neighbour():
    for spec in (spec_for("ladder", k=2), spec_for("almost_skinny_ladder", k=3, layout_seed=5)):
        g, w = generate(spec)
        end = w.one("a_1" if spec.family == "ladder" else "s_1")
        hooks = {(min(end, x), max(end, x)) for x in w.role_map["L"]}
        ok, bad = verify_witness(Graph(g.n, set(g.edges()) - hooks), spec, w)
        assert not ok and any(msg.endswith("has a neighbor in L") for msg in bad), spec.family


def _mutation_specs():
    base = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    specs = [
        spec_for("theta", k=3),
        spec_for("prism", k=3),
        spec_for("pyramid", k=3),
        spec_for("ladder_theta", k=3),
        spec_for("ladder_prism", k=3),
        spec_for("ladder", k=3),
        spec_for("claw", k=2),
        spec_for("paw", k=2),
        spec_for("long_claw", arm_length=3),
        spec_for("long_paw", arm_length=3),
        spec_for("skinny_ladder", k=3),
        spec_for("almost_skinny_ladder", k=3, layout_seed=5),
        spec_for("twisted_ladder", k=2),
        spec_for("claw_feral", c=1, arm_length=3),
        spec_for("paw_feral", c=1, arm_length=3),
    ]
    specs += [spec_for("subdivision", k=f, base_graph=base) for f in (0, 1, 2)]
    return specs


def _attachment_pairs(w):
    """Spoke-to-backbone pairs, the toggles a ladder-type witness may absorb."""
    roles = w.role_map
    L, R = set(roles.get("L", ())), set(roles.get("R", ()))
    out = set()
    for name, (v, *_) in roles.items():
        side = {"a": L, "b": R, "s": L | R}.get(name.split("_")[0]) if "_" in name else None
        for u in side or ():
            out.add((min(u, v), max(u, v)))
    return out


def test_verifiers_reject_every_single_edge_toggle():
    lenient = {"ladder_theta", "ladder_prism", "ladder", "almost_skinny_ladder"}
    accepted = []
    for spec in _mutation_specs():
        g, w = generate(spec)
        assert verify_witness(g, spec, w)[0], spec.family
        edges = set(g.edges())
        skip = _attachment_pairs(w) if spec.family in lenient else set()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (u, v) in skip:
                    continue
                mutant = Graph(g.n, edges ^ {(u, v)})
                if verify_witness(mutant, spec, w)[0]:
                    accepted.append((spec.family, spec.k, (u, v)))
    assert not accepted


def _role_mutants_accepted():
    """Per family, how many of 600 seeded role mutants per spec verify_witness
    accepts: each mutant replaces one vertex of one role, or swaps two
    vertices in every role, leaving the graph as it is."""
    accepted = {}
    for si, spec in enumerate(_mutation_specs()):
        g, w = generate(spec)
        rng = random.Random(20 + si)
        names = sorted(w.role_map)
        count = accepted.setdefault(spec.family, 0)
        for _ in range(300):
            name = rng.choice(names)
            vs = list(w.role_map[name])
            j = rng.randrange(len(vs))
            vs[j] = (vs[j] + rng.randrange(1, g.n)) % g.n
            count += verify_witness(g, spec, StructureWitness({**w.role_map, name: tuple(vs)}))[0]
            a, b = rng.sample(range(g.n), 2)
            swap = {a: b, b: a}
            roles = {r: tuple(swap.get(v, v) for v in role) for r, role in w.role_map.items()}
            count += verify_witness(g, spec, StructureWitness(roles))[0]
        accepted[spec.family] = count
    return accepted


# upper bounds, measured on the earlier clause-by-clause verifiers: a
# verifier may grow stricter, never looser
ROLE_MUTANTS_ACCEPTED = {
    "theta": 0, "prism": 0, "pyramid": 0, "ladder_theta": 10, "ladder_prism": 7, "ladder": 12,
    "claw": 57, "paw": 0, "long_claw": 0, "long_paw": 0, "skinny_ladder": 16,
    "almost_skinny_ladder": 1, "twisted_ladder": 0, "claw_feral": 41, "paw_feral": 34,
    "subdivision": 88,
}


def test_verifiers_accept_no_more_role_mutants_than_pinned():
    accepted = _role_mutants_accepted()
    assert set(accepted) == set(ROLE_MUTANTS_ACCEPTED)
    looser = {f: n for f, n in accepted.items() if n > ROLE_MUTANTS_ACCEPTED[f]}
    assert not looser, (looser, ROLE_MUTANTS_ACCEPTED)


def _pin_cases():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    paw4 = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    cases = []
    for lengths in ((4, 4, 4), (4, 5, 6), (5, 4, 4, 7)):
        cases.append(theta(lengths))
    for lengths in ((2, 2, 2), (2, 3, 4), (3, 2, 2, 2)):
        cases.append(prism(lengths))
    for lengths in ((3, 3, 3), (3, 4, 5), (4, 3, 3, 3)):
        cases.append(pyramid(lengths))
    for k in (3, 4):
        cases += [ladder_theta(k), ladder_prism(k), _bundle("ladder", k)]
    cases.append(_bundle("ladder", 1))
    cases.append(_bundle("ladder", 2, (3, 2)))
    cases.append(_bundle("ladder_theta", 3, (3, 4, 5), 7, ((0, 1), (3,), (5, 6))))
    cases.append(_bundle("ladder_prism", 3, (2, 3, 2), 6, ((5,), (0, 2), (3,))))
    cases.append(_bundle("ladder", 3, (2, 3, 4), 6, ((0,), (2, 3), (5,)), 5, ((4,), (0,), (2,))))
    rng = random.Random(99)
    for fam in ("ladder_theta", "ladder_prism", "ladder"):
        for k in (3, 4):
            cases.append(sampled_ladder_instance(fam, k, rng))
            cases.append(sampled_ladder_instance(fam, k, rng, max_len=5))
            cases.append(sampled_ladder_instance(fam, k, rng, lengths=(4,) * k))
        for seed in (0, 1):
            cases.append(generate(FamilySpec(fam, k=3, layout_seed=seed)))
    for k in (2, 3):
        cases += [claw(k), paw(k)]
    for arm in (2, 3, 4):
        cases += [_long(arm, paw=False), _long(arm, paw=True)]
    cases += [skinny_ladder(k) for k in (1, 2, 3, 4)]
    for k in (1, 3, 4, 9):
        for seed in (None, 0, 1, 7000, 7049):
            cases.append(almost_skinny_ladder(k, layout_seed=seed))
    cases += [twisted_ladder(k) for k in (1, 2, 3)]
    for c, h in ((1, 3), (2, 6)):
        cases += [claw_feral(c, h), paw_feral(c, h)]
    for base in (tri, paw4):
        cases += [subdivide(base, f) for f in (0, 1, 2)]
    return cases


def test_generators_are_pinned():
    # taken from the generators before they were merged into one per shape
    digest = hashlib.sha256()
    cases = _pin_cases()
    for g, w in cases:
        digest.update(repr((g.n, sorted(g.edges()), sorted(w.role_map.items()))).encode())
    assert len(cases) == 91
    assert digest.hexdigest() == "3f04ce1aa413cba6d2ea1ea4cb8ebeb4939805f82a5ee489b9f554705a90d105"
