"""The acceptance suite: twelve checks, one (name, ok, detail) row each.

Each criterion is a standalone function so the CLI can filter by name and
the test suite can assert them one by one.  Expensive shared inputs (the
exhaustive small-graph corpus and its oracle enumerations) are computed once
per process and memoized in module state.
"""

import random
from typing import Callable, Dict, List, Optional, Tuple

from .classifier import ForbiddenFamily, classify, reduce_degree_two_paths
from .corpus import erdos_renyi, nonisomorphic_graphs, random_connected_corpus
from .detectors import (
    ABSENT,
    FOUND,
    extract_skinny_ladder,
    find_creature,
    find_induced_subgraph,
    max_creature_order,
    validate_minor_witness,
)
from .families import (
    FamilySpec,
    almost_skinny_ladder,
    claw_feral,
    feral_choice_separators,
    generate,
    paw_feral,
    skinny_ladder,
    subdivide,
    twisted_ladder,
)
from .graphs import Graph
from .separators import (
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

Row = Tuple[str, bool, str]

_shared: Dict[str, object] = {}


def _corpus(n_max: int) -> List[Graph]:
    key = f"corpus{n_max}"
    if key not in _shared:
        out: List[Graph] = []
        for n in range(1, n_max + 1):
            out.extend(nonisomorphic_graphs(n, connected=True))
        _shared[key] = out
    return _shared[key]  # type: ignore[return-value]


def _oracle_lists(n_max: int) -> List[List[tuple]]:
    key = f"oracle{n_max}"
    if key not in _shared:
        _shared[key] = [enumerate_oracle(g) for g in _corpus(n_max)]
    return _shared[key]  # type: ignore[return-value]


def _creature_orders(n_max: int) -> List[int]:
    # a k-creature needs 2k+2 vertices, so cap 3 is exhaustive for n <= 8
    key = f"orders{n_max}"
    if key not in _shared:
        _shared[key] = [max_creature_order(g, cap=3) for g in _corpus(n_max)]
    return _shared[key]  # type: ignore[return-value]


def criterion_1() -> Row:
    """Closure enumeration equals the subset oracle on the whole corpus."""
    corpus = _corpus(8)
    oracle = _oracle_lists(8)
    bad = 0
    for g, want in zip(corpus, oracle):
        if enumerate_closure(g) != want:
            bad += 1
    randoms = random_connected_corpus(200, seed=20240817, n_lo=4, n_hi=13)
    for g in randoms:
        if enumerate_closure(g) != enumerate_oracle(g):
            bad += 1
    detail = f"{len(corpus)} corpus graphs + {len(randoms)} random, {bad} mismatches"
    return ("1 oracle equivalence", bad == 0, detail)


def criterion_2() -> Row:
    """Minimality-filtered branching equals the oracle on the corpus."""
    corpus = _corpus(8)
    oracle = _oracle_lists(8)
    bad = 0
    for g, want in zip(corpus, oracle):
        kdom = 1
        for s in want:
            size, _ = domination_number(g, s, range(g.n))
            kdom = max(kdom, size)
        res = enumerate_branching(g, kdom)
        if not res.complete or sorted(res.filtered) != want:
            bad += 1
    detail = f"{len(corpus)} graphs, k = per-graph max domination number, {bad} mismatches"
    return ("2 branching completeness", bad == 0, detail)


def criterion_3() -> Row:
    """Twisted-ladder separator counts reach 2^k; exact values pinned."""
    expected = {2: 64, 3: 210, 4: 552, 5: 1286}
    rows = []
    ok = True
    for k in (2, 3, 4, 5):
        g, _ = twisted_ladder(k)
        count = len(enumerate_closure(g))
        rows.append(f"k={k}:{count}")
        if count < 2 ** k or count != expected[k]:
            ok = False
    return ("3 twisted-ladder counts", ok, ", ".join(rows) + " (>= 2^k, pinned)")


def criterion_4() -> Row:
    """Twisted-ladder creature order does not grow from k = 2 to k = 3.

    The paper's feral family excludes creatures of a fixed order.  c is the
    exhaustive creature order of twisted_ladder(2): found at c, absent at
    c + 1 <= 5.  twisted_ladder(3) must hold no (c + 1)-creature; only an
    exhaustive absent verdict counts, so a run-out budget fails.
    """
    g, _ = twisted_ladder(2)
    order, steps = 0, []
    for c in range(1, 6):
        verdict = find_creature(g, c, budget=100_000_000)
        steps.append(f"{c}:{verdict.status}/{verdict.nodes_explored}n")
        if verdict.status != FOUND:
            break
        order = c
    ok = verdict.status == ABSENT
    detail = f"k=2 order {'' if ok else '>= '}{order} ({', '.join(steps[-2:])})"
    if ok:
        g, _ = twisted_ladder(3)
        verdict = find_creature(g, order + 1, budget=100_000_000)
        ok = verdict.status == ABSENT
        bound = {ABSENT: f"<= {order}", FOUND: f">= {order + 1}"}.get(verdict.status, "unknown")
        detail += f"; k=3 order {bound} ({order + 1}:{verdict.status}/{verdict.nodes_explored}n)"
    return ("4 twisted-ladder bounded creature order", ok, detail)


def criterion_5() -> Row:
    """Family counting bounds: 2^{k-2} for the named trio, 2^{2^c} for ferals."""
    problems = []
    mins = {"theta": 4, "prism": 2, "pyramid": 3}
    for fam, lo in mins.items():
        for k in (3, 4, 5):
            g, _ = generate(FamilySpec(fam, k=k, path_lengths=(lo,) * k))
            count = len(enumerate_closure(g))
            if count < 2 ** (k - 2):
                problems.append(f"{fam}(k={k}) count {count} < {2 ** (k - 2)}")
    for maker, name in ((claw_feral, "claw_feral"), (paw_feral, "paw_feral")):
        g, w = maker(2, 6)
        designated = set(feral_choice_separators(2, w))
        if len(designated) < 16:
            problems.append(f"{name} designated sets not distinct")
        if not all(is_minimal_separator(g, s) for s in designated):
            problems.append(f"{name} designated set not a minimal separator")
        if not g.n < 3 * 6 * 2 ** 3:
            problems.append(f"{name} has {g.n} vertices, bound 144")
    detail = "; ".join(problems) if problems else (
        "theta/prism/pyramid k in {3,4,5} >= 2^(k-2); ferals: 16 verified "
        "minimal separators, n < 144"
    )
    return ("5 family counting bounds", not problems, detail)


def criterion_6() -> Row:
    """close_separator is the unique N(v)-contained one and leq-maximal."""
    corpus = _corpus(7)
    oracle = _oracle_lists(7)
    pairs = 0
    problems = 0
    for g, seps in zip(corpus, oracle):
        for v in range(g.n):
            nv = set(g.neighbors(v))
            for u in range(g.n):
                if u == v or u in nv:
                    continue
                pairs += 1
                rec = close_separator(g, u, v)
                s = rec.separator
                uv = minimal_uv_separators(g, u, v, seps)
                inside = [t for t in uv if set(t) <= nv]
                if (
                    not set(s) <= nv
                    or s not in uv
                    or inside != [s]
                    or not all(separator_leq(g, t, s, u, v) for t in uv)
                ):
                    problems += 1
    detail = f"{pairs} (graph,u,v) triples, {problems} violations"
    return ("6 close separators", problems == 0, detail)


def criterion_7() -> Row:
    """Skinny-ladder spoke domination needs k vertices; no 5-creature."""
    problems = []
    for k in (2, 3, 4, 5):
        g, w = skinny_ladder(k)
        size, _ = domination_number(g, w.role_map["S"], range(g.n))
        if size != k:
            problems.append(f"domination_number(skinny({k})) = {size}")
    for k in (2, 3):
        g, _ = skinny_ladder(k)
        verdict = find_creature(g, 5)
        if verdict.status != ABSENT:
            problems.append(f"skinny({k}) 5-creature: {verdict.status}")
    detail = "; ".join(problems) if problems else "domination = k for k in 2..5; 5-creatures absent"
    return ("7 skinny-ladder domination", not problems, detail)


def criterion_8() -> Row:
    """Trace families fit the n^{k*+1} bound with k* = creature order + 1."""
    corpus = _corpus(7)
    oracle = _oracle_lists(7)
    orders = [max_creature_order(g, cap=3) for g in corpus]
    checked = 0
    problems = 0
    for g, seps, order in zip(corpus, oracle, orders):
        kstar = order + 1
        for v in range(g.n):
            tf = trace_family(g, v, separators=seps)
            checked += 1
            if len(tf.traces) > g.n ** (kstar + 1):
                problems += 1
            if shattered_set_max(tf.traces).dimension > kstar:
                problems += 1
    detail = f"{checked} (graph,v) trace families, {problems} bound violations"
    return ("8 trace/VC bound", problems == 0, detail)


def criterion_9() -> Row:
    """Graphs holding a k-creature hold at least 2^k minimal separators."""
    corpus = _corpus(8)
    oracle = _oracle_lists(8)
    orders = _creature_orders(8)
    with_creature = 0
    problems = 0
    for seps, order in zip(oracle, orders):
        if order >= 1:
            with_creature += 1
            if len(seps) < 2 ** order:
                problems += 1
    detail = f"{with_creature} corpus graphs with creatures, {problems} below 2^k"
    return ("9 creature => 2^k separators", problems == 0, detail)


def criterion_10() -> Row:
    """Extraction turns k^2-spoke almost-skinny instances into skinny(k)."""
    problems = 0
    runs = 0
    for k in (2, 3):
        target, _ = skinny_ladder(k)
        for seed in range(50):
            runs += 1
            g, w = almost_skinny_ladder(k * k, layout_seed=7000 + seed)
            witness = extract_skinny_ladder(g, w, k)
            if validate_minor_witness(g, target, witness):
                problems += 1
    return ("10 extraction validity", problems == 0, f"{runs} extractions, {problems} invalid")


def criterion_11() -> Row:
    """Classifier spot checks for the three canonical forbidden families."""
    P3 = Graph(3, [(0, 1), (1, 2)])
    K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    problems = []
    v = classify(ForbiddenFamily((P3,)))
    if v.status != "strongly_quasi_tame":
        problems.append(f"{{P3}} -> {v.status}")
    v = classify(ForbiddenFamily((K3,)))
    ev = v.evidence.get("theta", {})
    if v.status != "feral" or ev.get("forbidden") is not False:
        problems.append(f"{{K3}} -> {v.status} via {sorted(v.evidence)}")
    else:
        inst = Graph(ev["n"], [tuple(e) for e in ev["edges"]])
        if find_induced_subgraph(inst, K3).status != ABSENT:
            problems.append("{K3} certificate is not triangle-free")
    v = classify(ForbiddenFamily((K3, K13)))
    if v.status != "tame":
        problems.append(f"{{K3,K13}} -> {v.status}")
    detail = "; ".join(problems) if problems else (
        "{P3} strongly_quasi_tame, {K3} feral with triangle-free theta, {K3,K13} tame"
    )
    return ("11 classifier spot checks", not problems, detail)


def criterion_12() -> Row:
    """Reducing planted long degree-2 paths never creates a forbidden graph."""
    # Pool of h <= 6 members a faulty reduction could conceivably create:
    # short cycles (over-contraction of a long cycle) and triangle-bearing
    # graphs (contraction of a length-2 run).  All are induced-subgraph-free
    # in any graph whose every edge was subdivided many times.
    def cycle(n):
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])

    K3 = cycle(3)
    K4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    bull = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    pool = [cycle(4), cycle(5), cycle(6), K3, K4, diamond, paw, bull]

    rng = random.Random(20240818)
    runs = 0
    problems = 0
    fails_pre = 0
    while runs < 100:
        base = erdos_renyi(rng.randint(4, 7), rng.choice((0.3, 0.5)), rng)
        if not base.is_connected() or base.m < 2:
            continue
        planted = subdivide(base, rng.choice((30, 35)))
        members = tuple(rng.sample(pool, rng.randint(1, 3)))
        if any(find_induced_subgraph(planted, m).status != ABSENT for m in members):
            fails_pre += 1
            continue
        runs += 1
        reduced = reduce_degree_two_paths(planted, 6)
        if reduced.n >= planted.n:
            problems += 1
        if any(find_induced_subgraph(reduced, m).status != ABSENT for m in members):
            problems += 1
    detail = f"{runs} planted graphs (pre-avoidance rejected {fails_pre}), {problems} regressions"
    return ("12 reduction soundness", problems == 0, detail)


CRITERIA: Tuple[Callable[[], Row], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all(name_filter: Optional[str] = None) -> List[Row]:
    picked = []
    for fn in CRITERIA:
        label = fn.__name__.replace("criterion_", "")
        if name_filter and name_filter != label:
            # numeric filters select exactly one criterion; words scan docstrings
            if name_filter.isdigit():
                continue
            if name_filter.lower() not in (fn.__doc__ or "").lower():
                continue
        picked.append(fn)
    return [fn() for fn in picked]
