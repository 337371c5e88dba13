"""The four workloads: inputs made from a seed, the jobs of one round, and
the answer checks.

A round is a fixed list of jobs, each one user-visible question with one
verdict or output.  Jobs run back to back in one fresh interpreter (a
closed loop with one client).  Every job looks its sepscope function up
through the module at call time, so the tracer's wrappers see the call.
Checks run after the round, outside the timed phase, against answers that
do not come from the timed path: pinned counts, stored brute-force
separators, the independent routines in checks.py, and agreement between
separate enumeration routes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import checks

DATA = Path(__file__).resolve().parent / "data"

# sizes per scale: "default" is what the benchmark measures, "smoke" is the
# self-test's tiny run, "roadmap" builds the census corpus through n = 8 to
# reproduce the ROADMAP's isomorphism-call count (about 45 s untraced).
#
# job_ms.tail is the 11th slowest job of a round.  Each workload therefore
# holds a block of fixed jobs of similar cost around that rank (hunt's
# absent minors, enumerate's relabelled twisted_ladder(4) closures,
# classify's pool families of equal work), and keeps its seeded jobs
# cheaper than the block, so the tail neither follows the seed nor jumps
# between unlike jobs.
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "default": {
        "census": {"n_max": 7, "randoms": 120},
        "enumerate": {"class_n_max": 7, "mid": 1, "er": 24, "twisted_max": 5, "family_max": 5,
                      "feral": 1, "tail_block": 8},
        "hunt": {"twisted": 3, "skinny_max": 4, "absent_minors": 8, "minor": 25, "hosts": 50, "per_host": 3},
        "classify": {"tail_block": 11, "above_block": 9, "seeded": 120},
    },
    "smoke": {
        "census": {"n_max": 5, "randoms": 3},
        "enumerate": {"class_n_max": 4, "mid": 0, "er": 2, "twisted_max": 2, "family_max": 3,
                      "feral": 0, "tail_block": 1},
        "hunt": {"twisted": 2, "skinny_max": 2, "absent_minors": 1, "minor": 2, "hosts": 2, "per_host": 1},
        "classify": {"tail_block": 1, "above_block": 9, "seeded": 2},
    },
}
SCALES["roadmap"] = dict(SCALES["default"], census={"n_max": 8, "randoms": 120})

ALL_CLASSES = (1, 2, 4, 11, 34, 156, 1044, 12346)
CONNECTED_CLASSES = (1, 1, 2, 6, 21, 112, 853, 11117)
TWISTED_COUNTS = {2: 64, 3: 210, 4: 552, 5: 1286}
FAMILY_MIN_LENGTHS = (("theta", 4), ("prism", 2), ("pyramid", 3))
ORACLE_N_MAX = 16
# fixed mid-size branching inputs: (generator, arguments)
MID_SIZE = (
    ("twisted_ladder", (1,)), ("skinny_ladder", (3,)), ("theta", ((4, 4, 4),)),
    ("theta", ((4, 4, 4, 4),)), ("prism", ((2,) * 5,)), ("pyramid", ((3,) * 4,)),
    ("pyramid", ((3,) * 5,)),
)
# patterns.jsonl rows that are exhaustively absent as induced minors of
# twisted_ladder(1): fixed searches of 0.1-0.2 s each
ABSENT_MINORS = (7, 18, 21, 24, 25, 26, 27, 28)

Step = Tuple[str, Callable[[], object]]


class Outcome:
    """What the checks concluded about one round."""

    def __init__(self) -> None:
        self.failed: set = set()  # jobs that raised, came back undecided, or were wrong
        self.undecided: set = set()  # the failed jobs that were only undecided
        self.problems: List[str] = []
        self.notes: Dict[str, int] = {}

    def fail(self, job: int, why: str, undecided: bool = False) -> None:
        self.failed.add(job)
        if undecided:
            self.undecided.add(job)
        if len(self.problems) < 20:
            self.problems.append(f"job {job}: {why}")

    @property
    def wrong(self) -> set:
        return self.failed - self.undecided

    def note(self, key: str, inc: int = 1) -> None:
        self.notes[key] = self.notes.get(key, 0) + inc


def _connected_er(rng: random.Random, n: int, p: float):
    """(n, edges) of the first connected G(n, p) draw."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        adj = checks.adjacency(n, edges)
        if len(checks.components(adj, (1 << n) - 1)) == 1:
            return n, edges


def _read_jsonl(name: str) -> List[dict]:
    with open(DATA / name) as fh:
        return [json.loads(line) for line in fh]


def _interleave(*groups: list) -> list:
    """Merge the groups so that each one's items spread evenly over the result.

    Short jobs then sample the machine over the whole round rather than in
    one burst, which keeps a round's median latency from riding on a
    momentary slowdown.
    """
    keyed = [
        ((i + 0.5) / len(group), g, i, item)
        for g, group in enumerate(groups)
        for i, item in enumerate(group)
    ]
    return [item for *_, item in sorted(keyed, key=lambda row: row[:3])]


def _relabel(rng: random.Random, g):
    """g with its vertices renumbered by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return type(g)(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _n_edges(g) -> Tuple[int, list]:
    return g.n, g.edges()


def _write_edge_list(path: Path, n: int, edges: Sequence[Tuple[int, int]]) -> str:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# census: cold corpus build, then closure == oracle on every connected class
# ---------------------------------------------------------------------------


class Census:
    name = "census"

    def setup(self, seed: int, size: dict, sp, workdir: Path) -> dict:
        rng = random.Random(seed)
        randoms = []
        for _ in range(size["randoms"]):
            n, edges = _connected_er(rng, rng.randint(8, 11), rng.choice((0.25, 0.35, 0.5)))
            randoms.append(sp.graphs.Graph(n, edges))
        return {"n_max": size["n_max"], "randoms": randoms}

    def steps(self, ctx: dict, sp) -> Iterator[Step]:
        corpus, seps = sp.corpus, sp.separators
        n_max = ctx["n_max"]

        def build():
            return [
                (corpus.nonisomorphic_graphs(n), corpus.nonisomorphic_graphs(n, connected=True))
                for n in range(1, n_max + 1)
            ]

        box: dict = {}
        yield "build", lambda: box.setdefault("levels", build())
        # the generator resumes only after the build step has run
        classes = [g for _, connected in box.get("levels", ()) for g in connected]
        for g in classes + ctx["randoms"]:
            yield "certify", (lambda g=g: (seps.enumerate_closure(g), seps.enumerate_oracle(g)))

    def check(self, ctx: dict, outputs: list, out: Outcome, sp) -> None:
        levels = outputs[0]
        if levels is None:
            return
        for n, (every, connected) in enumerate(levels, start=1):
            if len(every) != ALL_CLASSES[n - 1] or len(connected) != CONNECTED_CLASSES[n - 1]:
                out.fail(0, f"n={n}: {len(every)} classes, {len(connected)} connected")
        for job, got in enumerate(outputs[1:], start=1):
            if got is not None and got[0] != got[1]:
                out.fail(job, "closure differs from the oracle")


# ---------------------------------------------------------------------------
# enumerate: branching, closure and oracle without a corpus build
# ---------------------------------------------------------------------------


def _branching_recipe(sp, g, separators):
    """Criterion 2: k is the largest domination number over the separators."""
    seps = sp.separators
    k = 1
    for s in separators:
        k = max(k, seps.domination_number(g, s, range(g.n))[0])
    return seps.enumerate_branching(g, k)


class Enumerate:
    name = "enumerate"

    def setup(self, seed: int, size: dict, sp, workdir: Path) -> dict:
        Graph, fam = sp.graphs.Graph, sp.families
        classes = [
            (Graph(row["n"], [tuple(e) for e in row["edges"]]), [tuple(s) for s in row["seps"]])
            for row in _read_jsonl("classes_le7.jsonl")
            if row["n"] <= size["class_n_max"]
        ]
        # fixed mid-size graphs carry the expensive branching; the seeded
        # G(n, p) draws are small so that no seed changes the slowest jobs
        graphs = [getattr(fam, name)(*params)[0] for name, params in MID_SIZE] if size["mid"] else []
        rng = random.Random(seed)
        for i in range(size["er"]):
            graphs.append(Graph(*_connected_er(rng, 8 + i % 2, rng.choice((0.3, 0.45)))))
        extremal = []
        for k in range(2, size["twisted_max"] + 1):
            extremal.append((f"twisted_ladder({k})", fam.twisted_ladder(k)[0], TWISTED_COUNTS[k]))
        # fixed relabellings: closure's cost depends on the labels, and the
        # tail block must not move with the seed
        k, fixed = min(4, size["twisted_max"]), random.Random(0)
        for i in range(size["tail_block"]):
            g = _relabel(fixed, fam.twisted_ladder(k)[0])
            extremal.append((f"relabelled twisted_ladder({k}) #{i}", g, TWISTED_COUNTS[k]))
        for family, lo in FAMILY_MIN_LENGTHS:
            for k in range(3, size["family_max"] + 1):
                spec = fam.FamilySpec(family, k=k, path_lengths=(lo,) * k)
                extremal.append((f"{family}(k={k})", fam.generate(spec)[0], None))
        feral = None
        if size["feral"]:
            g, w = fam.claw_feral(2, 6)
            feral = (g, fam.feral_choice_separators(2, w))
            extremal.append(("claw_feral(2, 6)", g, None))
        # spread every kind of job over the whole round (see _interleave)
        order = _interleave(
            [[("class-branching", i)] for i in range(len(classes))],
            [[("graph-oracle", i), ("graph-closure", i), ("graph-branching", i)] for i in range(len(graphs))],
            [[("extremal-closure", i)] for i in range(len(extremal))],
        )
        return {"classes": classes, "graphs": graphs, "extremal": extremal, "feral": feral,
                "order": [job for unit in order for job in unit]}

    def steps(self, ctx: dict, sp) -> Iterator[Step]:
        seps = sp.separators
        boxes: Dict[int, dict] = {}
        for kind, i in ctx["order"]:
            if kind == "class-branching":
                g = ctx["classes"][i][0]
                yield kind, (lambda g=g: _certify_by_branching(sp, g))
            elif kind == "graph-oracle":
                box = boxes[i] = {}
                g = ctx["graphs"][i]
                yield kind, (lambda g=g, box=box: box.setdefault("seps", seps.enumerate_oracle(g)))
            elif kind == "graph-closure":
                yield kind, (lambda g=ctx["graphs"][i]: seps.enumerate_closure(g))
            elif kind == "graph-branching":
                g = ctx["graphs"][i]
                yield kind, (lambda g=g, box=boxes[i]: _branching_recipe(sp, g, box["seps"]))
            else:
                yield kind, (lambda g=ctx["extremal"][i][1]: seps.enumerate_closure(g))

    def check(self, ctx: dict, outputs: list, out: Outcome, sp) -> None:
        job_of = {key: job for job, key in enumerate(ctx["order"])}
        got = dict(zip(ctx["order"], outputs))
        for i, (g, want) in enumerate(ctx["classes"]):
            job = job_of["class-branching", i]
            if got["class-branching", i] is None:
                continue
            oracle, res = got["class-branching", i]
            if oracle != want:
                out.fail(job, f"oracle differs from the stored separators of {g.edges()}")
            if not res.complete:
                out.fail(job, "branching incomplete", undecided=True)
            elif list(res.filtered) != want:
                out.fail(job, f"branching differs from the stored separators of {g.edges()}")
        for i, g in enumerate(ctx["graphs"]):
            oracle = got["graph-oracle", i]
            closure = got["graph-closure", i]
            res = got["graph-branching", i]
            if oracle is None:
                continue
            adj = checks.adjacency_of(g)
            if not all(checks.is_minimal_separator(adj, _mask(s)) for s in oracle):
                out.fail(job_of["graph-oracle", i], "oracle output holds a non-separator")
            if closure is not None and closure != oracle:
                out.fail(job_of["graph-closure", i], "closure differs from the oracle")
            if res is not None:
                if not res.complete:
                    out.fail(job_of["graph-branching", i], "branching incomplete", undecided=True)
                elif list(res.filtered) != oracle:
                    out.fail(job_of["graph-branching", i], "branching differs from the oracle")
        feral = ctx["feral"]
        for i, (name, g, pinned) in enumerate(ctx["extremal"]):
            job, seps = job_of["extremal-closure", i], got["extremal-closure", i]
            if seps is None:
                continue
            if pinned is not None and len(seps) != pinned:
                out.fail(job, f"{name}: {len(seps)} separators, pinned {pinned}")
            if g.n <= ORACLE_N_MAX and seps != sp.separators.enumerate_oracle(g):
                out.fail(job, f"{name}: closure differs from the oracle")
            if feral is not None and g is feral[0]:
                found = set(seps)
                if not all(s in found for s in feral[1]):
                    out.fail(job, f"{name}: a designated choice separator is missing")
                adj = checks.adjacency_of(g)
                sample = random.Random(len(seps)).sample(seps, min(100, len(seps)))
                if not all(checks.is_minimal_separator(adj, _mask(s)) for s in sample):
                    out.fail(job, f"{name}: output holds a non-separator")


def _certify_by_branching(sp, g):
    oracle = sp.separators.enumerate_oracle(g)
    return oracle, _branching_recipe(sp, g, oracle)


def _mask(vertices: Sequence[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# hunt: deep detector searches through the CLI, on edge-list files
# ---------------------------------------------------------------------------


class Hunt:
    name = "hunt"

    def setup(self, seed: int, size: dict, sp, workdir: Path) -> dict:
        fam = sp.families
        patterns = [(row["n"], [tuple(e) for e in row["edges"]]) for row in _read_jsonl("patterns.jsonl")]
        files: Dict[str, Tuple[str, int, list]] = {}

        def put(key: str, n: int, edges) -> str:
            files[key] = (_write_edge_list(workdir / f"{key}.el", n, edges), n, list(edges))
            return key

        for i, (n, edges) in enumerate(patterns):
            put(f"pattern{i}", n, edges)
        # jobs are (kind, graph key, pattern key or None, k or r), one list per kind
        creature, fixed_minor, minor, subgraph, cycle = [], [], [], [], []
        named = [(f"twisted_ladder({k})", fam.twisted_ladder(k)[0]) for k in range(2, size["twisted"] + 1)]
        named += [(f"skinny_ladder({k})", fam.skinny_ladder(k)[0]) for k in range(2, size["skinny_max"] + 1)]
        for name, g in named:
            put(name, *_n_edges(g))
            for k in range(1, 6):
                creature.append(("creature", name, None, k))
        put("twisted_ladder(1)", *_n_edges(fam.twisted_ladder(1)[0]))
        for i in ABSENT_MINORS[: size["absent_minors"]]:
            fixed_minor.append(("minor", "twisted_ladder(1)", f"pattern{i}", None))
        rng = random.Random(seed)
        for i in range(size["minor"]):
            key = put(f"minor_host{i}", *_connected_er(rng, 8, rng.choice((0.3, 0.4, 0.5))))
            minor.append(("minor", key, f"pattern{rng.randrange(len(patterns))}", None))
        for i in range(size["hosts"]):
            key = put(f"host{i}", *_connected_er(rng, rng.randint(10, 14), rng.choice((0.25, 0.35, 0.45))))
            for _ in range(size["per_host"]):
                subgraph.append(("subgraph", key, f"pattern{rng.randrange(len(patterns))}", None))
        for i in range(size["hosts"]):
            key = put(f"cycle_host{i}", *_connected_er(rng, rng.randint(10, 12), rng.choice((0.2, 0.3, 0.4))))
            for _ in range(size["per_host"]):
                cycle.append(("cycle", key, None, rng.randint(4, 8)))
        jobs = _interleave(creature, fixed_minor, minor, subgraph, cycle)
        return {"files": files, "jobs": jobs, "workdir": workdir}

    def argv(self, ctx: dict, job: int) -> List[str]:
        kind, key, pattern, param = ctx["jobs"][job]
        files = ctx["files"]
        argv = ["detect", kind, files[key][0]]
        if pattern is not None:
            argv.append(files[pattern][0])
        if kind == "creature":
            argv += ["--k", str(param)]
        elif kind == "cycle":
            argv += ["--r", str(param)]
        return argv + ["--stable-output", "--out", str(ctx["workdir"] / f"report{job}.json")]

    def steps(self, ctx: dict, sp) -> Iterator[Step]:
        cli = sp.cli
        for job in range(len(ctx["jobs"])):
            argv = self.argv(ctx, job)
            yield ctx["jobs"][job][0], (lambda argv=argv: cli.main(argv))

    def check(self, ctx: dict, outputs: list, out: Outcome, sp) -> None:
        det = sp.detectors
        files = ctx["files"]
        creature_jobs: Dict[str, Dict[int, Tuple[str, int]]] = {}
        for job, code in enumerate(outputs):
            if code is None:
                continue
            kind, key, pattern, param = ctx["jobs"][job]
            if code != 0:
                out.fail(job, f"exit code {code}")
                continue
            report = json.loads((ctx["workdir"] / f"report{job}.json").read_text())
            status = report["results"]["status"]
            witness = report["results"]["witness"]
            _, n, edges = files[key]
            if report["complete"] is False or status == det.UNKNOWN:
                out.fail(job, f"{kind} on {key}: {status}", undecided=True)
                continue
            if kind == "creature":
                creature_jobs.setdefault(key, {})[param] = (status, job)
                if status == det.FOUND:
                    g = sp.graphs.Graph(n, edges)
                    w = det.CreatureWitness(
                        tuple(witness["a_side"]), tuple(witness["b_side"]),
                        tuple(witness["x_row"]), tuple(witness["y_row"]), witness["order"],
                    )
                    bad = det.validate_creature(g, w)
                    if bad or w.order != param:
                        out.fail(job, f"invalid {param}-creature witness on {key}: {bad}")
                continue
            adj = checks.adjacency(n, edges)
            if kind == "cycle":
                if status == det.FOUND:
                    cyc = witness["vertices"]
                    if len(cyc) < param or not checks.is_induced_cycle(adj, cyc):
                        out.fail(job, f"cycle witness on {key} is not an induced cycle of length >= {param}")
                elif checks.has_induced_cycle_at_least(adj, param):
                    out.fail(job, f"absent verdict, but {key} has an induced cycle of length >= {param}")
                continue
            _, hn, hedges = files[pattern]
            hadj = checks.adjacency(hn, hedges)
            if kind == "subgraph":
                if status == det.FOUND:
                    if not checks.is_induced_embedding(adj, hadj, witness["vertices"]):
                        out.fail(job, f"subgraph witness for {pattern} in {key} is not induced")
                elif checks.induced_embedding(adj, hadj) is not None:
                    out.fail(job, f"absent verdict, but {pattern} embeds in {key}")
                continue
            # minor
            if status == det.FOUND:
                w = det.MinorWitness(
                    tuple(sorted((int(u), tuple(vs)) for u, vs in witness["branch_sets"].items()))
                )
                bad = det.validate_minor_witness(sp.graphs.Graph(n, edges), sp.graphs.Graph(hn, hedges), w)
                if bad:
                    out.fail(job, f"invalid minor witness for {pattern} in {key}: {bad}")
            else:
                out.note("unchecked_absent_minor")
        # pinned creature orders: exactly 4 on the twisted ladders, no 5-creature
        # on the skinny ones, and found verdicts must form a prefix of k = 1..5
        for key, by_k in creature_jobs.items():
            found = [k for k in sorted(by_k) if by_k[k][0] == det.FOUND]
            order = len(found)
            last = by_k[max(by_k)][1]  # an order problem is charged to the highest k
            if found != list(range(1, order + 1)):
                out.fail(last, f"{key}: found verdicts at k = {found} are not a prefix of 1..5")
            elif key.startswith("twisted") and order != 4:
                out.fail(last, f"{key}: creature order {order}, pinned 4")
            elif order == 5:
                out.fail(last, f"{key}: has a 5-creature")


# ---------------------------------------------------------------------------
# classify: tame/feral verdicts for small forbidden families
# ---------------------------------------------------------------------------

P3 = (3, [(0, 1), (1, 2)])
K3 = (3, [(0, 1), (0, 2), (1, 2)])
K13 = (4, [(0, 1), (0, 2), (0, 3)])
# criterion 11: family -> expected status
SPOT_CHECKS = (((P3,), "strongly_quasi_tame"), ((K3,), "feral"), ((K3, K13), "tame"))


class Classify:
    name = "classify"

    def setup(self, seed: int, size: dict, sp, workdir: Path) -> dict:
        patterns = [(row["n"], [tuple(e) for e in row["edges"]]) for row in _read_jsonl("patterns.jsonl")]
        pool = _read_jsonl("families.jsonl")  # sorted by traced work
        # the tail block is tail_block families of almost equal work (945-964
        # spans) just below the above_block most expensive ones, which no
        # round uses: with them the block's costs, and so the tail, would
        # spread over 160-390 ms
        top = len(pool) - size["above_block"]
        block = top - size["tail_block"]
        fixed = list(SPOT_CHECKS) + [
            (tuple(patterns[j] for j in row["members"]), None) for row in pool[block:top]
        ]
        rng = random.Random(seed)
        # one family from each of `seeded` equal-rank strata of the rest of the pool
        count = size["seeded"]
        seeded = []
        for i in range(count):
            row = pool[rng.randrange(i * block // count, (i + 1) * block // count)]
            seeded.append((tuple(patterns[j] for j in row["members"]), None))
        rng.shuffle(seeded)
        families = _interleave(fixed, seeded)
        Graph = sp.graphs.Graph
        built = [(tuple(Graph(n, e) for n, e in members), members, expected) for members, expected in families]
        return {"families": built}

    def steps(self, ctx: dict, sp) -> Iterator[Step]:
        cl = sp.classifier
        for graphs, _, _ in ctx["families"]:
            yield "classify", (lambda graphs=graphs: cl.classify(cl.ForbiddenFamily(graphs)))

    def check(self, ctx: dict, outputs: list, out: Outcome, sp) -> None:
        for job, ((_, members, expected), verdict) in enumerate(zip(ctx["families"], outputs)):
            if verdict is None:
                continue
            status = verdict.status
            if status == "inconclusive":
                out.fail(job, "inconclusive", undecided=True)
                continue
            if expected is not None and status != expected:
                out.fail(job, f"criterion 11: {status}, expected {expected}")
                continue
            if status != "feral":
                out.note("unchecked_tame_verdict")
                continue
            (ev,) = verdict.evidence.values()
            if expected is not None and ev.get("family_type") != "theta":
                out.fail(job, f"criterion 11: feral via {ev.get('family_type')}, expected theta")
            gadj = checks.adjacency(ev["n"], ev["edges"])
            for n, edges in members:
                if checks.induced_embedding(gadj, checks.adjacency(n, edges)) is not None:
                    out.fail(job, f"feral certificate {ev.get('instance')} contains a member")
                    break


WORKLOADS = {w.name: w for w in (Census(), Enumerate(), Hunt(), Classify())}
