"""sepscope benchmark: one workload per invocation, one closed-loop client.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/sepscope.  The client runs
rounds back to back until --seconds would be exceeded (always at least
one); each round is a fixed list of jobs in a fresh interpreter, so
module-level caches start cold as they do in a user's process.  Nothing is
parallel: the next job starts when the previous one has returned.

--trace 0 reports the end-to-end metrics, every time scaled to a nominal
machine by the speed probes of speed.py.  --trace 1 instead runs one
untraced round and two traced rounds, each in a fresh interpreter, and
reports the per-layer metrics of the traced rounds, the tracing overhead,
and whether every count repeated exactly.  --scale smoke shrinks every
input for the self-test; --scale roadmap builds the census corpus through
n = 8.  The last line of standard output is one JSON object; the lines
before it are the same figures for a reader.  Exit code 0 means every
answer checked out, 1 that some answer was wrong, 2 that the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 7
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

# span names reported with .calls and .self_s
TIMED_SPANS = (
    "graphs.are_isomorphic",
    "graphs.fingerprint",
    "graphs.Graph",
    "corpus.nonisomorphic_graphs",
    "separators.enumerate_oracle",
    "separators.enumerate_closure",
    "separators.enumerate_branching",
    "separators.domination_number",
    "detectors.find_creature",
    "detectors.find_induced_minor",
    "detectors.longest_induced_cycle_at_least",
    "detectors.find_induced_subgraph",
    "families.build",
    "classifier.classify",
    "classifier.forbids_family_type",
    "cli.main",
)
NODE_COUNTS = (
    "separators.enumerate_closure.out",
    "separators.enumerate_branching.nodes",
    "separators.enumerate_branching.states",
    "detectors.find_creature.nodes",
    "detectors.find_creature.nodes_max",
    "detectors.find_induced_minor.nodes",
    "detectors.longest_induced_cycle_at_least.nodes",
    "detectors.find_induced_subgraph.nodes",
)
UNDECIDED_LAYERS = ("separators", "detectors", "classifier", "cli")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(workload: str, seed: int, scale: str, setup_only: bool = False,
               trace: str = "", probe: bool = False) -> Tuple[float, dict]:
    """(seconds from spawn to READY, the worker's result document).

    A set-up-only worker's document holds just its setup_scale.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", trace]
    if probe:
        cmd.append("--probe")
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - started
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "READY" or not rest.strip():
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def round_figures(doc: dict) -> Dict[str, float]:
    """A round's figures from its job times scaled to the nominal machine (speed.py)."""
    job_ms = [s * f * 1000.0 for s, f in zip(doc["job_s"], doc["job_scale"])]
    tail, pct = stats.tail(job_ms)
    return {
        "jobs_per_s": doc["jobs"] / (sum(job_ms) / 1000.0),
        "job_ms.p50": stats.quartiles(job_ms)[1],
        "job_ms.tail": tail,
        "tail_pct": pct,
    }


def timed(args) -> Tuple[dict, List[str]]:
    rounds, setups = [], []
    started = perf_counter()
    while True:
        setup_s, doc = run_worker(args.workload, args.seed, args.scale, probe=True)
        setups.append((setup_s, doc["setup_scale"]))
        rounds.append(doc)
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setup_s, doc = run_worker(args.workload, args.seed, args.scale, setup_only=True)
        setups.append((setup_s, doc["setup_scale"]))
    raw_setups = [s for s, _ in setups]
    setups = [s * f for s, f in setups]
    speeds = [speed.NOMINAL_PROBE_S / t for doc in rounds for t in doc["probe_s"]]

    per_round = [round_figures(doc) for doc in rounds]
    attempted = sum(doc["jobs"] for doc in rounds)
    failed = sum(len(doc["failed"]) for doc in rounds)
    values = {
        "setup_s": stats.quartiles(setups)[1],
        "jobs_per_s": stats.quartiles([r["jobs_per_s"] for r in per_round])[1],
        "job_ms.p50": stats.quartiles([r["job_ms.p50"] for r in per_round])[1],
        "job_ms.tail": stats.quartiles([r["job_ms.tail"] for r in per_round])[1],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(doc["rss_kb"] for doc in rounds) / 1024.0,
    }
    jobs = rounds[0]["jobs"]
    raw_round_s = [doc["phase_s"] for doc in rounds]
    lines = [
        f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
        f"rounds {len(rounds)}  jobs per round J={jobs}  one client, closed loop",
        f"  times are scaled to a machine that runs the speed probe in {speed.NOMINAL_PROBE_S * 1000:g} ms; "
        f"this machine ran at {_q(speeds)} of that (quartiles of {len(speeds)} probes)",
        f"  unscaled: set-up {_q(raw_setups)} s, round {_q(raw_round_s)} s",
        f"  setup_s      {values['setup_s']:.4f} s    median of {len(setups)} fresh-interpreter set-ups "
        f"(quartiles {_q(setups)})",
        f"  jobs_per_s   {values['jobs_per_s']:.3f} 1/s  median over rounds "
        f"(quartiles {_q([r['jobs_per_s'] for r in per_round])})",
        f"  job_ms.p50   {values['job_ms.p50']:.4f} ms   median over rounds of the per-round median",
        f"  job_ms.tail  {values['job_ms.tail']:.3f} ms   p{per_round[0]['tail_pct']:.2f} of J={jobs} "
        f"(10 jobs beyond it), median over rounds",
        f"  ok_frac      {values['ok_frac']:.4f}      {attempted - failed} of {attempted} jobs answered "
        f"and checked ({failed} failed: raised, undecided or wrong)",
        f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
    ]
    return _finish(values, dict(END_TO_END), rounds, attempted, failed, lines)


def traced(args) -> Tuple[dict, List[str]]:
    _, base = run_worker(args.workload, args.seed, args.scale)
    docs = [run_worker(args.workload, args.seed, args.scale, trace=tag)[1] for tag in ("a", "b")]
    runs = [layer_values(doc) for doc in docs]
    values: Dict[str, float] = {}
    differ = []
    for name in runs[0]:
        a, b = runs[0][name], runs[1][name]
        if _unit(name) in ("s", "1/s"):
            values[name] = (a + b) / 2
        else:  # counts and ratios must repeat exactly
            values[name] = a
            if a != b:
                differ.append(name)
    wall = sum(doc["phase_s"] for doc in docs) / 2
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = base["phase_s"]
    values["trace.overhead_s"] = wall - base["phase_s"]
    values["trace.unattributed_s"] = wall - values["trace.layer_self_s"]
    values["trace.nondeterministic"] = len(differ)
    values["trace.missing_hooks"] = len(docs[0]["trace"]["missing_hooks"])
    units = {name: _unit(name) for name in values}

    lines = [f"workload {args.workload}  seed {args.seed}  scale {args.scale}  traced rounds 2 "
             f"+ 1 untraced, J={docs[0]['jobs']}"]
    width = max(len(n) for n in values)
    for name in sorted(values):
        lines.append(f"  {name:<{width}}  {values[name]:.6g} {units[name]}")
    lines.append(
        f"  traced wall {wall:.3f} s = layer self time {values['trace.layer_self_s']:.3f} s "
        f"+ outside any layer {values['trace.unattributed_s']:.3f} s; untraced wall "
        f"{base['phase_s']:.3f} s, so tracing costs {values['trace.overhead_s']:.3f} s"
    )
    if differ:
        lines.append("  FLAG: counts differ between the two traced runs: " + ", ".join(differ))
    if docs[0]["trace"]["missing_hooks"]:
        lines.append("  FLAG: trace points not found: " + ", ".join(docs[0]["trace"]["missing_hooks"]))
    rounds = [base] + docs
    attempted = sum(doc["jobs"] for doc in rounds)
    failed = sum(len(doc["failed"]) for doc in rounds)
    return _finish(values, units, rounds, attempted, failed, lines)


def layer_values(doc: dict) -> Dict[str, float]:
    tr = doc["trace"]
    spans, counters = tr["spans"], tr["counters"]
    under = {(child, parent): calls for child, parent, calls in tr["under"]}

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    out: Dict[str, float] = {}
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in NODE_COUNTS:
        out[name] = counters.get(name, 0)
    out["corpus.candidates"] = under.get(("graphs.Graph", "corpus.nonisomorphic_graphs"), 0)
    out["corpus.iso_useful_ratio"] = _ratio(
        counters.get("graphs.are_isomorphic.true", 0), calls("graphs.are_isomorphic"))
    out["separators.branching_useful_ratio"] = _ratio(
        counters.get("separators.enumerate_branching.filtered", 0),
        counters.get("separators.enumerate_branching.raw", 0))
    out["detectors.find_creature.nodes_per_s"] = _ratio(
        counters.get("detectors.find_creature.nodes", 0), self_s("detectors.find_creature"))
    instances = under.get(("families.build", "classifier.forbids_family_type"), 0)
    out["classifier.instances_checked"] = instances
    out["classifier.subgraph_calls_per_instance"] = _ratio(
        under.get(("detectors.find_induced_subgraph", "classifier.forbids_family_type"), 0), instances)
    for layer in UNDECIDED_LAYERS:
        out[f"{layer}.undecided"] = counters.get(f"{layer}.undecided", 0)
    out["trace.layer_self_s"] = sum(row["self_s"] for row in spans.values())
    out["trace.spans"] = tr["span_count"]
    return out


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    doc = {"trace": {"spans": {}, "counters": {}, "under": [], "span_count": 0}}
    names = list(layer_values(doc)) + [
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.unattributed_s",
        "trace.nondeterministic", "trace.missing_hooks",
    ]
    return [(name, _unit(name)) for name in names]


def _unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("_per_s"):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio") or name.endswith("_per_instance"):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _q(values: List[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{q1:.4g} / {med:.4g} / {q3:.4g}"


def _finish(values, units, rounds, attempted, failed, lines):
    wrong = sum(len(doc["wrong"]) for doc in rounds)
    problems = [p for doc in rounds for p in doc["problems"]]
    unchecked: Dict[str, int] = {}
    for doc in rounds:
        for key, count in doc["notes"].items():
            unchecked[key] = unchecked.get(key, 0) + count
    if unchecked:
        lines.append("  answers without an independent check: " + ", ".join(
            f"{key} x{count}" for key, count in sorted(unchecked.items())))
    lines.append(f"  checks: {'all answers correct' if not wrong else f'{wrong} wrong answers'}")
    lines += [f"  problem: {p}" for p in problems[:10]]
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sepscope benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="default")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sepscope" / "__init__.py").is_file():
        print(f"error: no sepscope package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = traced(args) if args.trace else timed(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
