"""One round of one workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N [--scale S] [--setup-only] [--probe | --trace TAG]

Imports sepscope from the checkout's src/, makes the inputs, prints READY,
runs the round's jobs back to back, then checks every answer and prints one
JSON line.  With --probe the round runs under the speed sampler and the
line carries each job's scale to the nominal machine (see speed.py).  With
--setup-only it probes the machine's speed after READY, prints that as one
JSON line and exits, which lets the client time interpreter start plus
input generation on its own.  With --trace TAG
the jobs run under the tracer and its spans go to .bench_out/spans/.
Protocol lines go to the original standard output; anything the package
prints goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

import speed  # noqa: E402  (bench/ is the script's directory)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Package:
    """The sepscope modules a workload calls, looked up at call time."""

    def __init__(self) -> None:
        import sepscope.classifier
        import sepscope.cli
        import sepscope.corpus
        import sepscope.detectors
        import sepscope.families
        import sepscope.graphs
        import sepscope.separators

        self.classifier = sepscope.classifier
        self.cli = sepscope.cli
        self.corpus = sepscope.corpus
        self.detectors = sepscope.detectors
        self.families = sepscope.families
        self.graphs = sepscope.graphs
        self.separators = sepscope.separators


def import_package() -> Package:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sepscope

    where = Path(sepscope.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"imported sepscope from {where}, not from {src}")
    return Package()


def run_round(workload, ctx: dict, sp, tracer=None, sampler=None):
    """Run every job once, under the speed sampler if one is given.

    Returns (kinds, outputs, errors, job seconds, job (start, end) times,
    phase seconds); job and phase times leave out the probes' time.
    """
    kinds, outputs, errors, secs, spans = [], [], {}, [], []
    probing = sampler.within if sampler is not None else (lambda t0, t1: 0.0)
    started = perf_counter()
    for job, (kind, thunk) in enumerate(workload.steps(ctx, sp)):
        if tracer is not None:
            tracer.job = job
        t0 = perf_counter()
        try:
            result = thunk()
        except Exception:
            result = None
            errors[job] = traceback.format_exc(limit=4)
        t1 = perf_counter()
        secs.append(t1 - t0 - probing(t0, t1))
        spans.append((t0, t1))
        kinds.append(kind)
        outputs.append(result)
    ended = perf_counter()
    return kinds, outputs, errors, secs, spans, ended - started - probing(started, ended)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="default")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default="")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    proto = sys.stdout
    sys.stdout = sys.stderr
    sp = import_package()

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SCALES[args.scale][args.workload]
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workload.setup(args.seed, size, sp, workdir)
        proto.write("READY\n")
        proto.flush()
        if args.setup_only:
            # the machine's speed right after set-up, to scale the set-up time
            edge = speed.probes(speed.PROBES_AT_EDGE)
            proto.write(json.dumps({"setup_scale": speed.scale(edge)}) + "\n")
            proto.flush()
            return 0

        tracer = sampler = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                kinds, outputs, errors, secs, spans, phase = run_round(workload, ctx, sp, tracer)
            finally:
                tracer.uninstall()
        elif args.probe:
            taken = speed.probes(speed.PROBES_AT_EDGE)
            with speed.Sampler() as sampler:
                kinds, outputs, errors, secs, spans, phase = run_round(workload, ctx, sp, sampler=sampler)
            taken += sampler.taken + speed.probes(speed.PROBES_AT_EDGE)
        else:
            kinds, outputs, errors, secs, spans, phase = run_round(workload, ctx, sp)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        outcome = workloads.Outcome()
        for job, tb in errors.items():
            exc_name = tb.strip().splitlines()[-1].split(":")[0].rsplit(".", 1)[-1]
            outcome.fail(job, "raised\n" + tb, undecided=exc_name in tracing.UNDECIDED_EXCEPTIONS)
        workload.check(ctx, outputs, outcome, sp)

        doc = {
            "jobs": len(outputs),
            "kinds": kinds,
            "job_s": secs,
            "phase_s": phase,
            "rss_kb": rss_kb,
            "failed": sorted(outcome.failed),
            "undecided": sorted(outcome.undecided),
            "wrong": sorted(outcome.wrong),
            "problems": outcome.problems,
            "notes": outcome.notes,
        }
        if tracer is not None:
            doc["trace"] = layer_report(tracer, outcome, args)
        if sampler is not None:
            doc["job_scale"] = speed.scales(spans, taken)
            doc["setup_scale"] = speed.scale(taken[: speed.PROBES_AT_EDGE])
            doc["probe_s"] = [took for _, took in taken]
        proto.write(json.dumps(doc) + "\n")
        proto.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_report(tracer, outcome, args) -> dict:
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    # one file per workload, scale and traced round: the latest run overwrites it
    tracer.write(spans_dir / f"{args.workload}-{args.scale}-{args.trace}.tsv")
    spans, under = tracing.summarize(tracer)
    counters = dict(tracer.counters)
    if args.workload == "hunt":  # the CLI reports undecided outcomes only in its report files
        counters["cli.undecided"] = len(outcome.undecided)
    return {
        "spans": spans,
        "under": [[child, parent, calls] for (child, parent), calls in under.items()],
        "counters": counters,
        "missing_hooks": tracer.missing,
        "span_count": len(tracer.start),
    }


if __name__ == "__main__":
    sys.exit(main())
