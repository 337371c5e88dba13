"""Command line front end: gen / enum / detect / classify / verify.

Every subcommand assembles the same report envelope:

    {"command": ..., "inputs": {path: sha256}, "config": {...},
     "results": {...}, "elapsed_ms": ..., "complete": ...}

dumped with sorted keys so runs are byte-identical for identical inputs.
Detection outcomes are data, not errors: found, absent and
budget-exhausted all exit 0; only unusable inputs exit nonzero.
--stable-output zeroes elapsed_ms for diff-friendly golden files.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import acceptance
from .classifier import ForbiddenFamily, classify
from .detectors import (
    CreatureWitness,
    MinorWitness,
    find_creature,
    find_induced_minor,
    find_induced_subgraph,
    longest_induced_cycle_at_least,
)
from .families import FAMILY_NAMES, FamilySpec, generate, verify_witness
from .graphs import Graph, GraphError, format_edge_list, parse_edge_list
from .separators import (
    CapExceeded,
    enumerate_branching,
    enumerate_closure,
    enumerate_oracle,
)


class CliError(Exception):
    """Unusable input or parameters; maps to exit code 2."""


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _default_budget(fallback: int) -> int:
    env = os.environ.get("SEPSCOPE_BUDGET")
    if env is None:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise CliError(f"SEPSCOPE_BUDGET must be an integer, got {env!r}")


def _load_graph(path: str) -> Graph:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    try:
        return parse_edge_list(p.read_text())
    except (GraphError, ValueError) as exc:
        raise CliError(f"{path}: {exc}")


def _report(command: str, inputs: List[str], config: Dict, results, complete: bool,
            elapsed_ms: int, stable: bool) -> Dict:
    return {
        "command": command,
        "inputs": {p: _sha256(p) for p in inputs},
        "config": config,
        "results": results,
        "elapsed_ms": 0 if stable else elapsed_ms,
        "complete": complete,
    }


def _emit(report: Dict, args, default_stdout: bool = True) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.json or (default_stdout and not args.out):
        print(text)


def result_doc(
    g: Graph,
    algorithm: str,
    separators: Sequence[Tuple[int, ...]],
    elapsed_ms: int,
    complete: bool,
    **extra,
) -> dict:
    """The `results` block of an enum report."""
    doc = {
        "n": g.n,
        "m": g.m,
        "algorithm": algorithm,
        "separators": [list(s) for s in sorted(separators)],
        "count": len(separators),
        "elapsed_ms": int(elapsed_ms),
        "complete": bool(complete),
    }
    doc.update(extra)
    return doc


def _witness_json(w) -> Optional[Dict]:
    if w is None:
        return None
    if isinstance(w, CreatureWitness):
        return {
            "a_side": list(w.a_side),
            "b_side": list(w.b_side),
            "x_row": list(w.x_row),
            "y_row": list(w.y_row),
            "order": w.order,
        }
    if isinstance(w, MinorWitness):
        return {"branch_sets": {str(hv): list(vs) for hv, vs in w.branch_sets}}
    if isinstance(w, (tuple, list)):
        return {"vertices": list(w)}
    return {"value": repr(w)}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _parse_lengths(text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"--len expects a comma-separated integer list, got {text!r}")


def cmd_gen(args) -> int:
    family = args.family.replace("-", "_")
    if family not in FAMILY_NAMES:
        raise CliError(f"unknown family {args.family!r}; choose from "
                       + ", ".join(n.replace("_", "-") for n in FAMILY_NAMES))
    base = None
    inputs = []
    if family == "subdivision":
        if not args.base:
            raise CliError("subdivision needs a base graph file argument")
        base = _load_graph(args.base)
        inputs.append(args.base)
    elif args.base:
        raise CliError("only the subdivision family takes a base graph file")
    spec = FamilySpec(
        family,
        k=args.k if args.k is not None else 0,
        path_lengths=_parse_lengths(args.len),
        arm_length=args.arm,
        c=args.c,
        base_graph=base,
        layout_seed=args.seed,
    )
    started = time.monotonic()
    try:
        g, w = generate(spec)
    except ValueError as exc:
        raise CliError(str(exc))
    ok, violations = verify_witness(g, spec, w)
    if not ok:
        raise CliError("generator produced an invalid witness: " + "; ".join(violations))

    stem = args.out or f"{family}" + (f"_k{args.k}" if args.k is not None else "")
    stem = stem[:-3] if stem.endswith(".el") else stem
    el_path = Path(stem + ".el")
    side_path = Path(stem + ".witness.json")
    el_path.write_text(format_edge_list(g, comment=f"{family} n={g.n} m={g.m}"))
    sidecar = {
        "family": family,
        "params": {
            "k": args.k,
            "len": args.len,
            "arm": args.arm,
            "c": args.c,
            "seed": args.seed,
        },
        "n": g.n,
        "m": g.m,
        "roles": {name: list(vs) for name, vs in sorted(w.role_map.items())},
        "verified": True,
    }
    side_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    elapsed = int((time.monotonic() - started) * 1000)

    report = _report(
        "gen", inputs + [str(el_path), str(side_path)],
        {"family": family, "k": args.k, "len": args.len, "arm": args.arm,
         "c": args.c, "seed": args.seed},
        {"n": g.n, "m": g.m, "edge_list": str(el_path), "witness": str(side_path)},
        True, elapsed, args.stable_output,
    )
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"wrote {el_path} ({g.n} vertices, {g.m} edges) and {side_path}")
    return 0


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------


def cmd_enum(args) -> int:
    g = _load_graph(args.graph)
    budget = args.budget if args.budget is not None else _default_budget(2_000_000)
    started = time.monotonic()
    extra = {}
    if args.algo == "oracle":
        try:
            seps = enumerate_oracle(g)
        except CapExceeded as exc:
            raise CliError(str(exc))
        complete = True
    elif args.algo == "closure":
        seps = enumerate_closure(g)
        complete = True
    else:
        if args.k is None:
            raise CliError("--algo branching needs --k (domination bound)")
        res = enumerate_branching(g, args.k, node_cap=budget)
        seps = res.filtered
        complete = res.complete
        extra = {
            "raw_count": len(res.raw),
            "filtered_count": len(res.filtered),
            "nodes": res.nodes,
            "states": res.states,
            "k": res.k,
        }
    elapsed = int((time.monotonic() - started) * 1000)
    results = result_doc(g, args.algo, seps, 0 if args.stable_output else elapsed,
                         complete, **extra)
    report = _report(
        "enum", [args.graph],
        {"algo": args.algo, "k": args.k, "budget": budget},
        results, complete, elapsed, args.stable_output,
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def cmd_detect(args) -> int:
    g = _load_graph(args.graph)
    started = time.monotonic()
    config: Dict = {"kind": args.kind}
    inputs = [args.graph]
    if args.kind == "creature":
        if args.k is None:
            raise CliError("detect creature needs --k")
        budget = args.budget if args.budget is not None else _default_budget(100_000_000)
        verdict = find_creature(g, args.k, budget=budget)
        config.update(k=args.k, budget=budget)
    elif args.kind in ("subgraph", "minor"):
        if not args.pattern:
            raise CliError(f"detect {args.kind} needs a pattern graph file")
        h = _load_graph(args.pattern)
        inputs.append(args.pattern)
        if args.kind == "subgraph":
            budget = args.budget if args.budget is not None else _default_budget(10_000_000)
            verdict = find_induced_subgraph(g, h, budget=budget)
        else:
            budget = args.budget if args.budget is not None else _default_budget(2_000_000)
            try:
                verdict = find_induced_minor(g, h, budget=budget)
            except ValueError as exc:
                raise CliError(str(exc))
        config.update(budget=budget, pattern_n=h.n, pattern_m=h.m)
    else:
        if args.r is None:
            raise CliError("detect cycle needs --r")
        budget = args.budget if args.budget is not None else _default_budget(10_000_000)
        verdict = longest_induced_cycle_at_least(g, args.r, budget=budget)
        config.update(r=args.r, budget=budget)
    elapsed = int((time.monotonic() - started) * 1000)
    results = {
        "status": verdict.status,
        "nodes_explored": verdict.nodes_explored,
        "witness": _witness_json(verdict.witness),
    }
    report = _report("detect", inputs, config, results,
                     verdict.status != "unknown_budget", elapsed, args.stable_output)
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise CliError(f"not a directory: {args.dir}")
    paths = sorted(str(p) for p in root.iterdir()
                   if p.is_file() and p.suffix in (".el", ".txt", ".edges"))
    if not paths:
        raise CliError(f"no edge-list files (.el/.txt/.edges) in {args.dir}")
    members = tuple(_load_graph(p) for p in paths)
    budget = args.budget if args.budget is not None else _default_budget(10_000_000)
    started = time.monotonic()
    try:
        verdict = classify(
            ForbiddenFamily(members),
            k_max=args.kmax,
            length_cap=args.length_cap,
            seed=args.seed,
            budget=budget,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    elapsed = int((time.monotonic() - started) * 1000)
    report = _report(
        "classify", paths,
        {"kmax": args.kmax, "length_cap": args.length_cap, "seed": args.seed,
         "budget": budget},
        verdict.as_dict(), verdict.status != "inconclusive", elapsed,
        args.stable_output,
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    started = time.monotonic()
    rows = acceptance.run_all(args.filter)
    elapsed = int((time.monotonic() - started) * 1000)
    if not rows:
        raise CliError(f"no acceptance criterion matches filter {args.filter!r}")
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  criterion {name}: {detail}")
    failed = [name for name, ok, _ in rows if not ok]
    report = _report(
        "verify", [],
        {"filter": args.filter},
        {"criteria": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows],
         "failed": failed},
        not failed, elapsed, args.stable_output,
    )
    _emit(report, args, default_stdout=False)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sepscope",
        description="minimal separators: generate, enumerate, detect, classify",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report (or, for gen, the file stem)")
        p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
        p.add_argument("--stable-output", action="store_true",
                       help="zero elapsed_ms for byte-stable reports")

    p = sub.add_parser("gen", help="generate a named family instance")
    p.add_argument("family", help="family name, e.g. theta or skinny-ladder")
    p.add_argument("base", nargs="?", help="base graph file (subdivision only)")
    p.add_argument("--k", type=int)
    p.add_argument("--len", help="comma-separated path lengths")
    p.add_argument("--arm", type=int, help="arm length (long-claw/long-paw/ferals)")
    p.add_argument("--c", type=int, help="feral parameter c")
    p.add_argument("--seed", type=int, help="layout seed for randomized layouts")
    common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("enum", help="enumerate minimal separators of a graph file")
    p.add_argument("graph")
    p.add_argument("--algo", choices=("oracle", "closure", "branching"), default="closure")
    p.add_argument("--k", type=int, help="domination bound for --algo branching")
    p.add_argument("--budget", type=int, help="node cap for branching")
    common(p)
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("detect", help="hunt a witness structure in a graph file")
    p.add_argument("kind", choices=("creature", "subgraph", "minor", "cycle"))
    p.add_argument("graph")
    p.add_argument("pattern", nargs="?", help="pattern graph file (subgraph/minor)")
    p.add_argument("--k", type=int, help="creature order")
    p.add_argument("--r", type=int, help="minimum induced cycle length")
    p.add_argument("--budget", type=int, help="search node budget (env SEPSCOPE_BUDGET)")
    common(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("classify", help="tame/feral verdict for a directory of graphs")
    p.add_argument("dir")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--length-cap", type=int, dest="length_cap")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=int)
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run the built-in acceptance suite")
    p.add_argument("--filter", help="criterion number or keyword")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
