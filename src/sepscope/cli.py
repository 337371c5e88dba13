"""Command line front end: gen / enum / detect / classify / verify.

Every subcommand assembles the same report envelope:

    {"command": ..., "inputs": {path: sha256}, "config": {...},
     "results": {...}, "elapsed_ms": ..., "complete": ...}

dumped with sorted keys so runs are byte-identical for identical inputs.
Outcomes are data, not errors: found, absent and a run-out budget
(`complete: false`) all exit 0.  Exit code 2 means malformed input, an
out-of-range option, or an option the family, kind or route would ignore;
verify exits 1 when a criterion fails.
--stable-output zeroes elapsed_ms for diff-friendly golden files.

A budget is --budget, else the keyword-only `budget` default of the route
run; the route's docstring gives its unit.
"""

import argparse
import dataclasses
import functools
import hashlib
import inspect
import json
import re
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
from .graphs import BudgetExhausted, Graph, GraphError, format_edge_list, parse_edge_list
from .separators import enumerate_branching, enumerate_closure, enumerate_oracle


class CliError(Exception):
    """Unusable input or parameters; maps to exit code 2."""


def _budget(args, route) -> int:
    """The --budget flag, else route's own default."""
    if args.budget is not None:
        if args.budget < 0:
            raise CliError("--budget must be nonnegative")
        return args.budget
    return inspect.unwrap(route).__kwdefaults__["budget"]


# argparse dest -> what the user typed, for the optional inputs of detect and enum
_INPUT_LABELS = {"pattern": "a pattern graph file", "k": "--k", "r": "--r"}


def _refuse_unread(args, command: str, reads: Sequence[str]) -> None:
    """CliError naming each optional input that args sets but command does
    not read."""
    unread = [label for dest, label in _INPUT_LABELS.items()
              if dest not in reads and getattr(args, dest, None) is not None]
    if unread:
        raise CliError(f"{command} does not take " + ", ".join(unread))


def _load_graph(path: str, digests: Dict[str, str]) -> Graph:
    """Parse the edge-list file at path, reading it once; digests[path] gets
    the sha256 of the bytes parsed."""
    p = Path(path)
    if p.is_dir():
        raise CliError(f"is a directory, not an edge-list file: {path}")
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    data = p.read_bytes()
    try:
        g = parse_edge_list(data.decode())
    except (GraphError, ValueError) as exc:
        raise CliError(f"{path}: {exc}")
    digests[path] = hashlib.sha256(data).hexdigest()
    return g


def _report(command: str, inputs: Dict[str, str], config: Dict, results, complete: bool,
            elapsed_ms: int, stable: bool) -> Dict:
    """The report envelope; inputs maps each input path to its sha256."""
    return {
        "command": command,
        "inputs": inputs,
        "config": config,
        "results": results,
        "elapsed_ms": 0 if stable else elapsed_ms,
        "complete": complete,
    }


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(report: Dict, args, default_stdout: bool = True) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        _write(Path(args.out), text + "\n")
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
    return {"vertices": list(w)}


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


# FamilySpec field -> the gen option that sets it, for generate's messages
_GEN_OPTIONS = {"k": "--k", "path_lengths": "--len", "arm_length": "--arm", "c": "--c",
                "layout_seed": "--seed", "base_graph": "a base graph file"}
_GEN_FIELD = re.compile(r"\b(%s)\b" % "|".join(_GEN_OPTIONS))


def cmd_gen(args) -> int:
    family = args.family.replace("-", "_")
    if family not in FAMILY_NAMES:
        raise CliError(f"unknown family {args.family!r}; choose from "
                       + ", ".join(n.replace("_", "-") for n in FAMILY_NAMES))
    inputs: Dict[str, str] = {}
    base = _load_graph(args.base, inputs) if args.base else None
    spec = FamilySpec(
        family,
        k=args.k,
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
        raise CliError(_GEN_FIELD.sub(lambda m: _GEN_OPTIONS[m[1]], str(exc)))
    ok, violations = verify_witness(g, spec, w)
    if not ok:
        raise CliError("generator produced an invalid witness: " + "; ".join(violations))

    stem = args.out or f"{family}" + (f"_k{args.k}" if args.k is not None else "")
    stem = stem[:-3] if stem.endswith(".el") else stem
    el_path = Path(stem + ".el")
    side_path = Path(stem + ".witness.json")
    _write(el_path, format_edge_list(g, comment=f"{family} n={g.n} m={g.m}"))
    params = {"k": args.k, "len": args.len, "arm": args.arm, "c": args.c, "seed": args.seed}
    sidecar = {
        "family": family,
        "params": params,
        "n": g.n,
        "m": g.m,
        "roles": {name: list(vs) for name, vs in sorted(w.role_map.items())},
        "verified": True,
    }
    _write(side_path, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    elapsed = int((time.monotonic() - started) * 1000)
    for p in (el_path, side_path):
        inputs[str(p)] = hashlib.sha256(p.read_bytes()).hexdigest()

    report = _report(
        "gen", inputs, {"family": family, **params},
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
    inputs: Dict[str, str] = {}
    _refuse_unread(args, f"enum --algo {args.algo}", ("k",) if args.algo == "branching" else ())
    g = _load_graph(args.graph, inputs)
    started = time.monotonic()
    extra = {}
    if args.algo != "branching":
        route = enumerate_oracle if args.algo == "oracle" else enumerate_closure
        budget = _budget(args, route)
        try:
            seps, complete = route(g, budget=budget), True
        except BudgetExhausted:
            seps, complete = [], False
    else:
        if args.k is None:
            raise CliError("--algo branching needs --k (domination bound)")
        budget = _budget(args, enumerate_branching)
        try:
            res = enumerate_branching(g, args.k, budget=budget)
        except ValueError as exc:
            raise CliError(str(exc))
        seps = res.filtered
        complete = res.complete
        extra = {
            "raw_count": len(res.raw),
            "filtered_count": len(res.filtered),
            "nodes": res.nodes,
            "states": res.states,
            "k": args.k,
        }
    elapsed = int((time.monotonic() - started) * 1000)
    results = result_doc(g, args.algo, seps, 0 if args.stable_output else elapsed,
                         complete, **extra)
    report = _report(
        "enum", inputs,
        {"algo": args.algo, "k": args.k, "budget": budget},
        results, complete, elapsed, args.stable_output,
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


# what each detect kind reads besides the host graph and --budget
_DETECT_READS = {"creature": ("k",), "subgraph": ("pattern",), "minor": ("pattern",), "cycle": ("r",)}


def cmd_detect(args) -> int:
    _refuse_unread(args, f"detect {args.kind}", _DETECT_READS[args.kind])
    inputs: Dict[str, str] = {}
    g = _load_graph(args.graph, inputs)
    started = time.monotonic()
    config: Dict = {"kind": args.kind}
    if args.kind == "creature":
        if args.k is None:
            raise CliError("detect creature needs --k")
        route, arg = find_creature, args.k
        config.update(k=args.k)
    elif args.kind in ("subgraph", "minor"):
        if not args.pattern:
            raise CliError(f"detect {args.kind} needs a pattern graph file")
        h = _load_graph(args.pattern, inputs)
        route = find_induced_subgraph if args.kind == "subgraph" else find_induced_minor
        arg = h
        config.update(pattern_n=h.n, pattern_m=h.m)
    else:
        if args.r is None:
            raise CliError("detect cycle needs --r")
        route, arg = longest_induced_cycle_at_least, args.r
        config.update(r=args.r)
    budget = _budget(args, route)
    config.update(budget=budget)
    try:
        verdict = route(g, arg, budget=budget)
    except ValueError as exc:
        raise CliError(str(exc))
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
    inputs: Dict[str, str] = {}
    members = tuple(_load_graph(p, inputs) for p in paths)
    budget = _budget(args, classify)
    started = time.monotonic()
    try:
        verdict = classify(ForbiddenFamily(members), k_max=args.kmax, seed=args.seed, budget=budget)
    except ValueError as exc:
        raise CliError(str(exc).replace("k_max", "--kmax"))
    elapsed = int((time.monotonic() - started) * 1000)
    report = _report(
        "classify", inputs,
        {"kmax": args.kmax, "seed": args.seed, "budget": budget},
        dataclasses.asdict(verdict), verdict.status != "inconclusive", elapsed,
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
        "verify", {},
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged,
    and building it costs more than a small detection."""
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
    p.add_argument("--budget", type=int, help="work budget, unit per --algo")
    common(p)
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("detect", help="hunt a witness structure in a graph file")
    p.add_argument("kind", choices=("creature", "subgraph", "minor", "cycle"))
    p.add_argument("graph")
    p.add_argument("pattern", nargs="?", help="pattern graph file (subgraph/minor)")
    p.add_argument("--k", type=int, help="creature order")
    p.add_argument("--r", type=int, help="minimum induced cycle length")
    p.add_argument("--budget", type=int, help="search node budget")
    common(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("classify", help="tame/feral verdict for a directory of graphs")
    p.add_argument("dir")
    p.add_argument("--kmax", type=int, default=6, help="largest k of the sampled ladder scan")
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
