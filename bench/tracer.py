"""Spans around sepscope's public functions, installed from outside.

Modules inside the package import each other's functions by name, so a
function is wrapped in every namespace it is called through (for example
sepscope.corpus.are_isomorphic and sepscope.cli.find_creature), and Graph
construction is wrapped on the class.  Each call records a span (name,
start, end, parent span, job id) in memory; self time is a span's duration
minus the time its direct children cover.  Counts that a layer returns
(search nodes, branching states, outputs) are read from return values.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# span name -> the (module, attribute) names it is called through
HOOKS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "graphs.are_isomorphic": (("sepscope.corpus", "are_isomorphic"),),
    "graphs.fingerprint": (("sepscope.corpus", "fingerprint"),),
    "corpus.nonisomorphic_graphs": (("sepscope.corpus", "nonisomorphic_graphs"),),
    "separators.enumerate_oracle": (
        ("sepscope.separators", "enumerate_oracle"),
        ("sepscope.cli", "enumerate_oracle"),
    ),
    "separators.enumerate_closure": (
        ("sepscope.separators", "enumerate_closure"),
        ("sepscope.cli", "enumerate_closure"),
    ),
    "separators.enumerate_branching": (
        ("sepscope.separators", "enumerate_branching"),
        ("sepscope.cli", "enumerate_branching"),
    ),
    "separators.domination_number": (("sepscope.separators", "domination_number"),),
    "detectors.find_creature": (
        ("sepscope.detectors", "find_creature"),
        ("sepscope.cli", "find_creature"),
    ),
    "detectors.find_induced_minor": (
        ("sepscope.detectors", "find_induced_minor"),
        ("sepscope.cli", "find_induced_minor"),
    ),
    "detectors.longest_induced_cycle_at_least": (
        ("sepscope.detectors", "longest_induced_cycle_at_least"),
        ("sepscope.cli", "longest_induced_cycle_at_least"),
    ),
    "detectors.find_induced_subgraph": (
        ("sepscope.detectors", "find_induced_subgraph"),
        ("sepscope.classifier", "find_induced_subgraph"),
        ("sepscope.cli", "find_induced_subgraph"),
    ),
    "families.build": tuple(
        ("sepscope.classifier", name)
        for name in (
            "theta", "prism", "pyramid", "ladder_theta", "ladder_prism",
            "claw", "paw", "sampled_ladder_instance",
        )
    ),
    "classifier.classify": (("sepscope.classifier", "classify"), ("sepscope.cli", "classify")),
    "classifier.forbids_family_type": (("sepscope.classifier", "forbids_family_type"),),
    "cli.main": (("sepscope.cli", "main"),),
}
GRAPH_INIT = "graphs.Graph"

_UNDECIDED_STATUS = "unknown_budget"


def _verdict_counts(name: str):
    """Counters from a detector's SearchVerdict: nodes, largest search, undecided."""

    def count(result) -> Dict[str, int]:
        out = {f"{name}.nodes": result.nodes_explored, f"max:{name}.nodes_max": result.nodes_explored}
        if result.status == _UNDECIDED_STATUS:
            out["detectors.undecided"] = 1
        return out

    return count


def _branching_counts(result) -> Dict[str, int]:
    out = {
        "separators.enumerate_branching.nodes": result.nodes,
        "separators.enumerate_branching.states": result.states,
        "separators.enumerate_branching.raw": len(result.raw),
        "separators.enumerate_branching.filtered": len(result.filtered),
    }
    if not result.complete:
        out["separators.undecided"] = 1
    return out


# counters read from return values: span name -> fn(result) -> {counter: increment}
COUNTERS: Dict[str, Callable] = {
    "graphs.are_isomorphic": lambda r: {"graphs.are_isomorphic.true": int(bool(r))},
    "separators.enumerate_closure": lambda r: {"separators.enumerate_closure.out": len(r)},
    "separators.enumerate_branching": _branching_counts,
    "classifier.classify": lambda r: {"classifier.undecided": int(r.status == "inconclusive")},
    **{
        name: _verdict_counts(name)
        for name in HOOKS
        if name.startswith("detectors.")
    },
}
# exceptions that mean "undecided" rather than "failed"
UNDECIDED_EXCEPTIONS = {
    "CapExceeded": "separators.undecided",
    "RepresentativeBudget": "classifier.undecided",
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_id = array("i")
        self.counters: Dict[str, int] = {}
        self.job = -1
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        count = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job_id.append(tracer.job)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end[idx] = perf_counter()
                stack.pop()
                bucket = UNDECIDED_EXCEPTIONS.get(type(exc).__name__)
                if bucket:
                    tracer.bump({bucket: 1})
                raise
            tracer.end[idx] = perf_counter()
            stack.pop()
            if count is not None:
                tracer.bump(count(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def bump(self, counts: Dict[str, int]) -> None:
        """Add each count to its counter; keys starting with "max:" keep the largest."""
        for key, inc in counts.items():
            if key.startswith("max:"):
                key = key[4:]
                self.counters[key] = max(self.counters.get(key, 0), inc)
            else:
                self.counters[key] = self.counters.get(key, 0) + inc

    # -- installation --------------------------------------------------------

    def install(self, hooks: Dict[str, Sequence[Tuple[str, str]]] = HOOKS) -> None:
        for name, points in hooks.items():
            for modname, attr in points:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._undo.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
        graph_cls = getattr(sys.modules.get("sepscope.graphs"), "Graph", None)
        if graph_cls is None:
            self.missing.append("sepscope.graphs.Graph")
            return
        init = graph_cls.__init__
        self._undo.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self.wrap(GRAPH_INIT, init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as tab-separated rows: index, name, start, end, parent, job."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.job_id[i]}\n"
                )


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread, so their intervals are
    disjoint sub-intervals of the parent's and subtracting their durations
    removes exactly the covered part.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def summarize(tracer: Tracer) -> Tuple[Dict[str, Dict[str, float]], Dict[Tuple[str, Optional[str]], int]]:
    """(calls and self seconds per span name, calls per (name, parent name))."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    by_name: Dict[str, Dict[str, float]] = {}
    under: Dict[Tuple[str, Optional[str]], int] = {}
    names = tracer.names
    for i, nid in enumerate(tracer.name_id):
        row = by_name.setdefault(names[nid], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = tracer.parent[i]
        key = (names[nid], names[tracer.name_id[p]] if p >= 0 else None)
        under[key] = under.get(key, 0) + 1
    return by_name, under
