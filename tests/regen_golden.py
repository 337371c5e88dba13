"""Golden `--stable-output` reports: the fixed command list, and its regeneration.

Each case is one CLI command whose JSON report is checked in as
tests/golden/<name>.json; tests/test_golden.py reruns every command and
compares the bytes.  The input graphs come from the family generators and
are written to a scratch directory; the commands run there with relative
paths, because a report's `inputs` keys are the paths as given.

Regenerate every file (and list the ones that change in CHANGES.md, with
the reason) with:

    PYTHONPATH=src python tests/regen_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from sepscope.cli import main
from sepscope.families import FamilySpec, claw_feral, generate
from sepscope.graphs import Graph, format_edge_list

GOLDEN = Path(__file__).resolve().parent / "golden"

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
P3 = Graph(3, [(0, 1), (1, 2)])
CLAW = Graph(4, [(0, 1), (0, 2), (0, 3)])


def _family(name: str, k: int) -> Graph:
    return generate(FamilySpec(name, k=k))[0]


def write_inputs(root: Path) -> None:
    """The edge-list files every case reads, under root."""
    graphs = {
        "skinny_ladder3.el": _family("skinny_ladder", 3),
        "theta3.el": _family("theta", 3),
        "prism3.el": _family("prism", 3),
        "twisted_ladder2.el": _family("twisted_ladder", 2),
        "twisted_ladder3.el": _family("twisted_ladder", 3),
        "k4.el": K4,
        "k3.el": K3,
        "claw_feral1_6.el": claw_feral(1, 6)[0],
        "theta_dir/theta3.el": _family("theta", 3),
        "k3_dir/k3.el": K3,
        "claw_dir/claw.el": CLAW,
        "p3_dir/p3.el": P3,
    }
    for rel, g in graphs.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(format_edge_list(g))


def _cases() -> Dict[str, List[str]]:
    cases: Dict[str, List[str]] = {}
    for stem in ("skinny_ladder3", "theta3", "prism3"):
        el = f"{stem}.el"
        cases[f"enum_oracle_{stem}"] = ["enum", el, "--algo", "oracle"]
        cases[f"enum_closure_{stem}"] = ["enum", el, "--algo", "closure"]
        for k in (1, 2, 3):
            cases[f"enum_branching_k{k}_{stem}"] = ["enum", el, "--algo", "branching", "--k", str(k)]
    for k in (2, 3):
        cases[f"enum_closure_twisted_ladder{k}"] = ["enum", f"twisted_ladder{k}.el", "--algo", "closure"]
    # four runs of 4 and 10 degree-2 vertices, which the closure cuts to three
    cases["enum_closure_claw_feral1_6"] = ["enum", "claw_feral1_6.el", "--algo", "closure"]
    cases["enum_branching_k3_budget2000_twisted_ladder2"] = [
        "enum", "twisted_ladder2.el", "--algo", "branching", "--k", "3", "--budget", "2000"]
    for k in range(1, 6):
        cases[f"detect_creature_k{k}_twisted_ladder3"] = [
            "detect", "creature", "twisted_ladder3.el", "--k", str(k)]
    for host in ("skinny_ladder3", "prism3"):
        cases[f"detect_minor_k4_{host}"] = ["detect", "minor", f"{host}.el", "k4.el"]
        cases[f"detect_subgraph_k3_{host}"] = ["detect", "subgraph", f"{host}.el", "k3.el"]
    cases["classify_theta"] = ["classify", "theta_dir"]
    cases["classify_k3"] = ["classify", "k3_dir"]
    # feral through a later type (theta is forbidden, prism is avoided)
    cases["classify_claw"] = ["classify", "claw_dir"]
    # inconclusive: every type runs out of budget, so the report is the whole row
    cases["classify_p3_budget2"] = ["classify", "p3_dir", "--budget", "2"]
    return cases


CASES = _cases()


def render(argv: List[str]) -> str:
    """The stable JSON report of one case, run in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json", "--stable-output"])
    if code != 0:
        raise RuntimeError(f"sepscope {' '.join(argv)} exited {code}")
    return out.getvalue()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for name, argv in CASES.items():
                (GOLDEN / f"{name}.json").write_text(render(argv))
        finally:
            os.chdir(here)
    print(f"wrote {len(CASES)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
