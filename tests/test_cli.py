import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import sepscope

from sepscope.cli import build_parser, main
from sepscope.families import FamilySpec, StructureWitness, twisted_ladder, verify_witness
from sepscope.graphs import Graph, format_edge_list, parse_edge_list


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_gen_writes_round_trippable_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "gen", "skinny-ladder", "--k", "3")
    assert code == 0
    assert "9 vertices" in out
    g = parse_edge_list((tmp_path / "skinny_ladder_k3.el").read_text())
    assert g.n == 9 and g.m == 10
    sidecar = json.loads((tmp_path / "skinny_ladder_k3.witness.json").read_text())
    assert sidecar["verified"] is True
    assert "S" in sidecar["roles"]


def test_gen_honors_out_and_lengths(tmp_path, capsys):
    stem = str(tmp_path / "t4")
    code, _, _ = run(capsys, "gen", "theta", "--k", "4", "--len", "4,4,4,4",
                     "--out", stem)
    assert code == 0
    g = parse_edge_list((tmp_path / "t4.el").read_text())
    assert g.n == 10


def test_gen_rejects_a_length_list_of_another_size_than_k(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for fam, lengths in (("theta", "4,4,4,4"), ("prism", "2,2"), ("pyramid", "3,3,3,3")):
        code, _, err = run(capsys, "gen", fam, "--k", "3", "--len", lengths)
        assert code == 2 and "one length per path" in err, err
    # without --k the list sets the number of paths
    code, _, _ = run(capsys, "gen", "theta", "--len", "4,4,4", "--out", "t")
    assert code == 0 and parse_edge_list((tmp_path / "t.el").read_text()).n == 8
    assert json.loads((tmp_path / "t.witness.json").read_text())["params"]["k"] is None


@pytest.mark.parametrize("fam, lengths", [
    ("ladder-theta", (3, 4, 3)), ("ladder-prism", (2, 3, 2)), ("ladder", (2, 2)),
])
def test_gen_ladder_types_take_k_from_len(tmp_path, capsys, fam, lengths):
    stem = str(tmp_path / "lad")
    code, _, err = run(capsys, "gen", fam, "--len", ",".join(map(str, lengths)), "--out", stem)
    assert code == 0, err
    g = parse_edge_list((tmp_path / "lad.el").read_text())
    roles = json.loads((tmp_path / "lad.witness.json").read_text())["roles"]
    w = StructureWitness({name: tuple(vs) for name, vs in roles.items()})
    spec = FamilySpec(fam.replace("-", "_"), path_lengths=lengths)
    # the spec's path lengths make the verifier check one P role per length
    assert verify_witness(g, spec, w) == (True, [])


def test_gen_subdivision_round_trips_through_verify_witness(tmp_path, capsys):
    base_graph = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    base = write(tmp_path, "base.el", format_edge_list(base_graph))
    stem = str(tmp_path / "sub")
    doc = run_json(capsys, "gen", "subdivision", base, "--k", "2", "--out", stem, "--json")
    g = parse_edge_list((tmp_path / "sub.el").read_text())
    assert (g.n, g.m) == (4 + 4 * 2, 4 * 3)
    sidecar = json.loads((tmp_path / "sub.witness.json").read_text())
    w = StructureWitness({name: tuple(vs) for name, vs in sidecar["roles"].items()})
    assert verify_witness(g, FamilySpec("subdivision", k=2, base_graph=base_graph), w) == (True, [])
    # the sidecar's params are the report's config, less the family
    assert sidecar["params"] == {"k": 2, "len": None, "arm": None, "c": None, "seed": None}
    assert doc["config"] == {"family": "subdivision", **sidecar["params"]}
    assert base in doc["inputs"]


@pytest.mark.parametrize("argv, message", [
    (("twisted-ladder", "--k", "2", "--len", "9,9", "--arm", "4", "--c", "3"),
     "twisted_ladder does not take --len, --arm, --c"),
    (("theta", "--k", "3", "--seed", "5"), "theta does not take --seed"),
    (("theta", "{base}", "--k", "3"), "theta does not take a base graph file"),
    (("subdivision", "--k", "2"), "subdivision needs a base graph file"),
    (("long-claw", "--k", "3"), "long_claw does not take --k"),
    (("claw-feral", "--c", "2", "--len", "3"), "claw_feral does not take --len"),
    # --k 0 is a k, not an absent --k
    (("long-claw", "--k", "0", "--arm", "3"), "long_claw does not take --k"),
    (("claw",), "claw needs --k"),
    (("subdivision", "{base}"), "subdivision needs --k"),
])
def test_gen_rejects_an_option_the_family_does_not_read(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    base = write(tmp_path, "base.el", "2 1\n0 1\n")
    code, out, err = run(capsys, "gen", *(a.format(base=base) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["base.el"]


def test_gen_unknown_family_errors(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "moebius", "--k", "3")
    assert code == 2
    assert "unknown family" in err


def test_gen_bad_params_error_cleanly(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "gen", "theta", "--k", "3", "--len", "3,4,4")
    assert code == 2 and "4" in err
    code, _, err = run(capsys, "gen", "theta", "--k", "3", "--len", "a,b")
    assert code == 2


def test_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    missing = tmp_path / "no_such_dir"
    el = write(tmp_path, "p4.el", format_edge_list(Graph(4, [(0, 1), (1, 2), (2, 3)])))
    for argv in (("gen", "theta", "--k", "3", "--out", str(missing / "x")),
                 ("enum", el, "--out", str(missing / "r.json"))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: cannot write"), err
    assert not missing.exists()


def test_enum_oracle_p4(tmp_path, capsys):
    el = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    doc = run_json(capsys, "enum", el, "--algo", "oracle")
    assert doc["results"]["count"] == 2
    assert doc["complete"] is True
    assert doc["results"]["separators"] == [[1], [2]]


def test_enum_closure_c5(tmp_path, capsys):
    el = write(tmp_path, "c5.el", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    doc = run_json(capsys, "enum", el, "--algo", "closure")
    assert doc["results"]["count"] == 5


def test_enum_branching_reports_raw_and_filtered(tmp_path, capsys):
    el = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    doc = run_json(capsys, "enum", el, "--algo", "branching", "--k", "2")
    r = doc["results"]
    assert r["filtered_count"] == 2
    assert r["raw_count"] >= r["filtered_count"]


def test_enum_branching_needs_k(tmp_path, capsys):
    el = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    code, _, err = run(capsys, "enum", el, "--algo", "branching")
    assert code == 2 and "--k" in err


def test_enum_branching_budget_bounds_the_run(tmp_path, capsys):
    el = write(tmp_path, "tl2.el", format_edge_list(twisted_ladder(2)[0]))
    doc = run_json(capsys, "enum", el, "--algo", "branching", "--k", "3",
                   "--budget", "2000", "--json")
    assert doc["complete"] is False
    assert doc["results"]["nodes"] == 2001


def test_enum_oracle_over_budget_is_incomplete_not_an_error(tmp_path, capsys):
    p21 = write(tmp_path, "p21.el", format_edge_list(Graph(21, [(i, i + 1) for i in range(20)])))
    # path(21) has 231 connected sets
    doc = run_json(capsys, "enum", p21, "--algo", "oracle", "--budget", "230")
    assert doc["complete"] is False and doc["config"]["budget"] == 230
    doc = run_json(capsys, "enum", p21, "--algo", "oracle", "--budget", "231")
    assert doc["complete"] is True and len(doc["results"]["separators"]) == 19
    p4 = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    doc = run_json(capsys, "enum", p4, "--algo", "oracle", "--budget", "5")
    assert doc["complete"] is False and doc["config"]["budget"] == 5


def test_enum_closure_budget_bounds_the_run(tmp_path, capsys):
    el = write(tmp_path, "tl2.el", format_edge_list(twisted_ladder(2)[0]))
    doc = run_json(capsys, "enum", el, "--algo", "closure", "--budget", "10")
    assert doc["complete"] is False and doc["results"]["complete"] is False


def test_enum_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "enum", str(tmp_path / "nope.el"))
    assert code == 2 and "no such file" in err


def test_a_directory_given_as_a_graph_file_exits_2(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    el = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    for argv in (("enum", str(d)), ("detect", "subgraph", el, str(d))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.strip() == f"error: is a directory, not an edge-list file: {d}", err


def test_enum_parse_error(tmp_path, capsys):
    el = write(tmp_path, "bad.el", "2 1\n0 7\n")
    code, _, err = run(capsys, "enum", el)
    assert code == 2


def test_detect_outcomes_are_exit_zero(tmp_path, capsys):
    tree = write(tmp_path, "tree.el", "7 6\n0 1\n0 2\n1 3\n1 4\n2 5\n2 6\n")
    doc = run_json(capsys, "detect", "cycle", tree, "--r", "4")
    assert doc["results"]["status"] == "absent_exhaustive"
    c6 = write(tmp_path, "c6.el", "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    k3 = write(tmp_path, "k3.el", "3 3\n0 1\n0 2\n1 2\n")
    doc = run_json(capsys, "detect", "minor", c6, k3)
    assert doc["results"]["status"] == "found"
    assert doc["results"]["witness"]["branch_sets"]
    doc = run_json(capsys, "detect", "subgraph", c6, k3)
    assert doc["results"]["status"] == "absent_exhaustive"


def test_detect_reads_each_input_file_once(tmp_path, capsys, monkeypatch):
    c6 = write(tmp_path, "c6.el", "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    k3 = write(tmp_path, "k3.el", "3 3\n0 1\n0 2\n1 2\n")
    reads = []

    def counted(real):
        def read(self, *args, **kwargs):
            reads.append(str(self))
            return real(self, *args, **kwargs)
        return read

    for name in ("read_bytes", "read_text"):
        monkeypatch.setattr(pathlib.Path, name, counted(getattr(pathlib.Path, name)))
    doc = run_json(capsys, "detect", "subgraph", c6, k3)
    assert sorted(reads) == sorted([c6, k3])
    monkeypatch.undo()
    assert doc["inputs"] == {p: hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (c6, k3)}
    # undecodable bytes are malformed input, as a bad header is
    bad = tmp_path / "bad.el"
    bad.write_bytes(b"3 1\n0 \xff\n")
    code, _, err = run(capsys, "detect", "subgraph", c6, str(bad))
    assert code == 2 and "bad.el" in err


def test_detect_minor_has_no_vertex_cap(tmp_path, capsys):
    p15 = write(tmp_path, "p15.el", format_edge_list(Graph(15, [(i, i + 1) for i in range(14)])))
    k3 = write(tmp_path, "k3.el", "3 3\n0 1\n0 2\n1 2\n")
    doc = run_json(capsys, "detect", "minor", p15, k3)
    assert doc["results"]["status"] == "absent_exhaustive"


def test_detect_creature_on_p4(tmp_path, capsys):
    p4 = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    doc = run_json(capsys, "detect", "creature", p4, "--k", "1")
    assert doc["results"]["status"] == "found"
    assert doc["results"]["witness"]["order"] == 1


def test_main_parses_each_argv_afresh(tmp_path, capsys):
    # the parser is built once per process; no call may see another's flags
    p4 = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    doc = run_json(capsys, "detect", "creature", p4, "--k", "1", "--budget", "1")
    assert doc["results"]["status"] == "unknown_budget"
    doc = run_json(capsys, "enum", p4, "--algo", "oracle")
    assert doc["config"] == {"algo": "oracle", "k": None, "budget": 2_000_000}
    doc = run_json(capsys, "detect", "creature", p4, "--k", "1")
    assert doc["results"]["status"] == "found"
    with pytest.raises(SystemExit) as exc:
        main(["detect", "creature", p4, "--k", "one"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert build_parser() is build_parser()


def test_detect_budget_flag_bounds_the_search(tmp_path, capsys):
    p4 = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    doc = run_json(capsys, "detect", "creature", p4, "--k", "1", "--budget", "1")
    assert doc["results"]["status"] == "unknown_budget"
    assert doc["complete"] is False
    doc = run_json(capsys, "detect", "creature", p4, "--k", "1",
                   "--budget", "100000")
    assert doc["results"]["status"] == "found"


def test_detect_needs_pattern(tmp_path, capsys):
    c6 = write(tmp_path, "c6.el", "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code, _, err = run(capsys, "detect", "subgraph", c6)
    assert code == 2 and "pattern" in err


def test_classify_p3_directory(tmp_path, capsys):
    d = tmp_path / "fam"
    d.mkdir()
    (d / "p3.el").write_text("3 2\n0 1\n1 2\n")
    doc = run_json(capsys, "classify", str(d))
    assert doc["results"]["status"] == "strongly_quasi_tame"
    assert doc["complete"] is True


def test_classify_rejects_kmax_below_three(tmp_path, capsys):
    d = tmp_path / "fam"
    d.mkdir()
    (d / "p3.el").write_text("3 2\n0 1\n1 2\n")
    code, _, err = run(capsys, "classify", str(d), "--kmax", "2")
    assert code == 2 and "--kmax must be at least 3" in err


@pytest.mark.parametrize("argv, message", [
    (("detect", "creature", "{p4}", "--k", "0"), "creature order must be at least 1"),
    (("enum", "{p4}", "--algo", "branching", "--k", "0"), "k must be at least 1"),
    (("detect", "cycle", "{p4}", "--r", "2"), "cycles need at least 3 vertices"),
    (("enum", "{p4}", "--budget", "-1"), "--budget must be nonnegative"),
    (("detect", "subgraph", "{p4}", "{p4}", "--budget", "-5"), "--budget must be nonnegative"),
    # range errors name the family and the option as typed
    (("gen", "long-claw"), "long_claw needs --arm >= 2"),
    (("gen", "claw-feral", "--c", "1", "--arm", "2"), "claw_feral needs --arm >= 3"),
    (("gen", "paw-feral", "--c", "0"), "paw_feral needs --c >= 1"),
    (("gen", "subdivision", "{p4}", "--k", "-1"), "subdivision needs --k >= 0"),
    (("classify", "{fam}", "--kmax", "2"), "--kmax must be at least 3"),
])
def test_out_of_range_options_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    fam = tmp_path / "fam"
    fam.mkdir()
    p4 = write(fam, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
    code, out, err = run(capsys, *(a.format(p4=p4, fam=fam) for a in argv))
    assert (code, out) == (2, "") and f"error: {message}" in err, err


P4 = "4 3\n0 1\n1 2\n2 3\n"


@pytest.mark.parametrize("text, argv, message", [
    ("", ("enum", "{el}"), "{el}: empty edge-list document"),
    ("a 1\n0 1\n", ("enum", "{el}"), "{el}: line 1: non-integer header"),
    ("3 -1\n", ("enum", "{el}"), "{el}: negative header values"),
    ("3 2\n0 1\n", ("enum", "{el}"), "{el}: expected 2 edge lines, found 1"),
    ("3 1\n0 1 2\n", ("enum", "{el}"), "{el}: line 2: edge line must be 'u v'"),
    ("3 1\n0 x\n", ("enum", "{el}"), "{el}: line 2: non-integer endpoint"),
    ("3 1\n1 1\n", ("enum", "{el}"), "{el}: line 2: self loop 1"),
    ("3 2\n0 1\n1 0\n", ("enum", "{el}"), "{el}: duplicate edge in edge list"),
    (P4, ("detect", "creature", "{el}"), "detect creature needs --k"),
    (P4, ("detect", "cycle", "{el}"), "detect cycle needs --r"),
    (P4, ("classify", "{el}"), "not a directory: {el}"),
    # an option the kind or route does not read
    (P4, ("detect", "subgraph", "{el}", "{el}", "--k", "3", "--r", "9"), "detect subgraph does not take --k, --r"),
    (P4, ("detect", "minor", "{el}", "{el}", "--r", "3"), "detect minor does not take --r"),
    (P4, ("detect", "creature", "{el}", "{el}", "--k", "1"),
     "detect creature does not take a pattern graph file"),
    (P4, ("detect", "cycle", "{el}", "--r", "4", "--k", "2"), "detect cycle does not take --k"),
    (P4, ("enum", "{el}", "--algo", "closure", "--k", "3"), "enum --algo closure does not take --k"),
    (P4, ("enum", "{el}", "--algo", "oracle", "--k", "1"), "enum --algo oracle does not take --k"),
])
def test_malformed_input_exits_2_with_its_message(tmp_path, capsys, text, argv, message):
    el = write(tmp_path, "g.el", text)
    code, out, err = run(capsys, *(a.format(el=el) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(el=el)}\n")


def test_classify_empty_directory_errors(tmp_path, capsys):
    d = tmp_path / "fam"
    d.mkdir()
    code, _, err = run(capsys, "classify", str(d))
    assert code == 2 and "no edge-list" in err


def test_verify_single_criterion(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--filter", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 1 and lines[0].startswith("PASS  criterion 3")


def test_verify_unknown_filter(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--filter", "zebra")
    assert code == 2


def test_stable_output_is_byte_identical(tmp_path, capsys):
    el = write(tmp_path, "c5.el", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    _, out1, _ = run(capsys, "enum", el, "--algo", "closure", "--stable-output")
    _, out2, _ = run(capsys, "enum", el, "--algo", "closure", "--stable-output")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["elapsed_ms"] == 0


def test_out_writes_report_file(tmp_path, capsys):
    el = write(tmp_path, "c5.el", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "enum", el, "--out", str(target))
    assert code == 0
    assert out == ""  # report went to the file, not stdout
    doc = json.loads(target.read_text())
    assert doc["results"]["count"] == 5
    assert el in doc["inputs"]


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepscope.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "sepscope", "--help"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: sepscope")
