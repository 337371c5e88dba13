"""Every golden `--stable-output` report is reproduced byte for byte."""

from regen_golden import CASES, GOLDEN, render, write_inputs


def test_golden_reports_are_byte_identical(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
    differ = [name for name, argv in CASES.items()
              if render(argv) != (GOLDEN / f"{name}.json").read_text()]
    assert not differ, "reports differ from tests/golden: " + ", ".join(differ)
