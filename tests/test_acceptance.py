"""The acceptance gate: one test per criterion, one pass/fail line each.

Run with -s (or read the failure output) to see the per-criterion lines.
Shared corpus state is memoized inside sepscope.acceptance, so the twelve
tests cost one corpus build between them.
"""

from sepscope import acceptance


def _check(fn):
    name, ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'}  criterion {name}: {detail}")
    assert ok, f"criterion {name}: {detail}"
    return detail


def test_criterion_01_oracle_equivalence():
    _check(acceptance.criterion_1)


def test_criterion_02_branching_completeness():
    detail = _check(acceptance.criterion_2)
    # the branching work over the n <= 8 corpus, pinned
    assert "1286427 nodes, 1286427 states" in detail


def test_criterion_03_twisted_ladder_counts():
    _check(acceptance.criterion_3)


def test_criterion_04_twisted_ladder_creature_freeness():
    _check(acceptance.criterion_4)


def test_criterion_05_family_counting_bounds():
    _check(acceptance.criterion_5)


def test_criterion_06_close_separators():
    _check(acceptance.criterion_6)


def test_criterion_07_skinny_ladder_domination():
    _check(acceptance.criterion_7)


def test_criterion_08_trace_vc_bound():
    _check(acceptance.criterion_8)


def test_criterion_09_creature_separator_count():
    _check(acceptance.criterion_9)


def test_criterion_10_extraction_validity():
    _check(acceptance.criterion_10)


def test_criterion_11_classifier_spot_checks():
    _check(acceptance.criterion_11)


def test_criterion_12_reduction_soundness():
    _check(acceptance.criterion_12)
