"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks the tail-percentile rule on synthetic samples, the scaling of job
times by the speed probes around them, the self-time arithmetic on a
synthetic span tree, the independent answer checks on
hand-made graphs, and a tiny-size run of every workload, untraced and
traced, that must print every metric named in BENCHMARK.json.  Takes
about a minute.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(1, 201))  # J = 200
        value, pct = stats.tail(samples)
        self.assertEqual(value, 190)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 95.0)

    def test_order_does_not_matter(self):
        samples = [(7 * i) % 1117 for i in range(1117)]
        value, pct = stats.tail(samples)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 1107 / 1117)

    def test_too_few_samples_gives_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(stats.tail(list(range(10))), (9, 100.0))
        self.assertEqual(stats.tail(list(range(11))), (0, 100.0 / 11))

    def test_quartiles_match_statistics(self):
        self.assertEqual(stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
        start = [0.0, 1.0, 5.0, 6.0]
        end = [10.0, 4.0, 9.0, 8.0]
        parent = [-1, 0, 0, 2]
        self.assertEqual(tracer.self_times(start, end, parent), [3.0, 3.0, 2.0, 2.0])
        self.assertEqual(sum(tracer.self_times(start, end, parent)), 10.0)

    def test_wrapped_calls(self):
        t = tracer.Tracer()

        def leaf(x):
            return x + 1

        def outer(x):
            return wrapped_leaf(x) + wrapped_leaf(x)

        wrapped_leaf = t.wrap("leaf", leaf)
        wrapped_outer = t.wrap("outer", outer)
        self.assertEqual(wrapped_outer(1), 4)
        spans, under = tracer.summarize(t)
        self.assertEqual(spans["leaf"]["calls"], 2)
        self.assertEqual(under[("leaf", "outer")], 2)
        root = t.end[0] - t.start[0]
        total_self = sum(row["self_s"] for row in spans.values())
        self.assertAlmostEqual(total_self, root, places=12)

    def test_max_counters(self):
        t = tracer.Tracer()
        t.bump({"n": 3, "max:m": 3})
        t.bump({"n": 2, "max:m": 2})
        self.assertEqual(t.counters, {"n": 5, "m": 3})


class SpeedScaling(unittest.TestCase):
    def test_nominal_probes_scale_by_one(self):
        taken = [(0.1 * i, speed.NOMINAL_PROBE_S) for i in range(20)]
        self.assertEqual(speed.scales([(0.5, 0.6), (1.5, 1.9)], taken), [1.0, 1.0])

    def test_each_job_takes_the_probes_around_it(self):
        # the machine runs at half speed for t < 1 and at nominal speed after
        taken = [(0.05 * i, speed.NOMINAL_PROBE_S * (2 if 0.05 * i < 1 else 1)) for i in range(60)]
        slow, fast, long = speed.scales([(0.2, 0.25), (2.0, 2.05), (0.0, 3.0)], taken)
        self.assertEqual((slow, fast), (0.5, 1.0))
        self.assertEqual(long, 1.0)  # 40 of the 60 probes during it ran at nominal speed

    def test_too_few_probes_nearby_takes_the_nearest(self):
        taken = [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0), (30.0, 4.0)]
        (got,) = speed.scales([(11.0, 11.5)], taken)
        self.assertAlmostEqual(got, speed.NOMINAL_PROBE_S / 2.0)  # median of 1, 2, 3

    def test_probe_time_inside_an_interval(self):
        sampler = speed.Sampler()
        sampler.spans = [(0.0, 0.1), (1.0, 1.1), (2.0, 2.2), (2.9, 3.05)]
        self.assertAlmostEqual(sampler.within(0.5, 3.0), 0.3)  # the last probe ends after 3.0
        self.assertEqual(sampler.within(0.15, 0.9), 0.0)

    def test_sampler_probes_while_a_job_runs(self):
        with speed.Sampler() as sampler:
            end = perf_counter() + 4 * speed.PROBE_EVERY_S
            while perf_counter() < end:
                pass
        self.assertGreaterEqual(len(sampler.taken), 2)
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class IndependentChecks(unittest.TestCase):
    def test_path_separators(self):
        adj = checks.adjacency(4, [(0, 1), (1, 2), (2, 3)])
        self.assertEqual(checks.minimal_separators(adj), [(1,), (2,)])

    def test_cycle_separators(self):
        adj = checks.adjacency(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        self.assertEqual(checks.minimal_separators(adj), [(0, 2), (1, 3)])

    def test_induced_embedding(self):
        c4 = checks.adjacency(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        p3 = checks.adjacency(3, [(0, 1), (1, 2)])
        k3 = checks.adjacency(3, [(0, 1), (0, 2), (1, 2)])
        image = checks.induced_embedding(c4, p3)
        self.assertTrue(checks.is_induced_embedding(c4, p3, image))
        self.assertIsNone(checks.induced_embedding(c4, k3))

    def test_induced_cycles(self):
        c5 = checks.adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        self.assertTrue(checks.is_induced_cycle(c5, [0, 1, 2, 3, 4]))
        self.assertFalse(checks.is_induced_cycle(c5, [0, 1, 2]))
        self.assertTrue(checks.has_induced_cycle_at_least(c5, 5))
        self.assertFalse(checks.has_induced_cycle_at_least(c5, 6))


class AnswerChecks(unittest.TestCase):
    def test_census_flags_wrong_answers(self):
        levels = [([None] * a, [None] * c) for a, c in zip(workloads.ALL_CLASSES, workloads.CONNECTED_CLASSES)][:3]
        levels[2] = ([None] * 5, [None] * 2)  # n = 3 has 4 classes, not 5
        outputs = [levels, ([(1,)], [(1,)]), ([(1,)], [(0, 2)])]
        out = workloads.Outcome()
        workloads.Census().check({}, outputs, out, None)
        self.assertEqual(out.wrong, {0, 2})

    def test_interleave_spreads_each_group(self):
        order = workloads._interleave(["a"] * 2, ["b"] * 4)
        self.assertEqual(order, ["b", "a", "b", "b", "a", "b"])


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        self.assertEqual(result["metrics"]["trace.nondeterministic"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
