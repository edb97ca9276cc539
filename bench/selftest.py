"""Self-tests of the benchmark's gates, inputs and tracer.

    python3 bench/selftest.py

Kept out of the package's pytest suite on purpose: they test the benchmark,
not the program.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from decoy_fsa import cli  # noqa: E402
from decoy_fsa.model import GYS  # noqa: E402
from decoy_fsa.observables import QND  # noqa: E402
from decoy_fsa.oracle import simulate_pulses  # noqa: E402

TMP = ROOT / ".bench_tmp"


def _workdir() -> Path:
    TMP.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=TMP))


class FigureGate(unittest.TestCase):
    def setUp(self):
        self.reference = checks.read_csv(workloads.REF_DIR / "fig6.csv.gz")

    def test_program_output_matches_reference(self):
        workdir = _workdir()
        try:
            result = workloads.Figures(seed=1, workdir=workdir).run_pass()
        finally:
            shutil.rmtree(workdir)
        self.assertEqual(result.failed, 0, result.problems)

    def test_perturbed_reference_float_is_rejected(self):
        rows = copy.deepcopy(self.reference)
        column = rows[0].index("rate")
        rows[40][column] = repr(float(rows[40][column]) * (1.0 + 1e-5))
        self.assertTrue(checks.compare_csv(rows, self.reference))

    def test_rounding_level_change_is_accepted(self):
        rows = copy.deepcopy(self.reference)
        column = rows[0].index("rate")
        rows[40][column] = repr(float(rows[40][column]) * (1.0 + 1e-7))
        self.assertEqual(checks.compare_csv(rows, self.reference), [])

    def test_flag_and_row_count_changes_are_rejected(self):
        rows = copy.deepcopy(self.reference)
        rows[5][rows[0].index("flags")] = "clamped_y1"
        self.assertTrue(checks.compare_csv(rows, self.reference))
        self.assertTrue(checks.compare_csv(self.reference[:-1], self.reference))


class MonteCarloGate(unittest.TestCase):
    def test_z6_is_rejected_and_z4_accepted(self):
        trials, p = 1_000_000, 0.1
        sigma_count = math.sqrt(trials * p * (1 - p))
        z, problems = checks.compare_mc("x", round(trials * p + 6 * sigma_count), trials, p)
        self.assertGreater(z, 5.9)
        self.assertTrue(problems)
        z, problems = checks.compare_mc("x", round(trials * p - 4 * sigma_count), trials, p)
        self.assertEqual(problems, [])

    def test_rare_event_uses_exact_tail(self):
        # expected count 0.08: two hits is z = 6.8 by the normal approximation,
        # yet happens about once in 300 runs; six hits is a real disagreement.
        trials, p = 10_000, 8e-6
        z, problems = checks.compare_mc("r1", 2, trials, p)
        self.assertGreater(z, 5.0)
        self.assertEqual(problems, [])
        self.assertTrue(checks.compare_mc("r1", 6, trials, p)[1])

    def test_tally_invariants(self):
        run = simulate_pulses(GYS, QND(mu_prime=300.0, k=310.0), 20_000, seed=3)
        self.assertEqual(checks.tally_problems(run), [])
        run.tallies["signal"]["loss"] += 1
        self.assertTrue(checks.tally_problems(run))


class ValidateGate(unittest.TestCase):
    rows = [list("h")] + [list("r")] * 10

    def test_exit_codes(self):
        self.assertEqual(checks.validate_problems(0, self.rows, "qnd"), [])
        self.assertEqual(checks.validate_problems(3, self.rows, "pnrd"), [])
        self.assertTrue(checks.validate_problems(1, self.rows, "qnd"))
        self.assertTrue(checks.validate_problems(2, self.rows, "qnd"))

    def test_row_count(self):
        self.assertTrue(checks.validate_problems(0, self.rows, "baseline"))
        self.assertTrue(checks.validate_problems(0, None, "qnd"))

    def test_real_query_passes(self):
        workdir = _workdir()
        try:
            workload = workloads.ValidateShort(seed=5, workdir=workdir)
            workload.queries = workload.queries[:6]
            result = workload.run_pass()
        finally:
            shutil.rmtree(workdir)
        self.assertEqual(result.failed, 0, result.problems)
        self.assertEqual(result.comparisons, 2 * (4 + 10 + 10))


class Inputs(unittest.TestCase):
    def test_seed_changes_oracle_points_and_queries(self):
        self.assertNotEqual(workloads.oracle_points(1), workloads.oracle_points(2))
        self.assertEqual(workloads.oracle_points(1), workloads.oracle_points(1))
        self.assertNotEqual(workloads.validate_queries(1), workloads.validate_queries(2))

    def test_seed_does_not_change_figures(self):
        workdir = _workdir()
        try:
            result = workloads.Figures(seed=2, workdir=workdir).run_pass()
        finally:
            shutil.rmtree(workdir)
        self.assertEqual(result.failed, 0, result.problems)

    def test_oracle_points_follow_criterion_6(self):
        points = workloads.oracle_points(7)
        self.assertEqual(len(points), 12)
        kinds = [type(strategy).__name__ for _, strategy, _ in points]
        self.assertEqual(kinds, ["QND", "PNRD"] * 6)


class Tracing(unittest.TestCase):
    def test_figures_pass_counts_and_self_time(self):
        original = cli.main
        workdir = _workdir()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = workloads.Figures(seed=1, workdir=workdir).run_pass()
            metrics = tracing.pass_metrics(tracer)
        finally:
            tracer.uninstall()
            shutil.rmtree(workdir)
        self.assertIs(cli.main, original)
        self.assertEqual(result.failed, 0, result.problems)
        self.assertEqual(metrics["search.sweep_grid.evals"], 10_100)
        self.assertEqual(metrics["search.k_min.evals"], 41_370)
        self.assertEqual(metrics["cli.main.calls"], 5)
        self_sum_ns = sum(tracer.layer_self_ns().values())
        self.assertLessEqual(self_sum_ns, sum(result.op_ns))
        self.assertGreater(self_sum_ns, 0.5 * sum(result.op_ns))


class Harness(unittest.TestCase):
    def test_fails_without_the_program(self):
        workdir = _workdir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", workdir)
            shutil.copytree(BENCH, workdir / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=workdir, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(workdir)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
