"""The three benchmark workloads: inputs made from the seed, and one pass over them.

A workload is generated by one process with no worker threads.  Every
operation goes through a public entry point (``decoy_fsa.cli.main`` or
``decoy_fsa.oracle.simulate_pulses``), looked up on its module at call time so
that the tracer's wrappers are seen.  Only the call into the library is timed;
the correctness gate of each operation runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from decoy_fsa import cli, faked_states, model, observables, oracle, security
from decoy_fsa.observables import PNRD, QND

import checks

REF_DIR = Path(__file__).resolve().parent / "ref"

# (cli arguments, reference CSV); fixed, so the seed does not change them.
RECIPES = (
    (("sweep", "--recipe", "fig2"), "fig2"),
    (("kmin", "--recipe", "fig4"), "fig4"),
    (("scan", "--recipe", "fig3"), "fig3"),
    (("scan", "--recipe", "fig6"), "fig6"),
    (("scan", "--recipe", "fig7"), "fig7"),
)

# Criterion 6's point set at two shards per point instead of ten.
ORACLE_POINTS = 12
ORACLE_PULSES = 2 * oracle.DEFAULT_SHARD_SIZE

# Short validate queries: less than one shard each, baseline/qnd/pnrd in turn.
VALIDATE_QUERIES = 600
VALIDATE_PULSES = 20_000


@dataclass
class PassResult:
    """Timings and gate outcomes of one pass over a workload's operations."""

    op_ns: list[int] = field(default_factory=list)
    op_kind: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    comparisons: int = 0
    beyond_3sigma: int = 0
    z_abs_max: float = 0.0
    pulses: int = 0

    def record(self, kind: str, ns: int, problems: list[str]) -> None:
        self.op_ns.append(ns)
        self.op_kind.append(kind)
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind}: {p}" for p in problems)

    def add_z(self, z: float) -> None:
        self.comparisons += 1
        if abs(z) > checks.Z_REPORT:
            self.beyond_3sigma += 1
        if math.isfinite(z):
            self.z_abs_max = max(self.z_abs_max, abs(z))


class _Outputs:
    """Fresh output paths in one directory; a CSV is deleted once checked.

    Rewriting an existing file costs far more than creating a new one on this
    kind of file system (see NOTES.md), so no path is ever reused.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.count = 0

    def fresh(self, stem: str) -> str:
        self.count += 1
        return str(self.directory / f"{stem}-{self.count}.csv")

    @staticmethod
    def take(path: str) -> list[list[str]] | None:
        target = Path(path)
        if not target.exists():
            return None
        rows = checks.read_csv(target)
        target.unlink()
        return rows


def _call_cli(argv: list[str]) -> tuple[int, int]:
    start = perf_counter_ns()
    code = cli.main(argv)
    return code, perf_counter_ns() - start


class Figures:
    """The five closed-form figure recipes through ``cli.main``."""

    name = "figures"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.outputs = _Outputs(workdir)
        self.references = {ref: checks.read_csv(REF_DIR / f"{ref}.csv.gz") for _, ref in RECIPES}

    def run_pass(self) -> PassResult:
        result = PassResult()
        sink = io.StringIO()
        for argv, ref in RECIPES:
            out = self.outputs.fresh(ref)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, ns = _call_cli([*argv, "--out", out])
            rows = self.outputs.take(out)
            if code != 0:
                problems = [f"exit code {code}"]
            elif rows is None:
                problems = ["no CSV written"]
            else:
                problems = checks.compare_csv(rows, self.references[ref])
            result.record(ref, ns, problems)
        return result


def oracle_points(seed: int) -> list[tuple[model.SystemParams, QND | PNRD, int]]:
    """12 points drawn the way criterion 6 draws them: QND on even, PNRD on odd indices."""
    rng = np.random.default_rng(seed)
    points = []
    for index in range(ORACLE_POINTS):
        k = float(rng.uniform(1.0, 1000.0))
        mu_prime = float(rng.uniform(0.0, 2000.0))
        distance = float(rng.uniform(10.0, 150.0))
        if index % 2 == 0:
            strategy = QND(mu_prime=mu_prime, k=k)
        else:
            strategy = PNRD(mu_prime=mu_prime, k=k, eta_e=float(rng.uniform(0.05, 1.0)))
        points.append((model.GYS.replace(distance=distance), strategy, seed * 100 + index))
    return points


def _closed_forms(params, strategy) -> dict[str, float]:
    obs = observables.observables_for(params, strategy)
    eff = model.efficiency_matrix(params, strategy.k)
    fs = faked_states.FakedStateIntensities.symmetric(strategy.mu_prime)
    d = params.dark_count
    probs = security.table1_probs(fs, eff)
    return {
        "q_mu": obs.q_mu,
        "q_nu": obs.q_nu,
        "emu_qmu": obs.emu_qmu,
        "p_click0": faked_states.p_click_det0(fs, eff, d),
        "p_click1": faked_states.p_click_det1(fs, eff, d),
        "p_arrive": faked_states.p_arrive(fs, eff, d),
        "p_error": faked_states.p_error(fs, eff, d),
        "r1": probs.r1,
        "s0": probs.s0,
    }


def _trials(run, name: str) -> int:
    if name in ("q_mu", "q_nu", "emu_qmu"):
        return run.n_pulses
    if name == "r1":
        return run.n_match_v0
    if name == "s0":
        return run.n_match_v1
    return run.n_resend


class OracleLong:
    """Long Monte Carlo runs at criterion 6's points, each checked against 9 closed forms.

    One operation is a QND point and the PNRD point drawn after it.  A PNRD
    point costs about a third more than a QND point, so the latency of single
    points splits into two equal clusters whose median falls in the gap
    between them; the latency of pairs has one cluster.
    """

    name = "oracle_long"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.points = oracle_points(seed)

    def run_pass(self) -> PassResult:
        result = PassResult()
        for first in range(0, len(self.points), 2):
            pair = self.points[first:first + 2]
            start = perf_counter_ns()
            runs = [(oracle.simulate_pulses(params, strategy, ORACLE_PULSES, mc_seed),
                     _closed_forms(params, strategy)) for params, strategy, mc_seed in pair]
            ns = perf_counter_ns() - start
            problems = []
            for run, analytic in runs:
                problems += checks.tally_problems(run)
                for name, value in analytic.items():
                    trials = _trials(run, name)
                    successes = round(getattr(run, name) * trials) if trials else 0
                    z, found = checks.compare_mc(name, successes, trials, value)
                    result.add_z(z)
                    problems += found
                result.pulses += 2 * run.n_pulses
            result.record(f"points {first}-{first + 1}", ns, problems)
        return result


def validate_queries(seed: int) -> list[tuple[str, list[str]]]:
    """A stream of independent validate queries, baseline/qnd/pnrd in equal shares."""
    rng = np.random.default_rng(seed)
    queries = []
    for index in range(VALIDATE_QUERIES):
        kind = ("baseline", "qnd", "pnrd")[index % 3]
        k = float(rng.uniform(1.0, 1000.0))
        mu_prime = float(rng.uniform(0.0, 2000.0))
        distance = float(rng.uniform(10.0, 150.0))
        eta_e = float(rng.uniform(0.05, 1.0))
        argv = ["validate", "--strategy", kind, "--distance", repr(distance),
                "--n-pulses", str(VALIDATE_PULSES), "--seed", str(seed * 1000 + index)]
        if kind != "baseline":
            argv += ["--k", repr(k), "--mu-prime", repr(mu_prime)]
        if kind == "pnrd":
            argv += ["--eta-e", repr(eta_e)]
        queries.append((kind, argv))
    return queries


class ValidateShort:
    """Independent short ``validate`` queries, where fixed per-call cost dominates."""

    name = "validate_short"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.outputs = _Outputs(workdir)
        self.queries = validate_queries(seed)

    def run_pass(self) -> PassResult:
        result = PassResult()
        sink = io.StringIO()
        for kind, argv in self.queries:
            out = self.outputs.fresh("validate")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, ns = _call_cli([*argv, "--out", out])
            rows = self.outputs.take(out)
            problems = checks.validate_problems(code, rows, kind)
            if not problems:
                z_column = rows[0].index("z")
                for row in rows[1:]:
                    result.add_z(float(row[z_column]))
            result.pulses += 2 * VALIDATE_PULSES
            result.record(kind, ns, problems)
            sink.seek(0)
            sink.truncate()
        return result


WORKLOADS = {cls.name: cls for cls in (Figures, OracleLong, ValidateShort)}
