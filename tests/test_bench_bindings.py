"""The benchmark's view of the program: the names its tracer wraps and the calls it makes."""

import dataclasses
import importlib
import importlib.util
import itertools
from pathlib import Path

import pytest

from decoy_fsa import cli
from decoy_fsa.model import GYS
from decoy_fsa.observables import PNRD, QND

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.BINDINGS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"bench/tracing.py binds names the program no longer has: {missing}"


def test_oracle_workload_closed_forms_run(monkeypatch):
    # bench/workloads.py imports its sibling modules by their bare names.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    params = GYS.replace(distance=100.0)
    for strategy in (QND(mu_prime=300.0, k=310.0), PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)):
        values = workloads._closed_forms(params, strategy)
        assert set(values) == {"q_mu", "q_nu", "emu_qmu", "p_click0", "p_click1",
                               "p_arrive", "p_error", "r1", "s0"}
        assert all(0.0 <= value <= 1.0 for value in values.values()), values


@pytest.mark.parametrize("strategy", [QND(mu_prime=0.0, k=310.0),
                                      PNRD(mu_prime=0.0, k=1000.0, eta_e=0.1)],
                         ids=["qnd", "pnrd"])
def test_oracle_workload_closed_forms_match_validate(monkeypatch, strategy):
    # Until one comparison function serves both, the benchmark's copy of the
    # closed forms must give validate's values bit for bit; at a degenerate
    # point both must raise the same error.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")

    def outcome(closed_forms, params, point):
        try:
            return closed_forms(params, point)
        except ValueError as exc:
            return type(exc), str(exc)

    compared = 0
    for mu_prime, d, e, distance in itertools.product(
        (0.0, 300.0, 2000.0), (0.0, 1.7e-6, 0.3), (0.0, 0.033), (0.0, 100.0)
    ):
        params = GYS.replace(dark_count=d, e_detector=e, distance=distance)
        point = dataclasses.replace(strategy, mu_prime=mu_prime)
        bench_values = outcome(workloads._closed_forms, params, point)
        cli_values = outcome(cli._analytic_quantities, params, point)
        if isinstance(bench_values, dict) and isinstance(cli_values, dict):
            cli_values = {key: cli_values[key] for key in bench_values}
            compared += 1
        assert cli_values == bench_values, (params, point)
    assert compared == 32  # only mu_prime 0 without dark counts is degenerate


def test_validate_workload_queries_pass_the_gate(monkeypatch, tmp_path, capsys):
    # The first two queries of each kind the validate_short workload sends.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    queries = workloads.validate_queries(1)[:6]
    assert sorted(kind for kind, _ in queries) == ["baseline", "baseline", "pnrd", "pnrd",
                                                   "qnd", "qnd"]
    for index, (kind, argv) in enumerate(queries):
        out = tmp_path / f"{index}.csv"
        code = cli.main([*argv, "--out", str(out)])
        rows = checks.read_csv(out) if out.exists() else None
        assert checks.validate_problems(code, rows, kind) == [], (argv, capsys.readouterr().err)
