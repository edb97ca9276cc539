"""Tests for the command-line interface: exit codes, recipes, determinism."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from decoy_fsa import cli
from decoy_fsa.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, build_parser, main
from decoy_fsa.search import SCAN_HEADER

BENCH = Path(__file__).resolve().parent.parent / "bench"


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestParser:
    def test_accepts_all_commands(self):
        parser = build_parser()
        for argv in (
            ["rate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300"],
            ["scan", "--recipe", "fig3"],
            ["sweep", "--recipe", "fig2"],
            ["kmin", "--distances", "1,50"],
            ["validate", "--strategy", "baseline"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("first, first_code, second", [
        (["scan", "--recipe", "fig3", "--strategy", "qnd"], EXIT_CONFIG,
         ["scan", "--distances", "10,50,90"]),
        (["scan", "--strategy", "qnd", "--k", "310", "--mu-prime", "300", "--distances", "10,50"],
         EXIT_OK, ["scan", "--recipe", "fig7"]),
        (["validate", "--strategy", "pnrd", "--k", "1000", "--mu-prime", "900", "--eta-e", "0.5",
          "--distance", "50", "--n-pulses", "20000", "--seed", "3"], EXIT_OK,
         ["validate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300",
          "--distance", "100", "--n-pulses", "20000", "--seed", "4"]),
    ], ids=["rejected-recipe-then-scan", "scan-then-recipe", "pnrd-then-qnd"])
    def test_back_to_back_calls_share_no_state(self, tmp_path, capsys, first, first_code, second):
        # The shared parser hands each call a fresh namespace: a call after
        # another writes the same CSV as the same call on a new parser.
        assert main([*first, "--out", str(tmp_path / "first.csv")]) == first_code
        assert main([*second, "--out", str(tmp_path / "after.csv")]) == EXIT_OK
        build_parser.cache_clear()
        assert main([*second, "--out", str(tmp_path / "alone.csv")]) == EXIT_OK
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


class TestRate:
    def test_baseline_positive_at_100km(self, capsys):
        code = main(["rate", "--strategy", "baseline", "--distance", "100"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        rate = float(next(line for line in out.splitlines() if line.startswith("rate")).split("=")[1])
        assert rate > 0.0

    def test_qnd_published_tuple_positive(self, capsys):
        code = main(["rate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300",
                     "--distance", "100"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        rate = float(next(line for line in out.splitlines() if line.startswith("rate")).split("=")[1])
        assert rate > 0.0

    def test_out_writes_the_printed_row(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        code = main(["rate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300",
                     "--distance", "100", "--out", str(out)])
        assert code == EXIT_OK
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        [row] = read_csv(out)
        assert tuple(row) == SCAN_HEADER == tuple(printed)
        assert row["flags"] == printed["flags"] == ""
        assert float(row["rate"]) == float(printed["rate"]) > 0.0

    def test_degenerate_point_is_a_flagged_row(self, tmp_path, capsys):
        # Without dark counts the baseline gain underflows to zero at 900 km:
        # rate prints the flagged row that scan writes, and exits 0.
        config = tmp_path / "dark.json"
        config.write_text(json.dumps({"dark_count": 0}))
        rate_out, scan_out = tmp_path / "rate.csv", tmp_path / "scan.csv"
        code = main(["rate", "--config", str(config), "--distance", "900",
                     "--out", str(rate_out)])
        assert code == EXIT_OK
        assert "flags = degenerate" in capsys.readouterr().out.splitlines()
        assert main(["scan", "--config", str(config), "--distances", "900",
                     "--out", str(scan_out)]) == EXIT_OK
        assert rate_out.read_bytes() == scan_out.read_bytes()

    def test_malformed_config_key_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"mu_signal": 0.5}))
        code = main(["rate", "--config", str(config)])
        assert code == EXIT_CONFIG
        assert "mu_signal" in capsys.readouterr().err

    def test_missing_strategy_options(self, capsys):
        code = main(["rate", "--strategy", "qnd"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--k" in err and "--mu-prime" in err

    @pytest.mark.parametrize("argv, flag", [
        (["rate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300", "--eta-e", "0.1"],
         "--eta-e"),
        (["rate", "--strategy", "baseline", "--k", "310"], "--k"),
        (["validate", "--strategy", "baseline", "--mu-prime", "300"], "--mu-prime"),
        (["scan", "--strategy", "baseline", "--distances", "0,10", "--eta-e", "0.1"], "--eta-e"),
    ], ids=["qnd-eta-e", "baseline-k", "baseline-mu-prime", "baseline-eta-e"])
    def test_flag_the_strategy_ignores_is_rejected(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"does not take {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["--distance", "nan"], "distance"),
        (["--strategy", "qnd", "--k", "nan", "--mu-prime", "300"], "k"),
        (["--strategy", "pnrd", "--k", "310", "--mu-prime", "nan", "--eta-e", "0.1"], "mu_prime"),
    ])
    def test_non_finite_input_names_the_field(self, capsys, argv, named):
        assert main(["rate", *argv]) == EXIT_CONFIG
        assert f"{named} must be finite" in capsys.readouterr().err

    def test_non_finite_config_value_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "nan.json"
        config.write_text('{"f_ec": NaN}')
        assert main(["rate", "--config", str(config)]) == EXIT_CONFIG
        assert "f_ec must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rate", "--distance", "0"],
        ["validate", "--distance", "0"],
        ["scan", "--distances", "50,0,100"],
    ], ids=["rate", "validate", "scan"])
    def test_k_above_physical_limit_names_flag_and_distance(self, tmp_path, capsys, argv):
        # At 0 km the limit is 1/(eta_bob * 1e-4) = 222,222; a scan checks its shortest distance.
        out = tmp_path / "out.csv"
        code = main([*argv, "--strategy", "qnd", "--k", "1e6", "--mu-prime", "300",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--k" in err and "distance 0.0 km" in err and "exceeds 1" in err
        assert not out.exists()


class TestScanRecipes:
    def test_fig3_two_curves_with_sign_changes(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["scan", "--recipe", "fig3", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        strategies = {row["strategy"] for row in rows}
        assert strategies == {"baseline", "qnd"}
        for label, lo, hi in (("baseline", 150.0, 165.0), ("qnd", 165.0, 175.0)):
            curve = [(float(r["L"]), float(r["rate"])) for r in rows if r["strategy"] == label]
            last_positive = max(L for L, rate in curve if rate > 0.0)
            assert lo <= last_positive <= hi, (label, last_positive)

    def test_fig7_r_absolute_below_rate(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["scan", "--recipe", "fig7", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert {row["strategy"] for row in rows} == {"pnrd"}
        positive = [r for r in rows if float(r["rate"]) > 0.0]
        assert positive
        assert all(float(r["r_absolute"]) < float(r["rate"]) for r in positive)

    def test_custom_distances_list(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--strategy", "baseline", "--distances", "10,50,90",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert [float(r["L"]) for r in rows] == [10.0, 50.0, 90.0]

    def test_bad_distance_spec(self, capsys):
        code = main(["scan", "--strategy", "baseline", "--distances", "10:5:1"])
        assert code == EXIT_CONFIG
        assert "--distances" in capsys.readouterr().err


class TestSweepAndKmin:
    def test_sweep_contains_published_tuple(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--k-values", "310", "--mu-prime-values", "200,300",
                     "--distance", "100", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        target = next(r for r in rows if float(r["mu_prime"]) == 300.0)
        assert float(target["rate"]) > 0.0
        assert target["feasible"] == "true"

    def test_kmin_monotone_column(self, tmp_path):
        out = tmp_path / "kmin.csv"
        code = main(["kmin", "--distances", "1,70,140", "--tol", "1.0",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        ks = [float(r["k_min"]) for r in rows]
        assert all(b >= a - 1.0 for a, b in zip(ks, ks[1:]))
        assert all(r["converged"] == "true" for r in rows)

    def test_kmin_all_degenerate_distance_is_flagged(self, tmp_path):
        config = tmp_path / "dark.json"
        config.write_text(json.dumps({"dark_count": 0}))
        out = tmp_path / "kmin.csv"
        code = main(["kmin", "--config", str(config), "--distances", "900",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert [(r["k_min"], r["converged"]) for r in read_csv(out)] == [("inf", "false")]

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--k-values", "20,10"], "--k-values"),
        (["sweep", "--k-values", "0.5"], "--k-values"),
        (["sweep", "--mu-prime-values=-20,0"], "--mu-prime-values"),
        (["sweep", "--eta-e", "0"], "--eta-e"),
        (["kmin", "--eta-e", "2"], "--eta-e"),
        (["kmin", "--tol", "0"], "--tol"),
        (["kmin", "--tol", "inf"], "--tol"),
        (["validate", "--seed", "-1"], "--seed"),
        (["scan", "--distances", "0:inf:1"], "--distances"),
        (["scan", "--distances", "0:10:inf"], "--distances"),
        # a recipe fixes these itself
        (["scan", "--recipe", "fig7", "--strategy", "baseline"], "--strategy"),
        (["scan", "--recipe", "fig3", "--k", "10"], "--k"),
        (["scan", "--recipe", "fig6", "--mu-prime", "10"], "--mu-prime"),
        (["scan", "--recipe", "fig7", "--eta-e", "0.5"], "--eta-e"),
        (["scan", "--recipe", "fig7", "--distances", "0:4:2"], "--distances"),
        (["sweep", "--recipe", "fig2", "--distance", "50"], "--distance"),
        (["sweep", "--recipe", "fig2", "--k-values", "10"], "--k-values"),
        (["sweep", "--recipe", "fig2", "--mu-prime-values", "0,20"], "--mu-prime-values"),
        (["sweep", "--recipe", "fig2", "--eta-e", "0.1"], "--eta-e"),
        (["kmin", "--recipe", "fig4", "--distances", "5"], "--distances"),
    ])
    def test_bad_search_argument_names_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_deterministic_csv_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["validate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300",
                "--distance", "100", "--n-pulses", "100000", "--seed", "31337"]
        assert main(argv + ["--out", str(out_a)]) == EXIT_OK
        assert main(argv + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_baseline_validation_passes(self, tmp_path):
        out = tmp_path / "val.csv"
        code = main(["validate", "--strategy", "baseline", "--distance", "60",
                     "--n-pulses", "200000", "--seed", "8", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert all(r["pass"] == "true" for r in rows)

    def test_disagreement_exits_3(self, tmp_path, capsys, monkeypatch):
        # A closed form off by far more than 3 sigma fails that quantity alone.
        analytic = cli._analytic_quantities
        monkeypatch.setattr(cli, "_analytic_quantities",
                            lambda params, strategy: {**analytic(params, strategy), "q_mu": 0.5})
        out = tmp_path / "val.csv"
        code = main(["validate", "--strategy", "baseline", "--distance", "60",
                     "--n-pulses", "20000", "--seed", "8", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "validation FAILED" in capsys.readouterr().err
        assert {r["quantity"]: r["pass"] for r in read_csv(out)} == {
            "q_mu": "false", "q_nu": "true", "emu_qmu": "true", "enu_qnu": "true"}

    def test_manifest_records_the_run(self, tmp_path, capsys):
        out, manifest = tmp_path / "val.csv", tmp_path / "run.json"
        code = main(["validate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300",
                     "--distance", "100", "--n-pulses", "20000", "--seed", "4",
                     "--out", str(out), "--manifest", str(manifest)])
        assert code == EXIT_OK
        assert f"wrote run manifest to {manifest}" in capsys.readouterr().out
        record = json.loads(manifest.read_text())
        assert (record["strategy"], record["n_pulses"], record["seed"]) == ("qnd", 20000, 4)
        assert record["params"]["distance"] == 100.0
        assert record["strategy_fields"] == {"mu_prime": 300.0, "k": 310.0}
        for row in read_csv(out):
            assert float(row["empirical"]) == record["estimates"][row["quantity"]]

    @pytest.mark.parametrize("n_pulses", ["0", "-5"])
    def test_non_positive_pulse_count_is_config_error(self, tmp_path, capsys, n_pulses):
        code = main(["validate", "--strategy", "baseline", "--n-pulses", n_pulses,
                     "--out", str(tmp_path / "val.csv")])
        assert code == EXIT_CONFIG
        assert "--n-pulses" in capsys.readouterr().err
        assert not (tmp_path / "val.csv").exists()


class TestRecipeReferences:
    def test_recipe_csvs_match_bench_references(self, tmp_path):
        # The benchmark's own gate: floats within rtol 1e-6 / atol 1e-15, flags exact.
        spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        recipes = {"fig2": "sweep", "fig3": "scan", "fig4": "kmin", "fig6": "scan", "fig7": "scan"}
        problems = {}
        for fig, command in recipes.items():
            out = tmp_path / f"{fig}.csv"
            assert main([command, "--recipe", fig, "--out", str(out)]) == EXIT_OK
            found = checks.compare_csv(checks.read_csv(out),
                                       checks.read_csv(BENCH / "ref" / f"{fig}.csv.gz"))
            if found:
                problems[fig] = found
        assert not problems
