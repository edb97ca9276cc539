"""Tests for the command-line interface: exit codes, recipes, determinism."""

import csv
import json

import pytest

from decoy_fsa.cli import EXIT_CONFIG, EXIT_OK, build_parser, main


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

    @pytest.mark.parametrize("n_pulses", ["0", "-5"])
    def test_non_positive_pulse_count_is_config_error(self, tmp_path, capsys, n_pulses):
        code = main(["validate", "--strategy", "baseline", "--n-pulses", n_pulses,
                     "--out", str(tmp_path / "val.csv")])
        assert code == EXIT_CONFIG
        assert "--n-pulses" in capsys.readouterr().err
        assert not (tmp_path / "val.csv").exists()
