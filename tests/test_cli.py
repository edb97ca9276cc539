"""Tests for the command-line interface: exit codes, recipes, determinism."""

import csv
import gzip
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from decoy_fsa import cli, search
from decoy_fsa.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, build_parser, main,
)
from decoy_fsa.decoy import evaluate
from decoy_fsa.model import GYS
from decoy_fsa.observables import PNRD, QND
from decoy_fsa.search import SCAN_HEADER, k_min
from reference import PARAM_EDGES

BENCH = Path(__file__).resolve().parent.parent / "bench"


# `rate` stdout at 100 km, recorded as exact text.
RATE_STDOUT = {
    "baseline": (["--strategy", "baseline"],
                 "strategy = baseline\nL = 100.0\nq_mu = 0.00017326018056940118\n"
                 "e_mu = 0.00490591662323429\ny1_lower = 0.00035399335147054883\n"
                 "q1_lower = 0.00010514169921588937\ne1_upper = 0.002462217538187087\n"
                 "rate = 4.653887536499368e-05\nr_absolute = nan\nflags = \n"),
    "qnd": (["--strategy", "qnd", "--k", "310", "--mu-prime", "300"],
            "strategy = qnd\nL = 100.0\nq_mu = 0.00025122639054993415\n"
            "e_mu = 0.01072378059224122\ny1_lower = 0.0008418030633977667\n"
            "q1_lower = 0.0002500290023049935\ne1_upper = 0.008410937961817203\n"
            "rate = 0.00010314446629775978\nr_absolute = nan\nflags = \n"),
    "pnrd": (["--strategy", "pnrd", "--k", "1000", "--mu-prime", "900", "--eta-e", "0.1"],
             "strategy = pnrd\nL = 100.0\nq_mu = 0.0003678821516913681\n"
             "e_mu = 0.0044077516211348\ny1_lower = 0.0007929187144345174\n"
             "q1_lower = 0.00023550956714129062\ne1_upper = 0.003323954254829048\n"
             "rate = 0.00010480400288148727\nr_absolute = 3.679452056891279e-07\nflags = \n"),
}

# sha256 of the seeded `validate` CSV and --manifest at 2e4 pulses, recorded with numpy 2.4.
VALIDATE_SHA256 = {
    "baseline": (["--strategy", "baseline", "--distance", "60", "--seed", "8"],
                 "73c122acf5f7631875020f20cc618aac2bf7f64218219aa1284c1cea01ac4552",
                 "545bd652ab88c2b0b80cf3d54584ee2633ee5da7e5a49a333f00de2e902ecd11"),
    "qnd": (["--strategy", "qnd", "--k", "310", "--mu-prime", "300", "--distance", "100",
             "--seed", "4"],
            "1e924468205c69a422534306e053eafda275e98ca3f6986f52bf1563621c25b0",
            "c0f0dbd4a1904616427d79c77f6a350419988e2f895855ff808b87624c833f57"),
    "pnrd": (["--strategy", "pnrd", "--k", "1000", "--mu-prime", "900", "--eta-e", "0.5",
              "--distance", "50", "--seed", "3"],
             "cc0cfa8c64a85bd0868ec212cdefe7fce6a6e8a9cd006f6134840be4c2cff3b5",
             "4af4946488b5fb1a178d0d3e5bf4b35dca92d58608d9900c77b87fb13f9b6b64"),
}


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

    @pytest.mark.parametrize("command", sorted(cli._RECIPES))
    def test_recipe_choices_are_the_recipe_table_entries(self, command):
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
        [recipe] = [a for a in sub._actions if a.dest == "recipe"]
        assert set(recipe.choices) == set(cli._RECIPES[command]) - {None}

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_parse_errors_are_returned_not_raised(self, capsys):
        assert main(["rate", "--k", "abc"]) == EXIT_CONFIG
        assert "--k" in capsys.readouterr().err
        assert main(["rate", "--help"]) == EXIT_OK

    @pytest.mark.parametrize("argv, name", [
        (["scan", "--distances", "10,20"], "scan_baseline.csv"),
        (["scan", "--recipe", "fig7"], "scan_fig7.csv"),
        (["sweep", "--k-values", "310", "--mu-prime-values", "300"], "sweep_grid.csv"),
        (["kmin", "--distances", "50"], "kmin_scan.csv"),
        (["validate", "--n-pulses", "2000"], "validate.csv"),
    ])
    def test_default_output_names(self, tmp_path, monkeypatch, capsys, argv, name):
        monkeypatch.chdir(tmp_path)
        assert main(argv) in (EXIT_OK, EXIT_VALIDATION)  # a validate verdict still writes
        rows = read_csv(tmp_path / name)
        assert f"wrote {len(rows)} rows to {name}" in capsys.readouterr().out.splitlines()

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

    @pytest.mark.parametrize("label", list(RATE_STDOUT))
    def test_stdout_is_pinned(self, capsys, label):
        argv, expected = RATE_STDOUT[label]
        assert main(["rate", *argv, "--distance", "100"]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_module_entry_point_exits_with_mains_code(self, tmp_path):
        # `python -m decoy_fsa.cli` runs `sys.exit(main())`.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv, expected = RATE_STDOUT["baseline"]
        result = subprocess.run([sys.executable, "-m", "decoy_fsa.cli", "rate", *argv,
                                 "--distance", "100"], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=300)
        assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, expected, "")

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

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read parameter file"),
        ("[1, 2]", "must hold a flat JSON object"),
    ], ids=["missing", "not-an-object"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, content, message):
        config = tmp_path / "params.json"
        if content is not None:
            config.write_text(content)
        assert main(["rate", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and str(config) in err

    def test_failed_write_exits_1(self, tmp_path, monkeypatch, capsys):
        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(search, "write_csv", full_disk)
        assert main(["rate", "--out", str(tmp_path / "out.csv")]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")

    def test_missing_strategy_options(self, capsys):
        code = main(["rate", "--strategy", "qnd"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--k" in err and "--mu-prime" in err

    def test_missing_pnrd_options(self, capsys):
        assert main(["rate", "--strategy", "pnrd"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--k" in err and "--mu-prime" in err and "--eta-e" in err

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

    @pytest.mark.parametrize("argv, flag", [
        (["scan", "--strategy", "qnd", "--k", "310", "--mu-prime", "300",
          "--distances", "0,15000"], "--distances"),
        (["sweep", "--distance", "15000"], "--distance"),
        (["kmin", "--distances", "15000"], "--distances"),
    ], ids=["scan", "sweep", "kmin"])
    def test_blinded_efficiency_below_float_floor_names_the_flag(
        self, tmp_path, capsys, argv, flag
    ):
        # At 15,000 km the blind efficiency is subnormal; the longest distance is checked.
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and "distance 15000.0 km" in err and "smallest normal float" in err
        assert not out.exists()

    def test_recipe_strategy_beyond_reach_names_the_flags(self, tmp_path, capsys):
        # At 100 dB/km the blind efficiency underflows to zero by fig7's last
        # distance; a recipe's strategies are checked like a flag-given one.
        config, out = tmp_path / "lossy.json", tmp_path / "out.csv"
        config.write_text(json.dumps({"alpha": 100}))
        assert main(["scan", "--recipe", "fig7", "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--config" in err and "--distances" in err and "distance 180.0 km" in err
        assert not out.exists()

    def test_config_int_beyond_float_range_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "huge.json"
        config.write_text('{"distance": 1' + "0" * 400 + "}")
        assert main(["rate", "--config", str(config)]) == EXIT_CONFIG
        assert "distance must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, outside", [(key, outside) for key, _, outside in PARAM_EDGES],
                             ids=[f"{key}={outside!r}" for key, _, outside in PARAM_EDGES])
    def test_config_value_just_outside_its_bound_names_the_key(self, tmp_path, capsys,
                                                               key, outside):
        config = tmp_path / "edge.json"
        config.write_text(json.dumps({key: outside}))  # JSON Infinity for inf
        assert main(["rate", "--config", str(config)]) == EXIT_CONFIG
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)

    def test_config_repeated_key_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "twice.json"
        config.write_text('{"distance": 50, "distance": 100}')
        assert main(["rate", "--config", str(config)]) == EXIT_CONFIG
        assert "repeated parameter key: 'distance'" in capsys.readouterr().err


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

    # 3 * 0.1 is 0.30000000000000004 and 3 * 0.3 is 0.8999999999999999 in floats;
    # either way the last point is stop itself.
    @pytest.mark.parametrize("spec, expected", [
        pytest.param("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3], id="0:0.3:0.1"),
        pytest.param("0:0.9:0.3", [0.0, 0.3, 0.6, 0.9], id="0:0.9:0.3"),
    ])
    def test_range_spec_ends_exactly_at_stop(self, tmp_path, spec, expected):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--strategy", "baseline", "--distances", spec,
                     "--out", str(out)]) == EXIT_OK
        assert [float(r["L"]) for r in read_csv(out)] == expected


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

    def test_sweep_runs_at_the_config_distance(self, tmp_path, capsys):
        config = tmp_path / "d50.json"
        config.write_text(json.dumps({"distance": 50}))
        sweep_out, fig2_out = tmp_path / "sweep.csv", tmp_path / "fig2.csv"
        assert main(["sweep", "--config", str(config), "--k-values", "310",
                     "--mu-prime-values", "300", "--out", str(sweep_out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["rate", "--config", str(config), "--strategy", "qnd", "--k", "310",
                     "--mu-prime", "300"]) == EXIT_OK
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert printed["L"] == "50.0"
        [row] = read_csv(sweep_out)
        assert float(row["rate"]) == float(printed["rate"])
        # The fig2 recipe fixes 100 km, whatever the file says.
        assert main(["sweep", "--recipe", "fig2", "--config", str(config),
                     "--out", str(fig2_out)]) == EXIT_OK
        [published] = [r for r in read_csv(fig2_out) if (r["k"], r["mu_prime"]) == ("310", "300")]
        at_100km = evaluate(GYS.replace(distance=100.0), QND(mu_prime=300.0, k=310.0)).rate
        assert float(published["rate"]) == at_100km

    def test_k_range_spec_may_end_at_the_upper_bound(self, tmp_path):
        # 10 + 900 * 1.1 rounds to 1000.0000000000001, past the k bound; the spec ends at 1000.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--k-values", "10:1000:1.1", "--mu-prime-values", "300",
                     "--out", str(out)]) == EXIT_OK
        ks = [float(r["k"]) for r in read_csv(out)]
        assert len(ks) == 901 and ks[-1] == 1000.0

    def test_kmin_monotone_column(self, tmp_path):
        out = tmp_path / "kmin.csv"
        code = main(["kmin", "--distances", "1,70,140", "--tol", "1.0",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        ks = [float(r["k_min"]) for r in rows]
        assert all(b >= a - 1.0 for a, b in zip(ks, ks[1:]))
        assert all(r["converged"] == "true" for r in rows)

    def test_eta_e_searches_the_pnrd_attack(self, tmp_path):
        sweep_out, kmin_out = tmp_path / "sweep.csv", tmp_path / "kmin.csv"
        assert main(["sweep", "--k-values", "310", "--mu-prime-values", "300", "--eta-e", "0.1",
                     "--out", str(sweep_out)]) == EXIT_OK
        [row] = read_csv(sweep_out)
        assert float(row["rate"]) == evaluate(GYS, PNRD(mu_prime=300.0, k=310.0, eta_e=0.1)).rate
        assert main(["kmin", "--distances", "50", "--eta-e", "0.1",
                     "--out", str(kmin_out)]) == EXIT_OK
        [row] = read_csv(kmin_out)
        expected = k_min(GYS.replace(distance=50.0), eta_e=0.1)
        assert [float(row[name]) for name in ("L", "k_min", "mu_prime_at_kmin")] == [
            expected.distance, expected.k_min, expected.mu_prime_at_kmin]
        assert row["converged"] == str(expected.converged).lower()

    @pytest.mark.parametrize("argv, qnd_argv", [
        (["kmin", "--recipe", "fig4"], ["kmin", "--recipe", "fig4", "--eta-e", "1"]),
        (["sweep", "--recipe", "fig2"], ["sweep", "--distance", "100", "--eta-e", "1"]),
    ], ids=["kmin-fig4", "sweep-fig2"])
    def test_eta_e_1_is_the_default_qnd_search(self, tmp_path, argv, qnd_argv):
        default, qnd = tmp_path / "default.csv", tmp_path / "qnd.csv"
        assert main([*argv, "--out", str(default)]) == EXIT_OK
        assert main([*qnd_argv, "--out", str(qnd)]) == EXIT_OK
        assert qnd.read_bytes() == default.read_bytes()

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
        (["sweep", "--k-values", "10,2000"], "--k-values"),
        (["sweep", "--k-values", ""], "--k-values"),
        # a grid of unbounded or over-large point count is rejected before expansion
        (["scan", "--distances", "0:1e308:1e-308"], "--distances"),
        (["sweep", "--k-values", "1:1000:1e-320"], "--k-values"),
        (["scan", "--distances", "0:10:1e-10"], "--distances"),
        # a negative distance is rejected for every strategy
        (["scan", "--distances=-5,10"], "--distances"),
        (["kmin", "--distances=-5,10"], "--distances"),
        # an output path in a missing directory, or naming a directory, is
        # rejected before any work
        (["scan", "--recipe", "fig3", "--out", "{tmp}/missing/f.csv"], "--out"),
        (["kmin", "--recipe", "fig4", "--out", "{tmp}"], "--out"),
        (["rate", "--out", "{tmp}/missing/r.csv"], "--out"),
        (["sweep", "--recipe", "fig2", "--out", "{tmp}"], "--out"),
        (["validate", "--n-pulses", "2000", "--out", "{tmp}/missing/v.csv"], "--out"),
        (["validate", "--n-pulses", "2000", "--manifest", "{tmp}/missing/m.json"], "--manifest"),
        # the run manifest would overwrite the CSV, given or default
        (["validate", "--n-pulses", "1000", "--out", "v.csv", "--manifest", "{tmp}/v.csv"],
         "--manifest and --out"),
        (["validate", "--n-pulses", "1000", "--manifest", "validate.csv"],
         "--manifest and --out"),
    ])
    def test_bad_search_argument_names_the_flag(self, tmp_path, monkeypatch, capsys, argv, flag):
        # Run in an empty directory, which also receives any default-named output.
        monkeypatch.chdir(tmp_path)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    # Each argv starts with the config file's name; the last names it by the default output.
    @pytest.mark.parametrize("argv, flag", [
        (["c.json", "scan", "--distances", "10", "--out", "{config}"], "--out"),
        (["c.json", "validate", "--n-pulses", "1000", "--out", "v.csv",
          "--manifest", "./{config}"], "--manifest"),
        (["kmin_scan.csv", "kmin", "--distances", "50"], "--out"),
    ])
    def test_output_naming_the_config_file_is_rejected(self, tmp_path, monkeypatch, capsys,
                                                       argv, flag):
        # The parameter file would be replaced by the output and unreadable next run.
        monkeypatch.chdir(tmp_path)
        name, command, *flags = argv
        config = tmp_path / name
        config.write_text(json.dumps({"distance": 50}))
        before = config.read_bytes()
        # The config is named by its absolute path, the output relative to the working directory.
        assert main([command, "--config", str(config)]
                    + [arg.format(config=name) for arg in flags]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert os.listdir(tmp_path) == [name] and config.read_bytes() == before


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
        assert capsys.readouterr().err == "validation FAILED: q_mu (beyond 3 sigma)\n"
        assert {r["quantity"]: r["pass"] for r in read_csv(out)} == {
            "q_mu": "false", "q_nu": "true", "emu_qmu": "true", "enu_qnu": "true"}

    def test_quantities_without_trials_are_named(self, tmp_path, capsys):
        # One pulse per stream resends none at seed 3, so the six resend
        # estimates have no trials: that still fails, and stderr says why.
        out = tmp_path / "val.csv"
        code = main(["validate", "--strategy", "qnd", "--k", "310", "--mu-prime", "300",
                     "--n-pulses", "1", "--seed", "3", "--out", str(out)])
        assert code == EXIT_VALIDATION
        resend = ("p_click0", "p_click1", "p_arrive", "p_error", "r1", "s0")
        assert capsys.readouterr().err == (
            "validation FAILED: " + ", ".join(f"{name} (no trials)" for name in resend) + "\n")
        assert [r["quantity"] for r in read_csv(out) if r["pass"] == "false"] == list(resend)

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

    @pytest.mark.parametrize("label", list(VALIDATE_SHA256))
    def test_seeded_outputs_are_pinned(self, tmp_path, label):
        argv, csv_sha, manifest_sha = VALIDATE_SHA256[label]
        out, manifest = tmp_path / "val.csv", tmp_path / "run.json"
        assert main(["validate", *argv, "--n-pulses", "20000", "--out", str(out),
                     "--manifest", str(manifest)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == manifest_sha

    @pytest.mark.parametrize("config, argv, err", [
        ({"dark_count": 0}, ["--strategy", "qnd", "--k", "310", "--mu-prime", "0"],
         "error: signal gain is zero; QBER undefined\n"),
        ({"eta_bob": 1, "mu": 20, "nu": 1}, ["--strategy", "baseline", "--distance", "0"],
         "error: need 0 <= E_mu*Q_mu <= Q_mu <= 1, got (8.5e-07, 1.0000016979388464)\n"),
    ], ids=["zero-gain", "gain-above-1"])
    def test_rejected_closed_forms_exit_before_the_monte_carlo(
        self, tmp_path, capsys, monkeypatch, config, argv, err
    ):
        runs = []
        monkeypatch.setattr(cli, "simulate_pulses", lambda *args: runs.append(args))
        path, out = tmp_path / "c.json", tmp_path / "val.csv"
        path.write_text(json.dumps(config))
        assert main(["validate", "--config", str(path), *argv, "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == err
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("n_pulses", ["0", "-5"])
    def test_non_positive_pulse_count_is_config_error(self, tmp_path, capsys, n_pulses):
        code = main(["validate", "--strategy", "baseline", "--n-pulses", n_pulses,
                     "--out", str(tmp_path / "val.csv")])
        assert code == EXIT_CONFIG
        assert "--n-pulses" in capsys.readouterr().err
        assert not (tmp_path / "val.csv").exists()


class TestRecipeReferences:
    RECIPES = {"fig2": "sweep", "fig3": "scan", "fig4": "kmin", "fig6": "scan", "fig7": "scan"}

    def test_recipe_csvs_match_bench_references(self, tmp_path):
        # The benchmark's own gate: floats within rtol 1e-6 / atol 1e-15, flags exact.
        spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        problems = {}
        for fig, command in self.RECIPES.items():
            out = tmp_path / f"{fig}.csv"
            assert main([command, "--recipe", fig, "--out", str(out)]) == EXIT_OK
            found = checks.compare_csv(checks.read_csv(out),
                                       checks.read_csv(BENCH / "ref" / f"{fig}.csv.gz"))
            if found:
                problems[fig] = found
        assert not problems

    def test_recipe_csvs_are_byte_identical_to_bench_references(self, tmp_path):
        # A last-digit drift passes the rtol gate above; the recipes' bytes do not move.
        differ = []
        for fig, command in self.RECIPES.items():
            out = tmp_path / f"{fig}.csv"
            assert main([command, "--recipe", fig, "--out", str(out)]) == EXIT_OK
            if out.read_bytes() != gzip.decompress((BENCH / "ref" / f"{fig}.csv.gz").read_bytes()):
                differ.append(fig)
        assert not differ


class TestStartup:
    def test_closed_form_commands_never_load_numpy(self, tmp_path):
        # numpy is imported by the Monte Carlo oracle on first use only, so the
        # closed-form commands start without it; a fresh interpreter shows that.
        script = """if True:
            import sys
            import decoy_fsa, decoy_fsa.cli
            for argv in (["rate"], ["scan", "--recipe", "fig3"],
                         ["sweep", "--k-values", "10,20", "--mu-prime-values", "0,20"],
                         ["kmin", "--distances", "50"]):
                assert decoy_fsa.cli.main([*argv, "--out", argv[0] + ".csv"]) == 0, argv
            assert "numpy" not in sys.modules
            code = decoy_fsa.cli.main(["validate", "--n-pulses", "2000"])
            assert "numpy" in sys.modules and code in (0, 3), code
        """
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
