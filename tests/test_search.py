"""Tests for the sweep, per-distance optimum, k_min bisection, and distance scans."""

import math

import pytest

from decoy_fsa import search
from decoy_fsa.model import GYS
from decoy_fsa.observables import PNRD, QND, Baseline
from decoy_fsa.search import (
    SCAN_HEADER,
    SweepGrid,
    best_rate_over_mu_prime,
    distance_scan,
    k_min,
    sweep_grid,
    write_csv,
)

COARSE_GRID = tuple(float(x) for x in range(0, 2001, 10))


class TestBestRateOverMuPrime:
    def test_no_mismatch_is_infeasible(self):
        _, best = best_rate_over_mu_prime(GYS.replace(distance=100.0), 1.0, COARSE_GRID)
        assert best < 0.0

    def test_published_tuple_is_feasible(self):
        mu_star, best = best_rate_over_mu_prime(
            GYS.replace(distance=100.0), 310.0, COARSE_GRID
        )
        assert best > 0.0

    def test_rate_grows_with_mismatch(self):
        params = GYS.replace(distance=100.0)
        _, r310 = best_rate_over_mu_prime(params, 310.0, COARSE_GRID)
        _, r600 = best_rate_over_mu_prime(params, 600.0, COARSE_GRID)
        assert r600 >= r310

    def test_tie_breaks_toward_smaller_intensity(self):
        # A single-value grid repeated evaluation is trivially deterministic;
        # equal-rate ties can only resolve to the first (smallest) entry.
        params = GYS.replace(distance=100.0)
        grid = (300.0, 300.0 + 0.0, 500.0)  # duplicate then larger
        mu_star, _ = best_rate_over_mu_prime(params, 310.0, grid[:2])
        assert mu_star == 300.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            best_rate_over_mu_prime(GYS, 310.0, ())

    def test_all_degenerate_grid_gives_first_intensity(self):
        # Without dark counts the gain rounds to zero at 900 km, so every
        # point is degenerate.
        params = GYS.replace(dark_count=0.0, distance=900.0)
        assert best_rate_over_mu_prime(params, 1000.0, (0.0, 10.0, 2000.0)) == (0.0, -math.inf)


class TestKmin:
    def test_bisection_agrees_with_linear_scan(self):
        # Independent check: a fine linear scan at half the tolerance.
        params = GYS
        tol = 1.0
        for distance in (5.0, 100.0):
            result = k_min(params, distance, tol=tol)
            assert result.converged
            k = 1.0
            scan_k = None
            while k <= 1000.0:
                _, best = best_rate_over_mu_prime(
                    params.replace(distance=distance), k, COARSE_GRID
                )
                if best > 0.0:
                    scan_k = k
                    break
                k += tol / 2.0
            assert scan_k is not None
            assert abs(result.k_min - scan_k) <= tol

    def test_monotone_in_distance(self):
        results = [k_min(GYS, L, tol=0.5) for L in (1.0, 40.0, 80.0, 120.0, 140.0)]
        assert all(r.converged for r in results)
        ks = [r.k_min for r in results]
        assert all(b >= a - 0.5 for a, b in zip(ks, ks[1:]))

    def test_short_distance_regression(self):
        result = k_min(GYS, 5.0, tol=0.5)
        assert result.converged
        assert result.k_min == pytest.approx(18.6, abs=1.0)

    def test_unattackable_distance_flagged(self):
        result = k_min(GYS, 250.0, tol=0.5)
        assert not result.converged
        assert math.isinf(result.k_min)

    def test_all_degenerate_distance_flagged(self):
        result = k_min(GYS.replace(dark_count=0.0), 900.0)
        assert not result.converged
        assert math.isinf(result.k_min)

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        reference = k_min(GYS, 50.0, tol=1e-12).k_min
        probes = 0
        two_stage_best = search._two_stage_best

        def counted(*args):
            nonlocal probes
            probes += 1
            if probes > 100:
                raise RuntimeError("k_min bisection does not terminate")
            return two_stage_best(*args)

        monkeypatch.setattr(search, "_two_stage_best", counted)
        result = k_min(GYS, 50.0, tol=1e-300)
        assert result.converged
        assert result.k_min == pytest.approx(reference, abs=1e-12)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            k_min(GYS, 50.0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tol):
        # An infinite tolerance used to skip the bisection and report
        # k_min = 1000 as converged.
        with pytest.raises(ValueError, match="tol must be finite"):
            k_min(GYS, 50.0, tol=tol)


class TestSweepGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(k_values=(), mu_prime_values=(1.0,))
        with pytest.raises(ValueError):
            SweepGrid(k_values=(10.0, 5.0), mu_prime_values=(1.0,))
        with pytest.raises(ValueError):
            SweepGrid(k_values=(0.5,), mu_prime_values=(1.0,))
        with pytest.raises(ValueError):
            SweepGrid(k_values=(10.0, 2000.0), mu_prime_values=(1.0,))

    def test_single_cell_matches_direct_pipeline(self):
        from decoy_fsa.decoy import evaluate

        params = GYS.replace(distance=100.0)
        grid = SweepGrid(k_values=(310.0,), mu_prime_values=(300.0,))
        rows = sweep_grid(params, grid)
        assert len(rows) == 1
        direct = evaluate(params, QND(mu_prime=300.0, k=310.0)).rate
        assert rows[0].rate == direct
        assert rows[0].feasible

    def test_published_tuple_row_positive(self):
        params = GYS.replace(distance=100.0)
        grid = SweepGrid(k_values=(1.0, 310.0), mu_prime_values=(100.0, 300.0))
        rows = sweep_grid(params, grid)
        by_key = {(r.k, r.mu_prime): r for r in rows}
        assert by_key[(310.0, 300.0)].rate > 0.0
        assert by_key[(310.0, 300.0)].feasible

    def test_no_mismatch_rows_all_infeasible(self):
        params = GYS.replace(distance=100.0)
        grid = SweepGrid(k_values=(1.0,), mu_prime_values=tuple(range(0, 2001, 100)))
        assert all(not row.feasible for row in sweep_grid(params, grid))

    def test_row_order_k_major_and_deterministic(self):
        params = GYS.replace(distance=100.0)
        grid = SweepGrid(k_values=(10.0, 20.0), mu_prime_values=(0.0, 50.0, 100.0))
        rows_a = sweep_grid(params, grid)
        rows_b = sweep_grid(params, grid)
        assert rows_a == rows_b
        assert [(r.k, r.mu_prime) for r in rows_a] == [
            (10.0, 0.0), (10.0, 50.0), (10.0, 100.0),
            (20.0, 0.0), (20.0, 50.0), (20.0, 100.0),
        ]


class TestDistanceScan:
    def test_baseline_positive_region_regression(self):
        rows = distance_scan(GYS, Baseline(), tuple(float(x) for x in range(0, 201, 1)))
        last_positive = max(row.distance for row in rows if row.rate > 0.0)
        assert last_positive == 157.0

    def test_qnd_positive_region_regression(self):
        rows = distance_scan(
            GYS, QND(mu_prime=300.0, k=310.0), tuple(float(x) for x in range(0, 201, 1))
        )
        last_positive = max(row.distance for row in rows if row.rate > 0.0)
        assert last_positive == 169.0

    def test_r_absolute_only_on_pnrd_rows(self):
        distances = (50.0, 100.0)
        pnrd_rows = distance_scan(GYS, PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1), distances)
        assert all(not math.isnan(row.r_absolute) for row in pnrd_rows)
        qnd_rows = distance_scan(GYS, QND(mu_prime=300.0, k=310.0), distances)
        assert all(math.isnan(row.r_absolute) for row in qnd_rows)

    def test_degenerate_distance_is_flagged_not_fatal(self):
        params = GYS.replace(dark_count=0.0)
        rows = distance_scan(params, QND(mu_prime=0.0, k=310.0), (10.0, 50.0))
        assert [row.flags for row in rows] == ["degenerate", "degenerate"]
        assert all(math.isnan(row.rate) for row in rows)

    def test_csv_serialization(self, tmp_path):
        rows = distance_scan(GYS, Baseline(), (10.0, 100.0))
        out = tmp_path / "scan.csv"
        write_csv(out, SCAN_HEADER, rows)
        text = out.read_text().splitlines()
        assert text[0] == ",".join(SCAN_HEADER)
        assert len(text) == 3
        # 17 significant digits survive a float round trip exactly
        q_mu = float(text[2].split(",")[2])
        assert q_mu == rows[1].q_mu
