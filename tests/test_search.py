"""Tests for the sweep, per-distance optimum, k_min bisection, and distance scans."""

import inspect
import math
import random

import pytest

from decoy_fsa import cli, search
from decoy_fsa.decoy import evaluate
from decoy_fsa.model import GYS
from decoy_fsa.observables import PNRD, QND, Baseline, DegenerateObservablesError
from decoy_fsa.search import (
    SCAN_HEADER,
    best_rate_over_mu_prime,
    distance_scan,
    k_min,
    sweep_grid,
    write_csv,
)
from reference import k_infinity

COARSE_GRID = tuple(float(x) for x in range(0, 2001, 10))
FIG4_DISTANCES = (1.0,) + tuple(float(x) for x in range(10, 141, 10))


def count_curve_points(monkeypatch):
    """Count the mu' points the search evaluates on its attack curves; returns the reader."""
    calls = 0
    attack_curve = search.attack_curve

    def counted_curve(*args):
        curve = attack_curve(*args)

        def point(mu_prime):
            nonlocal calls
            calls += 1
            return curve(mu_prime)

        return point

    monkeypatch.setattr(search, "attack_curve", counted_curve)
    return lambda: calls


class TestBestRateOverMuPrime:
    def test_no_mismatch_is_infeasible(self):
        _, best = best_rate_over_mu_prime(GYS.replace(distance=100.0), 1.0, COARSE_GRID)
        assert best < 0.0
        # k_min never probes k = 1, on this premise: both detectors meet the faked
        # states alike, so e_mu = 1/2 and no rate is positive.  The sample's seed was
        # fixed before its first run and is not re-drawn.
        rng = random.Random(2718)
        for i in range(50):
            mu = rng.uniform(0.1, 1.0)
            params = GYS.replace(
                mu=mu, nu=mu * rng.uniform(0.05, 0.95), eta_bob=rng.uniform(0.02, 1.0),
                dark_count=rng.choice((0.0, 1.7e-6, 1e-3, 0.1, 0.3)),
                e_detector=rng.choice((0.0, 0.033, 0.5)), distance=rng.uniform(0.0, 150.0),
            )
            eta_e = rng.uniform(0.05, 1.0)
            for mu_prime in COARSE_GRID:
                strategy = QND(mu_prime, 1.0) if i % 2 == 0 else PNRD(mu_prime, 1.0, eta_e)
                try:
                    report = evaluate(params, strategy)
                except DegenerateObservablesError:  # no light and no darks
                    continue
                assert report.rate <= 0.0, (params, strategy)
                if report.q_mu > 1e-12:
                    assert abs(report.emu_qmu / report.q_mu - 0.5) < 1e-9, (params, strategy)

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

    @pytest.mark.parametrize("mu_prime", [-1.0, math.inf, math.nan])
    def test_bad_intensity_rejected_by_name(self, mu_prime):
        with pytest.raises(ValueError, match="mu_prime must be finite and non-negative"):
            best_rate_over_mu_prime(GYS, 310.0, (0.0, mu_prime))

    @pytest.mark.parametrize("params, k, message", [
        (GYS, 0.5, "k must be >= 1"),
        (GYS.replace(eta_bob=1.0, distance=0.0), 2e4, "exceeds 1"),
    ], ids=["k-below-1", "k-blind-above-1"])
    def test_bad_mismatch_rejected_before_any_point(self, monkeypatch, params, k, message):
        points = count_curve_points(monkeypatch)
        for search_at in (lambda: best_rate_over_mu_prime(params, k, COARSE_GRID),
                          lambda: sweep_grid(params, (k,), COARSE_GRID)):
            with pytest.raises(ValueError, match=message):
                search_at()
        assert points() == 0

    def test_degenerate_point_reads_minus_inf(self):
        # Without dark counts and faked states the gain is zero: the search reads -inf
        # there, where evaluate raises.
        params = GYS.replace(dark_count=0.0)
        assert best_rate_over_mu_prime(params, 310.0, (0.0,)) == (0.0, -math.inf)
        assert sweep_grid(params, (310.0,), (0.0,))[0].rate == -math.inf
        with pytest.raises(DegenerateObservablesError):
            evaluate(params, QND(mu_prime=0.0, k=310.0))


class TestKmin:
    def test_bisection_agrees_with_linear_scan(self):
        # Independent check: a fine linear scan at half the tolerance.
        params = GYS
        tol = 1.0
        for distance in (5.0, 100.0):
            result = k_min(params.replace(distance=distance), tol=tol)
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
        distances = (1.0, 40.0, 80.0, 120.0, 140.0)
        results = [k_min(GYS.replace(distance=L), tol=0.5) for L in distances]
        assert all(r.converged for r in results)
        ks = [r.k_min for r in results]
        assert all(b >= a - 0.5 for a, b in zip(ks, ks[1:]))

    def test_short_distance_regression(self):
        result = k_min(GYS.replace(distance=5.0), tol=0.5)
        assert result.converged
        assert result.k_min == pytest.approx(18.6, abs=1.0)

    def test_unattackable_distance_flagged(self):
        result = k_min(GYS.replace(distance=250.0), tol=0.5)
        assert not result.converged
        assert math.isinf(result.k_min)

    def test_all_degenerate_distance_flagged(self):
        result = k_min(GYS.replace(dark_count=0.0, distance=900.0))
        assert not result.converged
        assert math.isinf(result.k_min)

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        reference = k_min(GYS.replace(distance=50.0), tol=1e-12).k_min
        probes = 0
        probe = search._probe

        def counted(*args):
            nonlocal probes
            probes += 1
            if probes > 100:
                raise RuntimeError("k_min bisection does not terminate")
            return probe(*args)

        monkeypatch.setattr(search, "_probe", counted)
        result = k_min(GYS.replace(distance=50.0), tol=1e-300)
        assert result.converged
        assert result.k_min == pytest.approx(reference, abs=1e-12)

    def test_default_tolerance_is_the_kmin_commands(self):
        # 0.5 sets fig4's dyadic step, 999/2**11; the library and the CLI share it.
        default = inspect.signature(k_min).parameters["tol"].default
        assert default == cli.build_parser().parse_args(["kmin"]).tol == 0.5

    def test_feasibility_only_switches_on_as_k_grows(self):
        # The bisection's premise: along k, no infeasible probe sits above a
        # feasible one.  The sample's seed was fixed before its first run.
        rng = random.Random(4242)
        ladder = [1000.0 ** (i / 24) for i in range(1, 25)]  # geometric, in (1, 1000]
        for i in range(12):
            params = GYS.replace(
                dark_count=10.0 ** rng.uniform(-8.0, -2.0),
                e_detector=rng.choice((0.0, 0.01, 0.033, 0.1)),
                distance=rng.uniform(0.0, 150.0),
            )
            eta_e = 1.0 if i % 2 == 0 else rng.uniform(0.05, 1.0)
            feasible = [search._probe(params, k, eta_e, False)[1] > 0.0 for k in ladder]
            assert feasible == sorted(feasible), (params, eta_e, list(zip(ladder, feasible)))

    @pytest.mark.parametrize("params, eta_e", [
        (GYS, 1.0), (GYS.replace(e_detector=0.033), 1.0), (GYS, 0.1),
    ], ids=["qnd", "qnd-misaligned", "pnrd"])
    def test_fig4_feasibility_switches_on_once(self, params, eta_e):
        # The bisection's premise at every fig4 distance, on a fixed geometric
        # ladder in (1, 1000]; the k_min reported there is itself feasible.
        ladder = [1000.0 ** (i / 48) for i in range(1, 49)]
        for distance in FIG4_DISTANCES:
            p = params.replace(distance=distance)
            feasible = [search._probe(p, k, eta_e, False)[1] > 0.0 for k in ladder]
            assert feasible == sorted(feasible), (distance, list(zip(ladder, feasible)))
            result = k_min(p, eta_e=eta_e)
            assert result.converged == feasible[-1], distance
            if result.converged:
                assert search._probe(p, result.k_min, eta_e, False)[1] > 0.0, distance

    @pytest.mark.parametrize("e_detector", [0.0, 0.033])
    @pytest.mark.parametrize("eta_e", [1.0, 0.5, 0.1, 0.01], ids=["qnd", "pnrd-0.5", "pnrd-0.1",
                                                                  "pnrd-0.01"])
    def test_matches_the_closed_form_bound(self, eta_e, e_detector):
        # Without dark counts the bound does not depend on distance.  Beyond 140 km
        # k_min falls below it, through the rounding of 1 - exp(-x) at small x.
        params = GYS.replace(dark_count=0.0, e_detector=e_detector)
        bound = k_infinity(params, eta_e)
        for distance in (1.0, 70.0, 140.0):
            result = k_min(params.replace(distance=distance), tol=1e-3, eta_e=eta_e)
            assert bound <= result.k_min <= bound + 0.01, (distance, bound, result)

    def test_dark_counts_keep_k_min_above_the_closed_form_bound(self):
        # k_inf is the d = 0 bound; with dark counts k_min may rise above it (the mu'
        # cap binds) but falls no more than tol below it.  The sample's seed was fixed
        # before its first run and is not re-drawn.
        rng = random.Random(1729)
        converged = 0
        for _ in range(40):
            params = GYS.replace(
                dark_count=10.0 ** rng.uniform(-8.0, -1.5),
                e_detector=rng.choice((0.0, 0.01, 0.033)),
                distance=rng.uniform(0.0, 150.0),
            )
            eta_e = rng.choice((1.0, 0.5, 0.1, 0.01))
            result = k_min(params, tol=0.5, eta_e=eta_e)
            if result.converged:
                converged += 1
                assert result.k_min >= k_infinity(params, eta_e) - 0.5, (params, eta_e, result)
        assert converged

    def test_qnd_is_eta_e_1(self):
        # QND is the default efficiency 1.0; the old spelling eta_e=None fails loudly.
        for distance in (1.0, 140.0):
            params = GYS.replace(distance=distance)
            assert repr(k_min(params, eta_e=1.0)) == repr(k_min(params))
        with pytest.raises(TypeError):
            k_min(GYS, eta_e=None)

    def test_distance_comes_from_params(self):
        result = k_min(GYS.replace(distance=250.0), tol=0.5)
        assert result.distance == 250.0
        # The old form k_min(params, distance) would take the distance as tol.
        with pytest.raises(TypeError):
            k_min(GYS, 50.0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            k_min(GYS.replace(distance=50.0), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tol):
        # An infinite tolerance used to skip the bisection and report
        # k_min = 1000 as converged.
        with pytest.raises(ValueError, match="tol must be finite"):
            k_min(GYS.replace(distance=50.0), tol=tol)


class TestKminEarlyStop:
    @staticmethod
    def reference_k_min(params, distance, tol=0.5, eta_e=1.0):
        """The full two-stage search at every probe, as before probes stopped early."""

        def two_stage_best(p, k):
            coarse = [i * search.COARSE_MU_STEP
                      for i in range(int(search.COARSE_MU_MAX / search.COARSE_MU_STEP) + 1)]
            mu_star, _ = best_rate_over_mu_prime(p, k, coarse, eta_e)
            lo = max(0.0, mu_star - search.COARSE_MU_STEP)
            hi = min(search.COARSE_MU_MAX, mu_star + search.COARSE_MU_STEP)
            fine = [lo + i * search.FINE_MU_STEP
                    for i in range(int(round((hi - lo) / search.FINE_MU_STEP)) + 1)]
            return best_rate_over_mu_prime(p, k, fine, eta_e)

        p = params.replace(distance=distance)
        mu_hi, rate_hi = two_stage_best(p, search.K_MAX)
        if rate_hi <= 0.0:
            return math.inf, math.nan, False
        mu_lo, rate_lo = two_stage_best(p, 1.0)
        if rate_lo > 0.0:
            return 1.0, mu_lo, True
        lo, hi, mu_at_hi = 1.0, search.K_MAX, mu_hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            mu_mid, rate_mid = two_stage_best(p, mid)
            if rate_mid > 0.0:
                hi, mu_at_hi = mid, mu_mid
            else:
                lo = mid
        return hi, mu_at_hi, True

    CASES = [
        (GYS, 1.0, 0.5, 1.0),
        (GYS, 50.0, 0.5, 1.0),
        (GYS, 140.0, 0.5, 1.0),
        (GYS, 250.0, 0.5, 1.0),
        (GYS, 50.0, 0.5, 0.1),
        (GYS.replace(e_detector=0.033), 100.0, 0.5, 1.0),
        (GYS.replace(dark_count=0.0), 900.0, 0.5, 1.0),
        (GYS, 50.0, 1e-12, 1.0),
        # near k_min the coarse grid misses the positive rates that the fine grid finds
        (GYS, 1.0, 1e-12, 1.0),
    ]

    # The ids keep their earlier form, in which QND's eta_e read None.
    @pytest.mark.parametrize("params, distance, tol, eta_e", CASES, ids=[
        f"params{i}-{distance}-{tol}-{'None' if eta_e == 1.0 else eta_e}"
        for i, (_, distance, tol, eta_e) in enumerate(CASES)
    ])
    def test_matches_full_search_bit_for_bit(self, params, distance, tol, eta_e):
        result = k_min(params.replace(distance=distance), tol=tol, eta_e=eta_e)
        expected = self.reference_k_min(params, distance, tol, eta_e)
        # repr compares floats bit for bit and treats nan == nan
        assert repr((result.k_min, result.mu_prime_at_kmin, result.converged)) == repr(expected)

    def test_fig4_evaluation_budget(self, monkeypatch):
        # The full search at every probe took 41,370 evaluations here, probes that
        # stop at the first positive rate 15,428, and dropping the k = 1 probe 12,248.
        points = count_curve_points(monkeypatch)
        for distance in FIG4_DISTANCES:
            k_min(GYS.replace(distance=distance))
        assert points() == 12_248

    def test_grid_edge_flag(self):
        edge = {d: k_min(GYS.replace(distance=d)).on_grid_edge for d in FIG4_DISTANCES}
        assert edge == {d: d >= 20.0 for d in FIG4_DISTANCES}
        assert not k_min(GYS.replace(distance=250.0)).on_grid_edge

    def test_argmax_probe_refines_down_to_zero_intensity(self):
        # At small k the least negative rate is the dark counts' alone, at mu' = 0, so
        # the fine grid around the coarse argmax must start at 0, not above it.
        params = GYS.replace(distance=100.0)
        mu_prime, rate = search._probe(params, 2.0, 1.0, True)
        assert mu_prime == 0.0
        assert rate == evaluate(params, QND(mu_prime=0.0, k=2.0)).rate

    @pytest.mark.parametrize("mu_prime, edge", [
        (0.0, True), (search.COARSE_MU_MAX, True), (0.01, False), (1.0, False),
        (math.nextafter(search.COARSE_MU_MAX, 0.0), False),
    ])
    def test_grid_edge_flag_at_both_ends(self, mu_prime, edge):
        # No GYS point puts the argmax at mu' = 0, so the lower end is pinned here.
        assert search.KminResult(50.0, 20.0, mu_prime, True).on_grid_edge is edge


class TestSweepGrid:
    def test_single_cell_matches_direct_pipeline(self):
        params = GYS.replace(distance=100.0)
        rows = sweep_grid(params, (310.0,), (300.0,))
        assert len(rows) == 1
        direct = evaluate(params, QND(mu_prime=300.0, k=310.0)).rate
        assert rows[0].rate == direct
        assert rows[0].feasible

    def test_fig2_evaluation_budget(self, monkeypatch, tmp_path):
        # One curve point per grid cell: 100 k values by 101 intensities.
        points = count_curve_points(monkeypatch)
        assert cli.main(["sweep", "--recipe", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        assert points() == 10_100

    def test_published_tuple_row_positive(self):
        params = GYS.replace(distance=100.0)
        rows = sweep_grid(params, (1.0, 310.0), (100.0, 300.0))
        by_key = {(r.k, r.mu_prime): r for r in rows}
        assert by_key[(310.0, 300.0)].rate > 0.0
        assert by_key[(310.0, 300.0)].feasible

    def test_no_mismatch_rows_all_infeasible(self):
        params = GYS.replace(distance=100.0)
        rows = sweep_grid(params, (1.0,), tuple(range(0, 2001, 100)))
        assert all(not row.feasible for row in rows)

    def test_row_order_k_major_and_deterministic(self):
        params = GYS.replace(distance=100.0)
        grid = ((10.0, 20.0), (0.0, 50.0, 100.0))
        rows_a = sweep_grid(params, *grid)
        rows_b = sweep_grid(params, *grid)
        assert rows_a == rows_b
        assert [(r.k, r.mu_prime) for r in rows_a] == [
            (10.0, 0.0), (10.0, 50.0), (10.0, 100.0),
            (20.0, 0.0), (20.0, 50.0), (20.0, 100.0),
        ]


class TestDistanceScan:
    def test_baseline_positive_region_regression(self):
        rows = distance_scan(GYS, (Baseline(),), tuple(float(x) for x in range(0, 201, 1)))
        last_positive = max(row.distance for row in rows if row.rate > 0.0)
        assert last_positive == 157.0

    def test_qnd_positive_region_regression(self):
        rows = distance_scan(
            GYS, (QND(mu_prime=300.0, k=310.0),), tuple(float(x) for x in range(0, 201, 1))
        )
        last_positive = max(row.distance for row in rows if row.rate > 0.0)
        assert last_positive == 169.0

    def test_r_absolute_only_on_pnrd_rows(self):
        distances = (50.0, 100.0)
        pnrd_rows = distance_scan(GYS, (PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1),), distances)
        assert all(not math.isnan(row.r_absolute) for row in pnrd_rows)
        qnd_rows = distance_scan(GYS, (QND(mu_prime=300.0, k=310.0),), distances)
        assert all(math.isnan(row.r_absolute) for row in qnd_rows)

    def test_rows_are_strategy_major(self):
        strategies = (Baseline(), QND(mu_prime=300.0, k=310.0))
        distances = (10.0, 50.0, 100.0)
        rows = distance_scan(GYS, strategies, distances)
        assert rows == [row for s in strategies for row in distance_scan(GYS, (s,), distances)]
        assert [(row.strategy, row.distance) for row in rows] == [
            (label, d) for label in ("baseline", "qnd") for d in distances]

    def test_degenerate_distance_is_flagged_not_fatal(self):
        params = GYS.replace(dark_count=0.0)
        rows = distance_scan(params, (QND(mu_prime=0.0, k=310.0),), (10.0, 50.0))
        assert [row.flags for row in rows] == ["degenerate", "degenerate"]
        assert all(math.isnan(row.rate) for row in rows)

    def test_csv_cells(self, tmp_path):
        # The csv module's dialect: CRLF lines, a cell quoted when it holds a comma or quote.
        out = tmp_path / "cells.csv"
        write_csv(out, ("a", "b", "c", "d", "e"), [
            (math.nan, math.inf, -0.0, True, "x,y"),
            (0.1, -math.inf, 0.0, False, 'z"'),
        ])
        assert out.read_bytes() == (b"a,b,c,d,e\r\n"
                                    b'nan,inf,-0,true,"x,y"\r\n'
                                    b'0.10000000000000001,-inf,0,false,"z"""\r\n')

    def test_csv_without_rows_is_the_header_line(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_csv(out, SCAN_HEADER, [])
        assert out.read_bytes() == (",".join(SCAN_HEADER) + "\r\n").encode()

    def test_csv_serialization(self, tmp_path):
        rows = distance_scan(GYS, (Baseline(),), (10.0, 100.0))
        out = tmp_path / "scan.csv"
        write_csv(out, SCAN_HEADER, rows)
        text = out.read_text().splitlines()
        assert text[0] == ",".join(SCAN_HEADER)
        assert len(text) == 3
        # 17 significant digits survive a float round trip exactly
        q_mu = float(text[2].split(",")[2])
        assert q_mu == rows[1].q_mu
