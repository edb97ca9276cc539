"""Tests for the pulse-level Monte Carlo simulator."""

import ast
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoy_fsa import oracle
from decoy_fsa.cli import _analytic_quantities
from decoy_fsa.faked_states import FakedStateIntensities, p_arrive, p_click_det0, p_click_det1, p_error
from decoy_fsa.model import GYS, efficiency_matrix
from decoy_fsa.observables import Baseline, PNRD, QND, observables_for
from decoy_fsa.oracle import binomial_verdict, draw_photons, simulate_pulses
from decoy_fsa.security import table1_probs
from reference import poisson_pmf


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def assert_within_3sigma(measured, analytic, trials, label):
    sigma = _sigma(analytic, trials)
    if sigma == 0.0:
        assert measured == analytic, label
        return
    z = (measured - analytic) / sigma
    assert abs(z) <= 3.0, f"{label}: measured={measured} analytic={analytic} z={z:.2f}"


def _assert_tally_invariants(run, n_pulses):
    """Every pulse is accounted for once, and the resend counts are consistent."""
    for t in run.tallies.values():
        assert t["sifted"] + t["loss"] == n_pulses
        assert t["click0"] + t["click1"] - t["double_click"] == t["sifted"]
        assert 0 <= t["sifted_error"] <= t["sifted"]
        assert min(t["click0"], t["click1"], t["loss"], t["double_click"]) >= 0
    for successes, trials in run.counts.values():
        assert 0 <= successes <= trials
    # Only resent pulses double-click, so the click counts overlap in them.
    doubles = sum(t["double_click"] for t in run.tallies.values())
    clicks = run.counts["p_click0"][0] + run.counts["p_click1"][0]
    assert clicks - doubles == run.counts["p_arrive"][0]
    assert run.counts["p_error"][0] <= run.counts["p_arrive"][0]
    assert run.n_match_v0 + run.n_match_v1 <= run.n_resend
    assert 0 <= run.n_resend <= 2 * n_pulses


def _reach_limit(params):
    """The largest k whose matched efficiency k*blind stays at most 1."""
    _, blind = efficiency_matrix(params, 1.0)
    k = 1.0 / blind
    return k if k * blind <= 1.0 else math.nextafter(k, 0.0)


# Seeded streams pinned as integers, one run of 2e5 pulses per case at its
# own seed (fixed before the first run).  Any change to which numbers are drawn,
# or in what order, moves them; so does a numpy release that changes the
# Generator streams (these come from numpy 2.4.6).  Each case pins its counts
# in estimate order and its tallies as (signal, decoy) rows in tally-key order.
_NOISY = GYS.replace(dark_count=1e-3, e_detector=0.033)
_NO_RESENDS = ((0, 0),) * 6
PINNED_STREAMS = {
    "baseline-noisy-20km": (
        _NOISY.replace(distance=20.0), Baseline(), 101,
        ((1748, 200000), (401, 200000), (139, 200000), (129, 200000), *_NO_RESENDS),
        ((828, 920, 0, 198252, 1748, 139), (203, 198, 0, 199599, 401, 129)),
    ),
    # e_detector 0: the flip binomials draw nothing, or every later count moves.
    "qnd-gys": (
        GYS, QND(mu_prime=300.0, k=310.0), 102,
        ((47, 200000), (5, 200000), (0, 200000), (0, 200000), (20, 69122), (31, 69122),
         (51, 69122), (0, 69122), (0, 17301), (0, 17349)),
        ((19, 28, 0, 199953, 47, 0), (2, 3, 0, 199995, 5, 0)),
    ),
    "qnd-noisy": (
        _NOISY, QND(mu_prime=300.0, k=310.0), 103,
        ((293, 200000), (212, 200000), (111, 200000), (104, 200000), (87, 68868),
         (100, 68868), (187, 68868), (63, 68868), (0, 17304), (0, 17150)),
        ((138, 155, 0, 199707, 293, 111), (105, 107, 0, 199788, 212, 104)),
    ),
    "pnrd-0.1": (
        GYS, PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1), 104,
        ((71, 200000), (9, 200000), (0, 200000), (0, 200000), (49, 10112), (31, 10112),
         (80, 10112), (0, 10112), (0, 2505), (0, 2525)),
        ((42, 29, 0, 199929, 71, 0), (7, 2, 0, 199991, 9, 0)),
    ),
    "pnrd-0.5": (
        GYS, PNRD(mu_prime=40.0, k=50.0, eta_e=0.5), 105,
        ((1, 200000), (0, 200000), (0, 200000), (0, 200000), (0, 42618), (1, 42618),
         (1, 42618), (0, 42618), (0, 10716), (0, 10558)),
        ((0, 1, 0, 199999, 1, 0), (0, 0, 0, 200000, 0, 0)),
    ),
}
# The resend table's 36 probabilities, bit for bit: the first 16 hex digits
# of the sha256 of the table as little-endian doubles.  A rounding change in
# one entry seldom moves a multinomial draw, so the streams above cannot see
# it; at small d and light probability q many forms of an entry also round
# alike, hence the two points at d 0.3 with q from 0.015 to 1.
PINNED_TABLES = {
    **{case: (PINNED_STREAMS[case][:2], digest) for case, digest in (
        ("qnd-gys", "6e102444766c43c0"),
        ("qnd-noisy", "c2c6da583c74afe7"),
        ("pnrd-0.1", "912ca03a4768da4e"),
        ("pnrd-0.5", "526b74cdcde76ae1"),
    )},
    "qnd-dark-0.3-0km": ((GYS.replace(dark_count=0.3, eta_bob=1.0, distance=0.0),
                          QND(mu_prime=300.0, k=310.0)), "7bcb111612966ff1"),
    "qnd-dark-0.3-20km": ((GYS.replace(dark_count=0.3, eta_bob=1.0, distance=20.0),
                           QND(mu_prime=2000.0, k=310.0)), "51e89df6893e0c7a"),
}


class TestDeterminism:
    @pytest.mark.parametrize("case", PINNED_STREAMS)
    def test_seeded_streams_are_pinned(self, case):
        params, strategy, seed, counts, tallies = PINNED_STREAMS[case]
        run = simulate_pulses(params, strategy, 200_000, seed)
        assert tuple(run.counts.values()) == counts
        assert tuple(
            tuple(run.tallies[stream][key] for key in oracle._TALLY_KEYS)
            for stream in oracle._STREAMS
        ) == tallies

    @pytest.mark.parametrize("case", PINNED_TABLES)
    def test_resend_table_is_pinned(self, case):
        (params, strategy), digest = PINNED_TABLES[case]
        packed = struct.pack("<36d", *oracle._resend_click_tables(strategy, params))
        assert hashlib.sha256(packed).hexdigest()[:16] == digest

    def test_identical_runs_identical_tallies(self):
        strategy = QND(mu_prime=300.0, k=310.0)
        a = simulate_pulses(GYS, strategy, 200_000, seed=123)
        b = simulate_pulses(GYS, strategy, 200_000, seed=123)
        assert a.tallies == b.tallies
        assert a.q_mu == b.q_mu and a.p_arrive == b.p_arrive

    def test_seed_changes_tallies(self):
        strategy = QND(mu_prime=300.0, k=310.0)
        a = simulate_pulses(GYS, strategy, 200_000, seed=123)
        b = simulate_pulses(GYS, strategy, 200_000, seed=124)
        assert a.tallies != b.tallies

    def test_qnd_is_pnrd_at_unit_efficiency(self):
        # At eta_e = 1 the gate is the photon number itself and draws nothing,
        # so the ideal strategy and a perfect PNRD consume the same stream.
        # Three shards of 1e5 pulses each check that they merge alike.
        params = GYS.replace(distance=50.0, e_detector=0.033)
        with mock.patch.object(oracle, "DEFAULT_SHARD_SIZE", 100_000):
            runs = [
                simulate_pulses(params, strategy, 300_000, seed=11)
                for strategy in (QND(mu_prime=300.0, k=310.0),
                                 PNRD(mu_prime=300.0, k=310.0, eta_e=1.0))
            ]
        assert runs[0].tallies == runs[1].tallies
        assert runs[0].counts == runs[1].counts

    def test_manifest_is_serializable_and_complete(self):
        strategy = PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)
        run = simulate_pulses(GYS, strategy, 50_000, seed=9)
        manifest = json.loads(run.manifest_json())
        assert manifest["strategy"] == "pnrd"
        assert manifest["n_pulses"] == 50_000
        assert manifest["seed"] == 9
        assert set(manifest["tallies"]) == {"signal", "decoy"}
        assert "q_mu" in manifest["estimates"]

    @pytest.mark.parametrize("strategy", [
        Baseline(),
        QND(mu_prime=300.0, k=310.0),
        PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1),
    ], ids=["baseline", "qnd", "pnrd"])
    def test_manifest_is_strict_json(self, strategy):
        # RFC 8259 has no NaN or Infinity; an estimate without trials is null.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        run = simulate_pulses(GYS, strategy, 20_000, seed=5)
        estimates = json.loads(run.manifest_json(), parse_constant=reject)["estimates"]
        for name, (_, trials) in run.counts.items():
            assert (estimates[name] is None) == (trials == 0), name
            assert (estimates[f"{name}_se"] is None) == (trials == 0), name
        assert isinstance(strategy, Baseline) == (estimates["p_arrive"] is None)


class TestTrivialCases:
    def test_vacuum_resends_without_darks_never_click(self):
        params = GYS.replace(dark_count=0.0)
        run = simulate_pulses(params, QND(mu_prime=0.0, k=310.0), 100_000, seed=5)
        assert run.q_mu == 0.0
        assert run.q_nu == 0.0
        assert run.p_arrive == 0.0

    def test_conservation_every_pulse_accounted(self):
        run = simulate_pulses(GYS, QND(mu_prime=300.0, k=310.0), 123_456, seed=6)
        for stream in ("signal", "decoy"):
            t = run.tallies[stream]
            assert t["sifted"] + t["loss"] == 123_456
            assert t["sifted_error"] <= t["sifted"]

    @given(
        data=st.data(),
        kind=st.sampled_from(["baseline", "qnd", "pnrd"]),
        shard_size=st.integers(1, 8),
        dark_count=st.sampled_from([0.0, 1.7e-6, 0.3]),
        mu_prime=st.sampled_from([0.0, 300.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tally_invariants_with_tiny_shards(
        self, data, kind, shard_size, dark_count, mu_prime, seed
    ):
        # Shards of one or a few pulses, with a short last shard, produce
        # shards with no resent pulse and shards with no blocked pulse, and
        # baseline shards with no light, no dark count or no click at all.
        rest = data.draw(st.integers(1, max(shard_size - 1, 1)))
        n_pulses = shard_size * data.draw(st.integers(0, 8)) + rest
        strategy = {"baseline": Baseline(),
                    "qnd": QND(mu_prime=mu_prime, k=1000.0),
                    "pnrd": PNRD(mu_prime=mu_prime, k=1000.0, eta_e=0.5)}[kind]
        params = GYS.replace(distance=1.0, dark_count=dark_count)
        with mock.patch.object(oracle, "DEFAULT_SHARD_SIZE", shard_size):  # mu < 1: shards of that size
            run = simulate_pulses(params, strategy, n_pulses, seed=seed)
        _assert_tally_invariants(run, n_pulses)
        if kind == "baseline":  # one detector reading per click, no double clicks
            assert run.n_resend == 0
            assert all(t["double_click"] == 0 for t in run.tallies.values())

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_pulses(GYS, Baseline(), 0, seed=1)

    def test_bright_source_shard_memory_is_bounded(self):
        # A shard holds about DEFAULT_SHARD_SIZE signal photons, not mu times
        # as many: at mu = 50 one 2e5-pulse shard would hold 1e7 photons
        # (over 80 MB), while shards of 2e4 pulses take about 8 MB.
        params = GYS.replace(mu=50.0)
        tracemalloc.start()
        try:
            run = simulate_pulses(params, QND(mu_prime=300.0, k=310.0), 200_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        for t in run.tallies.values():
            assert t["sifted"] + t["loss"] == 200_000


class TestGateCounts:
    @given(case=st.integers(1, 40).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), max_size=3 * m))))
    @example(case=(5, []))
    @example(case=(5, [3]))
    @example(case=(1, [0]))
    @example(case=(1, [0, 0, 0]))
    @example(case=(6, [2] * 6))
    @example(case=(6, [5, 0, 3, 1, 4]))
    @example(case=(6, [5, 0, 3, 1, 4, 2]))
    @example(case=(6, [5, 0, 3, 1, 4, 2, 2]))
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_bincount(self, case):
        # Exactly-one and lit pulse counts for sparse and dense shards alike
        # (K = m - 1, m, m + 1), with the index dtype draw_photons gives.
        m, pulses = case
        photons = np.array(pulses, dtype=np.int32)
        per_pulse = np.bincount(photons, minlength=m)
        expected = (int(np.count_nonzero(per_pulse == 1)), int(np.count_nonzero(per_pulse)))
        assert oracle._gate_counts(photons) == expected

    def test_sparse_gate_memory_is_bounded(self):
        # A 1e6-pulse shard holds about 4.8e5 signal photons, 1.9 MB as 4-byte
        # indices sorted in place; a bincount over its 1e6 pulses would add
        # 8 MB of 8-byte bins.
        tracemalloc.start()
        try:
            run = simulate_pulses(GYS.replace(distance=50.0), QND(mu_prime=300.0, k=310.0),
                                  1_000_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        _assert_tally_invariants(run, 1_000_000)


class TestResendTable:
    @pytest.mark.parametrize("dark_count", [0.0, math.nextafter(1.0, 0.0)], ids=["d=0", "d=1-ulp"])
    @pytest.mark.parametrize("mu_prime", [0.0, 1e6])
    @pytest.mark.parametrize("strategy_type", [QND, PNRD])
    def test_outcome_table_at_domain_edges(self, dark_count, mu_prime, strategy_type):
        # k at the reach limit puts the matched efficiency at 1; with d near 1
        # or mu' at either end the (1 - q)*d and (1 - q)*(1 - d) entries are
        # exactly zero or one rounding away from it.
        params = GYS.replace(distance=0.0, eta_bob=1.0, dark_count=dark_count)
        k = _reach_limit(params)
        matched, _ = efficiency_matrix(params, k)
        assert 1.0 - 1e-15 < matched <= 1.0
        kwargs = {} if strategy_type is QND else {"eta_e": 0.5}
        strategy = strategy_type(mu_prime=mu_prime, k=k, **kwargs)
        table = np.asarray(oracle._resend_click_tables(strategy, params))
        assert table.shape == (36,)
        assert (table >= 0.0).all()
        assert abs(table.sum() - 1.0) <= 1e-12
        # Each case holds a quarter of the resends.
        assert np.allclose(table.reshape(4, 9).sum(axis=1), 0.25, rtol=0.0, atol=1e-15)
        run = simulate_pulses(params, strategy, 5_000, seed=17)
        _assert_tally_invariants(run, 5_000)

    def test_oracle_imports_no_closed_form(self):
        # The oracle checks the closed forms, so it must not compute a draw
        # from one: it may not import them at module level or in a function.
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        forbidden = {"faked_states", "security", "decoy", "observables_for", "p_single"}
        assert not imported & forbidden, sorted(imported & forbidden)
        assert "observables" in imported  # the walk sees the strategy import


class TestEstimateTable:
    @pytest.mark.parametrize("strategy", [
        Baseline(),
        QND(mu_prime=300.0, k=310.0),
        PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1),
    ], ids=["baseline", "qnd", "pnrd"])
    def test_estimates_follow_the_integer_counts(self, strategy):
        run = simulate_pulses(GYS.replace(distance=20.0), strategy, 200_000, seed=21)
        n, signal, decoy = run.n_pulses, run.tallies["signal"], run.tallies["decoy"]
        assert run.counts["q_mu"] == (signal["sifted"], n)
        assert run.counts["q_nu"] == (decoy["sifted"], n)
        assert run.counts["emu_qmu"] == (signal["sifted_error"], n)
        assert run.counts["enu_qnu"] == (decoy["sifted_error"], n)
        for name in ("p_click0", "p_click1", "p_arrive", "p_error"):
            assert run.counts[name][1] == run.n_resend
        assert run.counts["r1"][1] == run.n_match_v0
        assert run.counts["s0"][1] == run.n_match_v1
        # Only resent pulses double-click: click0 + click1 - any = doubles.
        resent_doubles = (run.counts["p_click0"][0] + run.counts["p_click1"][0]
                          - run.counts["p_arrive"][0])
        assert resent_doubles == signal["double_click"] + decoy["double_click"]

        for name, (successes, trials) in run.counts.items():
            assert 0 <= successes <= trials
            if trials == 0:
                assert math.isnan(getattr(run, name)) and math.isnan(getattr(run, f"{name}_se"))
                continue
            assert getattr(run, name) == successes / trials
            assert getattr(run, f"{name}_se") == _sigma(successes / trials, trials)
        names = ("q_mu", "q_nu", "emu_qmu", "enu_qnu", "p_click0", "p_click1",
                 "p_arrive", "p_error", "r1", "s0")
        assert set(run.counts) == set(names)
        estimates = json.loads(run.manifest_json())["estimates"]
        assert set(estimates) == {key for name in names for key in (name, f"{name}_se")}

    def test_unknown_estimate_is_an_attribute_error(self):
        run = simulate_pulses(GYS, Baseline(), 10, seed=1)
        assert not hasattr(run, "q_lambda")
        assert not hasattr(run, "q_lambda_se")


class TestPhotonSource:
    def test_photon_numbers_per_pulse_are_poisson(self):
        # The photons that pass, spread over the pulses, must give each pulse a
        # Poisson(mu*keep) photon number, checked over 20 shards of 1e6 pulses
        # for the unthinned (QND) and a thinned source.
        mu, m, shards = 0.48, 1_000_000, 20
        for keep in (1.0, 0.1):
            rng = np.random.default_rng(20240901)
            histogram = np.zeros(5, dtype=np.int64)
            for _ in range(shards):
                photons = draw_photons(rng, mu, m, keep)
                assert photons.dtype == np.int32
                histogram += np.bincount(np.bincount(photons, minlength=m), minlength=5)[:5]
            for n, count in enumerate(histogram):
                assert_within_3sigma(count / (shards * m), poisson_pmf(mu * keep, n), shards * m,
                                     f"keep={keep} n={n}")

    def test_unthinned_source_draws_only_total_and_indices(self):
        # keep = 1 (the QND gate) draws nothing beyond the photon total and one
        # pulse index per photon, so its seeded streams stay fixed.
        mean, m = 0.48, 10_000
        photons = draw_photons(np.random.default_rng(5), mean, m, keep=1.0)
        rng = np.random.default_rng(5)
        expected = rng.integers(0, m, size=rng.poisson(mean * m), dtype=np.int64)
        assert photons.dtype == np.int32
        assert np.array_equal(photons, expected)

    def test_nothing_passes_at_zero_keep(self):
        # keep = 0 is reached when the baseline transmittance underflows.
        photons = draw_photons(np.random.default_rng(5), 0.48, 10_000, keep=0.0)
        assert photons.dtype == np.int32 and photons.size == 0

    @pytest.mark.parametrize("m, total", [(100_000, 4_999), (2_000, 100_001)])
    def test_int32_and_int64_draws_share_one_stream(self, m, total):
        # Pulse indices are drawn as int32, and the seeded streams were
        # recorded from int64 draws: both dtypes must draw the same indices
        # and leave the bit generator in the same state, the half of a 64-bit
        # word that odd totals leave buffered included.  A numpy release that
        # breaks this fails here.
        rng32, rng64 = np.random.default_rng(11), np.random.default_rng(11)
        small = rng32.integers(0, m, size=total, dtype=np.int32)
        wide = rng64.integers(0, m, size=total, dtype=np.int64)
        assert np.array_equal(small, wide)
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_draw_photons_runs_before_any_simulation(self):
        # The oracle imports numpy inside each function that uses it, so a
        # direct call in a fresh interpreter must not rely on simulate_pulses.
        script = """if True:
            import numpy as np
            from decoy_fsa import oracle
            photons = oracle.draw_photons(np.random.default_rng(1), 0.5, 100, keep=0.5)
            assert photons.dtype == np.int32 and photons.size
        """
        env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr


class TestClosedFormAgreement:
    def test_qnd_point_at_ten_million_pulses(self):
        params = GYS.replace(distance=100.0)
        strategy = QND(mu_prime=300.0, k=310.0)
        run = simulate_pulses(params, strategy, 10_000_000, seed=20240901)
        obs = observables_for(params, strategy)
        eff = efficiency_matrix(params, strategy.k)
        fs = FakedStateIntensities.symmetric(strategy.mu_prime)
        d = params.dark_count
        probs = table1_probs(fs, eff)

        assert_within_3sigma(run.q_mu, obs.q_mu, run.n_pulses, "q_mu")
        assert_within_3sigma(run.q_nu, obs.q_nu, run.n_pulses, "q_nu")
        assert_within_3sigma(run.emu_qmu, obs.emu_qmu, run.n_pulses, "emu_qmu")
        assert_within_3sigma(run.enu_qnu, obs.enu_qnu, run.n_pulses, "enu_qnu")
        assert_within_3sigma(run.p_click0, p_click_det0(fs, eff, d), run.n_resend, "p_click0")
        assert_within_3sigma(run.p_click1, p_click_det1(fs, eff, d), run.n_resend, "p_click1")
        assert_within_3sigma(run.p_arrive, p_arrive(fs, eff, d), run.n_resend, "p_arrive")
        assert_within_3sigma(run.p_error, p_error(fs, eff, d), run.n_resend, "p_error")
        assert_within_3sigma(run.r1, probs.r1, run.n_match_v0, "r1")
        assert_within_3sigma(run.s0, probs.s0, run.n_match_v1, "s0")

    def test_pnrd_gating_fraction(self):
        # The fraction of resent signal pulses must match mu*eta*exp(-mu*eta).
        params = GYS.replace(distance=100.0)
        strategy = PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)
        run = simulate_pulses(params, strategy, 2_000_000, seed=77)
        expected = (
            params.mu * 0.1 * math.exp(-params.mu * 0.1)
            + params.nu * 0.1 * math.exp(-params.nu * 0.1)
        ) / 2.0
        assert_within_3sigma(run.n_resend / (2 * run.n_pulses), expected,
                             2 * run.n_pulses, "gating fraction")

    def test_qnd_gating_fraction(self):
        # The fraction of resent pulses must match mu*exp(-mu): one photon exactly.
        params = GYS.replace(distance=100.0)
        run = simulate_pulses(params, QND(mu_prime=300.0, k=310.0), 2_000_000, seed=77)
        expected = (params.mu * math.exp(-params.mu) + params.nu * math.exp(-params.nu)) / 2.0
        assert_within_3sigma(run.n_resend / (2 * run.n_pulses), expected,
                             2 * run.n_pulses, "gating fraction")

    @pytest.mark.parametrize("strategy", [
        QND(mu_prime=2e5, k=2.0),
        PNRD(mu_prime=2e5, k=2.0, eta_e=0.5),
    ], ids=["qnd", "pnrd"])
    def test_high_dark_count_agreement(self, strategy):
        # With d = 1e-2 and light probabilities near one half, a dark-only
        # band of d instead of (1 - q)*d, or a wrong blocked-click count,
        # moves these estimates by many sigma; at d = 1.7e-6 neither shows.
        params = GYS.replace(distance=2.0, dark_count=1e-2)
        run = simulate_pulses(params, strategy, 10_000_000, seed=4242)
        obs = observables_for(params, strategy)
        eff = efficiency_matrix(params, strategy.k)
        fs = FakedStateIntensities.symmetric(strategy.mu_prime)
        d = params.dark_count

        assert_within_3sigma(run.q_mu, obs.q_mu, run.n_pulses, "q_mu")
        assert_within_3sigma(run.q_nu, obs.q_nu, run.n_pulses, "q_nu")
        assert_within_3sigma(run.p_click0, p_click_det0(fs, eff, d), run.n_resend, "p_click0")
        assert_within_3sigma(run.p_click1, p_click_det1(fs, eff, d), run.n_resend, "p_click1")
        assert_within_3sigma(run.p_arrive, p_arrive(fs, eff, d), run.n_resend, "p_arrive")

    @pytest.mark.parametrize("strategy", [
        QND(mu_prime=2000.0, k=5.0),
        PNRD(mu_prime=2000.0, k=5.0, eta_e=0.5),
        Baseline(),
    ], ids=["qnd", "pnrd", "baseline"])
    def test_intrinsic_detector_error_agreement(self, strategy):
        # At k = 5 the attack QBER is near 1/4, so with e = 0.1 a missing flip,
        # or flips of only the right or only the wrong bits, move the error
        # rates by more than 4 sigma.  The flip must not reach p_error.  The
        # baseline shard flips its light clicks too; only the users' four
        # quantities apply to it.
        params = GYS.replace(distance=10.0, e_detector=0.1)
        run = simulate_pulses(params, strategy, 4_000_000, seed=1033)
        obs = observables_for(params, strategy)
        n, signal, decoy = run.n_pulses, run.tallies["signal"], run.tallies["decoy"]
        checks = [
            ("q_mu", signal["sifted"], n, obs.q_mu),
            ("q_nu", decoy["sifted"], n, obs.q_nu),
            ("emu_qmu", signal["sifted_error"], n, obs.emu_qmu),
            ("enu_qnu", decoy["sifted_error"], n, obs.enu_qnu),
        ]
        if not isinstance(strategy, Baseline):
            eff = efficiency_matrix(params, strategy.k)
            fs = FakedStateIntensities.symmetric(strategy.mu_prime)
            checks.append(("p_error", *run.counts["p_error"], p_error(fs, eff, params.dark_count)))
        for name, successes, trials, analytic in checks:
            _, z, ok = binomial_verdict(successes, trials, analytic)
            assert ok, f"{name}: {successes}/{trials} against {analytic}, z={z:.2f}"

    def test_high_dark_count_baseline_agreement(self):
        # At d = 0.3 a dark count drawn over every pulse instead of the unlit
        # ones (the additive Q = d + 1 - exp(-eta*x) of _baseline_gains),
        # a dark click flipped by e_detector instead of a coin, or detector 1
        # drawn over every pulse instead of the clicks moves these by many
        # sigma.  The reference is the exact per-pulse one, computed here.
        d, e = 0.3, 0.1
        params = GYS.replace(distance=0.0, dark_count=d, eta_bob=1.0, e_detector=e)
        run = simulate_pulses(params, Baseline(), 1_000_000, seed=2718)
        n = run.n_pulses
        for stream, x in (("signal", params.mu), ("decoy", params.nu)):
            t = run.tallies[stream]
            unlit = math.exp(-x)  # eta = t_AB * eta_bob = 1 at 0 km
            checks = [
                ("Q", t["sifted"], n, 1.0 - (1.0 - d) * unlit),
                ("EQ", t["sifted_error"], n, e * (1.0 - unlit) + 0.5 * d * unlit),
                ("click1 share", t["click1"], t["sifted"], 0.5),
            ]
            for name, successes, trials, analytic in checks:
                _, z, ok = binomial_verdict(successes, trials, analytic)
                assert ok, f"{stream} {name}: {successes}/{trials} against {analytic}, z={z:.2f}"

    def test_baseline_agreement(self):
        params = GYS.replace(distance=60.0)
        run = simulate_pulses(params, Baseline(), 2_000_000, seed=13)
        obs = observables_for(params, Baseline())
        assert_within_3sigma(run.q_mu, obs.q_mu, run.n_pulses, "q_mu")
        assert_within_3sigma(run.q_nu, obs.q_nu, run.n_pulses, "q_nu")
        assert_within_3sigma(run.emu_qmu, obs.emu_qmu, run.n_pulses, "emu_qmu")


# The attack half of the domain-wide audit: one fixed sample of the input
# domain, drawn from this seed, which was declared before the first run and is
# never re-drawn.  Baseline points stay out until _baseline_gains counts a
# dark count only on an unlit pulse, as the Monte Carlo does; until then its
# additive gain fails the audit at dark_count >= 0.01.
AUDIT_SEED = 271828
AUDIT_POINTS = 200
AUDIT_PULSES = 200_000
# About 2,000 verdicts, each beyond 3 sigma with chance at most 0.27%: about 5.4
# expected.  Were they independent, more than 16 would occur with chance 5e-5;
# the quantities of one point share draws, which widens that spread somewhat.
AUDIT_MAX_BEYOND_3SIGMA = 16
_P_5SIGMA = math.erfc(5.0 / math.sqrt(2.0))


def _audit_points():
    """Yield (params, strategy, seed) over the domain, QND and PNRD alternately."""
    rng = np.random.default_rng(AUDIT_SEED)
    for index in range(AUDIT_POINTS):
        mu = rng.uniform(0.1, 1.0)
        params = GYS.replace(
            mu=mu,
            nu=mu * rng.uniform(0.05, 0.95),
            dark_count=float(rng.choice([0.0, 1e-6, 1e-3, 1e-2, 0.1, 0.3])),
            e_detector=float(rng.choice([0.0, 0.033, 0.2, 0.5])),
            eta_bob=rng.uniform(0.02, 1.0),
            distance=rng.uniform(0.0, 150.0),
        )
        reach = _reach_limit(params)
        k = min(math.exp(rng.uniform(0.0, math.log(reach))), reach)
        mu_prime = rng.uniform(0.0, 2000.0)
        eta_e = rng.uniform(0.05, 1.0)
        strategy = QND(mu_prime=mu_prime, k=k) if index % 2 == 0 else PNRD(
            mu_prime=mu_prime, k=k, eta_e=eta_e)
        yield params, strategy, int(rng.integers(2**32))


class TestDomainAudit:
    def test_attack_quantities_agree_across_the_domain(self):
        # Every quantity of every point is judged by binomial_verdict.  A
        # quantity fails at 5 sigma only when its exact binomial tail is also
        # below 5 sigma's (chance about 1e-3 over the sample); the count
        # beyond 3 sigma must stay near the 0.27% that 3 sigma implies.
        verdicts, beyond, failures = 0, [], []
        for params, strategy, seed in _audit_points():
            run = simulate_pulses(params, strategy, AUDIT_PULSES, seed)
            for name, analytic in _analytic_quantities(params, strategy).items():
                successes, trials = run.counts[name]
                sigma, z, ok = binomial_verdict(successes, trials, analytic)
                verdicts += 1
                if ok:
                    continue
                beyond.append((strategy, params, name, z))
                exact = (not sigma or math.isnan(sigma)
                         or oracle._binomial_two_sided_p(successes, trials, analytic) < _P_5SIGMA)
                if abs(z) > 5.0 and exact:
                    failures.append((strategy, params, name, successes, trials, analytic, z))
        assert verdicts == 10 * AUDIT_POINTS
        assert not failures, failures
        assert len(beyond) <= AUDIT_MAX_BEYOND_3SIGMA, beyond


class TestConvergence:
    def test_standard_error_scales_as_root_n(self):
        params = GYS.replace(distance=40.0)
        strategy = QND(mu_prime=300.0, k=310.0)
        small = simulate_pulses(params, strategy, 10_000, seed=3)
        large = simulate_pulses(params, strategy, 1_000_000, seed=3)
        ratio = small.q_mu_se / large.q_mu_se
        assert 5.0 <= ratio <= 20.0  # 1/sqrt(n) predicts 10


class TestBinomialVerdict:
    def test_rare_count_judged_on_exact_tail(self):
        # 2 events where 0.245 are expected: z = 3.55, but the exact
        # two-sided binomial tail is 0.051.
        _, z, ok = binomial_verdict(2, 34_672, 7.06e-6)
        assert z > 3.0
        assert ok

    @pytest.mark.parametrize("z_target", [-3.5, -3.1, -2.9, 0.0, 2.9, 3.1, 3.5])
    def test_large_counts_follow_three_sigma(self, z_target):
        trials, p = 1_000_000, 0.3
        sigma_count = math.sqrt(trials * p * (1.0 - p))
        successes = round(trials * p + z_target * sigma_count)
        sigma, z, ok = binomial_verdict(successes, trials, p)
        assert sigma == pytest.approx(_sigma(p, trials))
        assert ok == (abs(z) <= 3.0)

    def test_biased_rate_fails(self):
        _, z, ok = binomial_verdict(15_000, 1_000_000, 0.01)
        assert z > 3.0
        assert not ok

    def test_degenerate_rates_need_exact_match(self):
        assert binomial_verdict(0, 100, 0.0)[2]
        assert not binomial_verdict(1, 100, 0.0)[2]
        assert not binomial_verdict(0, 0, 0.5)[2]


def _exact_two_sided_p(trials: int, p: float) -> list[float]:
    """min(1, 2*min(P[X <= s], P[X >= s])) for every s, summed in integers.

    p = a/b exactly, so each pmf is comb(n, s)*a**s*(b - a)**(n - s) over b**n.
    """
    a, b = p.as_integer_ratio()
    pmf = [math.comb(trials, s) * a**s * (b - a) ** (trials - s) for s in range(trials + 1)]
    lower = [sum(pmf[: s + 1]) for s in range(trials + 1)]
    upper = [sum(pmf[s:]) for s in range(trials + 1)]
    return [float(Fraction(min(b**trials, 2 * min(lo, up)), b**trials))
            for lo, up in zip(lower, upper)]


class TestBinomialTail:
    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.5, 0.77, 0.999])
    @pytest.mark.parametrize("trials", [1, 2, 7, 30, 101, 200])
    def test_matches_exact_sum_on_both_tails(self, trials, p):
        for successes, exact in enumerate(_exact_two_sided_p(trials, p)):
            if exact >= sys.float_info.min:
                got = oracle._binomial_two_sided_p(successes, trials, p)
                assert got == pytest.approx(exact, rel=1e-9, abs=0.0), (successes, trials, p)

    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.5, 0.77, 0.999])
    @pytest.mark.parametrize("trials", [1, 30, 200, 1_000_000])
    def test_mirror_symmetry(self, trials, p):
        # P(s; n, p) = P(n - s; n, 1 - p): one side of the pair takes the mirrored path.
        mean = round(trials * p)
        for successes in {0, 1, mean // 2, mean, mean + 3, trials - 1, trials}:
            if 0 <= successes <= trials:
                direct = oracle._binomial_two_sided_p(successes, trials, p)
                mirrored = oracle._binomial_two_sided_p(trials - successes, trials, 1.0 - p)
                assert direct == pytest.approx(mirrored, rel=1e-9, abs=1e-300), (successes, trials)
