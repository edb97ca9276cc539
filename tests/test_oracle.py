"""Tests for the pulse-level Monte Carlo simulator."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoy_fsa.faked_states import FakedStateIntensities, p_arrive, p_click_det0, p_click_det1, p_error
from decoy_fsa.model import GYS, efficiency_matrix
from decoy_fsa.observables import Baseline, PNRD, QND, observables_for
from decoy_fsa.oracle import binomial_verdict, simulate_pulses
from decoy_fsa.security import table1_probs


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def assert_within_3sigma(measured, analytic, trials, label):
    sigma = _sigma(analytic, trials)
    if sigma == 0.0:
        assert measured == analytic, label
        return
    z = (measured - analytic) / sigma
    assert abs(z) <= 3.0, f"{label}: measured={measured} analytic={analytic} z={z:.2f}"


class TestDeterminism:
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
        params = GYS.replace(distance=50.0, e_detector=0.033)
        runs = [
            simulate_pulses(params, strategy, 300_000, seed=11, shard_size=100_000)
            for strategy in (QND(mu_prime=300.0, k=310.0), PNRD(mu_prime=300.0, k=310.0, eta_e=1.0))
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
        run = simulate_pulses(params, strategy, n_pulses, seed=seed, shard_size=shard_size)
        for t in run.tallies.values():
            assert t["sifted"] + t["loss"] == n_pulses
            assert t["click0"] + t["click1"] - t["double_click"] == t["sifted"]
            assert 0 <= t["sifted_error"] <= t["sifted"]
            assert min(t["click0"], t["click1"], t["loss"]) >= 0
            if kind == "baseline":  # one detector reading per click, no double clicks
                assert t["double_click"] == 0
        assert 0 <= run.n_resend <= 2 * n_pulses
        assert kind != "baseline" or run.n_resend == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_pulses(GYS, Baseline(), 0, seed=1)
        with pytest.raises(ValueError):
            simulate_pulses(GYS, Baseline(), 10, seed=1, shard_size=0)


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
        # ones (the additive Q = d + 1 - exp(-eta*x) of observables_baseline),
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
