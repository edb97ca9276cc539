"""Tests for the resend outcome table and the residual absolutely-secure rate."""

import math

import pytest

from decoy_fsa.decoy import evaluate
from decoy_fsa.faked_states import FakedStateIntensities
from decoy_fsa.model import GYS, dem_efficiencies, efficiency_matrix
from decoy_fsa.observables import PNRD, QND
from decoy_fsa.security import r_absolute_for, table1_probs

# Frozen with 40-digit arithmetic at (mu' = 900, k = 1000, L = 100 km).
R1_REF = 3.2169776047990203e-5
RABS_REF = 3.6794520568867327e-7

FIG7_STRATEGY = PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)


class TestTable1:
    def test_vacuum_resends(self):
        eff = dem_efficiencies(5.0, 0.5, 0.045)
        probs = table1_probs(FakedStateIntensities.symmetric(0.0), eff)
        assert probs.r1 == 0.0 and probs.s0 == 0.0
        assert probs.loss_r == 1.0 and probs.loss_s == 1.0

    def test_bright_limit(self):
        eff = dem_efficiencies(5.0, 0.5, 0.045)
        probs = table1_probs(FakedStateIntensities.symmetric(1e12), eff)
        assert probs.r1 == pytest.approx(1.0, abs=1e-12)
        assert probs.loss_r == pytest.approx(0.0, abs=1e-12)

    def test_zero_entries_exact(self):
        eff = dem_efficiencies(310.0, 0.5, 0.045)
        probs = table1_probs(FakedStateIntensities.symmetric(300.0), eff)
        assert probs.r0 == 0.0
        assert probs.s1 == 0.0
        assert probs.double_r == 0.0
        assert probs.double_s == 0.0

    def test_loss_bookkeeping(self):
        eff = dem_efficiencies(310.0, 0.5, 0.045)
        probs = table1_probs(FakedStateIntensities.symmetric(300.0), eff)
        assert probs.loss_r == pytest.approx(
            1.0 - (probs.r0 + probs.r1 - probs.r0 * probs.r1), rel=1e-12
        )
        assert probs.loss_s == pytest.approx(
            1.0 - (probs.s0 + probs.s1 - probs.s0 * probs.s1), rel=1e-12
        )

    def test_frozen_point(self):
        eff = efficiency_matrix(GYS.replace(distance=100.0), 1000.0)
        probs = table1_probs(FakedStateIntensities.symmetric(900.0), eff)
        assert probs.r1 == pytest.approx(R1_REF, rel=1e-9)
        assert probs.s0 == pytest.approx(R1_REF, rel=1e-9)


class TestRAbsolute:
    def test_zero_when_nothing_arrives(self):
        vacuum = PNRD(mu_prime=0.0, k=1000.0, eta_e=0.1)
        assert r_absolute_for(GYS.replace(distance=100.0), vacuum) == 0.0

    def test_frozen_point(self):
        params = GYS.replace(distance=100.0)
        assert r_absolute_for(params, FIG7_STRATEGY) == pytest.approx(RABS_REF, rel=1e-9)

    def test_upper_bound(self):
        params = GYS.replace(distance=100.0)
        p_att = params.mu * 0.1 * math.exp(-params.mu * 0.1)
        assert r_absolute_for(params, FIG7_STRATEGY) <= 0.125 * p_att * 2.0

    def test_nondecreasing_in_mu_prime(self):
        params = GYS.replace(distance=100.0)
        values = [
            r_absolute_for(params, PNRD(mu_prime=mp, k=1000.0, eta_e=0.1))
            for mp in (0.0, 100.0, 500.0, 900.0, 2000.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_qnd_variant_behind_flag(self):
        params = GYS.replace(distance=100.0)
        qnd = QND(mu_prime=900.0, k=1000.0)
        with pytest.raises(TypeError):
            r_absolute_for(params, qnd)
        value = r_absolute_for(params, qnd, allow_qnd=True)
        scale = (params.mu * math.exp(-params.mu)) / (
            params.mu * 0.1 * math.exp(-params.mu * 0.1)
        )
        assert value == pytest.approx(RABS_REF * scale, rel=1e-9)

    def test_residual_rate_below_key_rate_across_distances(self):
        for distance in (20.0, 60.0, 100.0, 140.0):
            report = evaluate(GYS.replace(distance=distance), FIG7_STRATEGY)
            assert report.r_absolute is not None
            assert report.rate > 0.0
            assert report.r_absolute < report.rate
