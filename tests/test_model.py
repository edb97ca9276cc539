"""Tests for the channel model, DEM geometry, and parameter handling."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoy_fsa.model import (
    GYS,
    ConfigError,
    SystemParams,
    channel_transmittance,
    efficiency_matrix,
)
from reference import poisson_pmf

# Frozen with 40-digit arithmetic.
T_100KM = 7.9432823472428150e-3
T_200KM = 6.3095734448019325e-5
P1_SIGNAL = 0.29701602806694761


class TestChannelTransmittance:
    def test_zero_length_fiber(self):
        assert channel_transmittance(0.21, 0.0) == 1.0

    def test_100km(self):
        assert channel_transmittance(0.21, 100.0) == pytest.approx(T_100KM, rel=1e-12)

    def test_200km(self):
        assert channel_transmittance(0.21, 200.0) == pytest.approx(T_200KM, rel=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            channel_transmittance(0.21, -1.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            channel_transmittance(0.0, 10.0)

    @given(
        l1=st.floats(min_value=0.0, max_value=150.0),
        l2=st.floats(min_value=0.0, max_value=150.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, l1, l2):
        combined = channel_transmittance(0.21, l1 + l2)
        split = channel_transmittance(0.21, l1) * channel_transmittance(0.21, l2)
        assert combined == pytest.approx(split, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=299.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, length):
        assert channel_transmittance(0.21, length + 1.0) < channel_transmittance(0.21, length)


class TestDemEfficiencies:
    def test_no_mismatch_all_equal(self):
        eff = efficiency_matrix(GYS.replace(distance=0.0), 1.0)
        floor = 0.045 * 1e-4
        assert eff.eta_00 == eff.eta_01 == eff.eta_10 == eff.eta_11 == floor

    def test_k310_at_100km(self):
        eff = efficiency_matrix(GYS.replace(distance=100.0), 310.0)
        assert eff.eta_01 == pytest.approx(3.574477056259267e-8, rel=1e-9)
        assert eff.eta_00 == pytest.approx(1.1080878874403727e-5, rel=1e-9)

    def test_largest_physical_point(self):
        eff = efficiency_matrix(GYS.replace(distance=0.0), 1000.0)
        assert eff.eta_00 == pytest.approx(4.5e-3, rel=1e-12)

    def test_ratio_exact_as_constructed(self):
        eff = efficiency_matrix(GYS.replace(distance=7.0), 123.456)
        assert eff.eta_00 == eff.eta_11 and eff.eta_01 == eff.eta_10
        assert eff.eta_00 / eff.eta_10 == pytest.approx(123.456, rel=1e-12)

    def test_k_below_one_rejected(self):
        for k in (0.5, math.nan):
            with pytest.raises(ValueError, match="k must be >= 1"):
                efficiency_matrix(GYS, k)

    def test_unphysical_efficiency_rejected(self):
        # k * eta_01 above unity cannot be a probability.
        with pytest.raises(ValueError, match="unphysical"):
            efficiency_matrix(GYS.replace(distance=0.0, eta_bob=1.0), 2.0e4)

    def test_efficiency_matrix_uses_params_distance(self):
        params = GYS.replace(distance=100.0)
        eff = efficiency_matrix(params, 310.0)
        assert eff.eta_01 == pytest.approx(T_100KM * 0.045 * 1e-4, rel=1e-12)

    @pytest.mark.parametrize("k", [1.5, 310.0])
    def test_subnormal_blind_efficiency_rejected(self, k):
        # Past about 14,395 km the floor t_AB*eta_bob*1e-4 is no normal float,
        # and k*eta_01 would no longer carry the ratio k to full precision.
        efficiency_matrix(GYS.replace(distance=14_390.0), k)
        with pytest.raises(ValueError, match="smallest normal float"):
            efficiency_matrix(GYS.replace(distance=14_600.0), k)


class TestPoissonPmf:
    def test_vacuum_source(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_single_photon_fraction(self):
        assert poisson_pmf(0.48, 1) == pytest.approx(P1_SIGNAL, rel=1e-12)

    def test_normalization(self):
        total = sum(poisson_pmf(0.48, i) for i in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_partial_sums_monotone_from_below(self):
        running = 0.0
        for i in range(30):
            term = poisson_pmf(0.48, i)
            assert term > 0.0
            running += term
            assert running < 1.0 + 1e-15

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            poisson_pmf(-0.1, 0)
        with pytest.raises(ValueError):
            poisson_pmf(0.5, -1)


class TestSystemParams:
    def test_gys_preset_values(self):
        p = GYS
        assert (p.alpha, p.dark_count, p.eta_bob) == (0.21, 1.7e-6, 0.045)
        assert (p.mu, p.nu, p.f_ec, p.q_sift, p.e_detector) == (0.48, 0.05, 1.22, 0.5, 0.0)

    def test_decoy_must_be_weaker_than_signal(self):
        with pytest.raises(ConfigError):
            SystemParams(mu=0.05, nu=0.48)
        with pytest.raises(ConfigError):
            SystemParams(nu=0.0)

    def test_config_roundtrip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"distance": 42.0, "mu": 0.5}))
        p = SystemParams.from_config(path)
        assert p.distance == 42.0
        assert p.mu == 0.5
        assert p.nu == GYS.nu

    def test_config_unknown_key_named(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"darkcount": 1e-6}))
        with pytest.raises(ConfigError, match="darkcount"):
            SystemParams.from_config(path)

    def test_config_invalid_value(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"eta_bob": 2.0}))
        with pytest.raises(ConfigError):
            SystemParams.from_config(path)

    def test_edge_validation(self):
        with pytest.raises(ConfigError):
            SystemParams(distance=-1.0)
        with pytest.raises(ConfigError):
            SystemParams(e_detector=0.6)
        with pytest.raises(ConfigError):
            SystemParams(dark_count=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
    def test_non_finite_field_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=rf"\b{name}\b.*{value}"):
            SystemParams.from_dict({name: value})
