"""Physical constants, fiber channel model, and the detector-efficiency-mismatch geometry.

Everything downstream (attack observables, decoy bounds, key rates, the Monte
Carlo validator) is driven by two inputs defined here: a :class:`SystemParams`
record holding the link constants, and the :class:`EfficiencyMatrix` that
:func:`efficiency_matrix` builds from them and a mismatch ratio k: the four
equivalent transmission-and-detection efficiencies seen by a faked state
arriving at detector ``m`` (bit value 0/1) at timing ``t_n``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

# Suppression of the blinded detector relative to the nominal Bob-side path:
# eta_01 = t_AB * eta_bob * BLIND_FLOOR.
BLIND_FLOOR = 1e-4


class ConfigError(ValueError):
    """Raised when a parameter file or override contains an invalid entry."""


@dataclass(frozen=True)
class SystemParams:
    """Channel, source, and detector constants of a weak+vacuum decoy BB84 link.

    Attributes:
        alpha: fiber loss coefficient in dB/km.
        dark_count: dark count probability per gate.
        eta_bob: Bob-side transmittance.
        mu: signal-state mean photon number.
        nu: decoy-state mean photon number (0 < nu < mu).
        f_ec: bidirectional error-correction efficiency factor.
        q_sift: sifting factor (1/2 for symmetric basis choice).
        e_detector: intrinsic detector error probability.
        distance: fiber length in km.
    """

    alpha: float = 0.21
    dark_count: float = 1.7e-6
    eta_bob: float = 0.045
    mu: float = 0.48
    nu: float = 0.05
    f_ec: float = 1.22
    q_sift: float = 0.5
    e_detector: float = 0.0
    distance: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 < self.nu < self.mu < math.inf:
            raise ConfigError(
                f"need 0 < nu < mu < inf (single-photon yield bound denominator), "
                f"got nu={self.nu}, mu={self.mu}"
            )
        if not 0.0 <= self.dark_count < 1.0:
            raise ConfigError(f"dark_count must be in [0, 1), got {self.dark_count}")
        if not 0.0 < self.eta_bob <= 1.0:
            raise ConfigError(f"eta_bob must be in (0, 1], got {self.eta_bob}")
        if not 0.0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha}")
        if not 0.0 <= self.distance < math.inf:
            raise ConfigError(f"distance must be finite and non-negative, got {self.distance}")
        if not 0.0 <= self.e_detector <= 0.5:
            raise ConfigError(f"e_detector must be in [0, 0.5], got {self.e_detector}")
        if not 0.0 < self.q_sift <= 1.0:
            raise ConfigError(f"q_sift must be in (0, 1], got {self.q_sift}")
        if not 1.0 <= self.f_ec < math.inf:
            raise ConfigError(f"f_ec must be finite and >= 1, got {self.f_ec}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemParams":
        """Build params from a flat key/value mapping; absent keys keep their defaults.

        Unknown keys are rejected with the offending key named in the message.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown parameter key: {key!r}")
        try:
            return cls(**{k: float(v) for k, v in data.items()})
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid parameter value: {exc}") from exc

    @classmethod
    def from_config(cls, path: str | Path) -> "SystemParams":
        """Load params from a flat JSON file (keys exactly the field names)."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read parameter file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"parameter file {path} must hold a flat JSON object")
        return cls.from_dict(data)

    def replace(self, **changes: float) -> "SystemParams":
        return dataclasses.replace(self, **changes)


# GYS experimental constants.  The intrinsic detector error defaults to zero,
# so that every error term comes from dark counts and the attack; the
# experiment's own value is 3.3% (Gobby, Yuan & Shields, APL 84, 3762 (2004)),
# and acceptance criterion 1 runs at it.
GYS = SystemParams()


@dataclass(frozen=True)
class EfficiencyMatrix:
    """The four equivalent efficiencies eta_mn (detector m, faked-state timing t_n).

    The geometry is symmetric: the timing-matched pairs eta_00 and eta_11 are
    equal and exceed the blinded pairs eta_01 = eta_10 by the mismatch ratio k.
    Build it with :func:`efficiency_matrix`.
    """

    eta_00: float
    eta_01: float
    eta_10: float
    eta_11: float


def channel_transmittance(alpha: float, distance: float) -> float:
    """Fiber transmittance 10^(-alpha*L/10) for loss ``alpha`` dB/km over L km."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if distance < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    return 10.0 ** (-alpha * distance / 10.0)


def efficiency_matrix(params: SystemParams, k: float) -> EfficiencyMatrix:
    """Efficiency matrix for mismatch ratio ``k`` at the distance stored in ``params``.

    The blinded entries sit at the floor t_AB*eta_bob*BLIND_FLOOR; the
    timing-matched entries are k times larger.  The floor must be a normal
    float, so that k*floor keeps the ratio k to full precision; on the GYS
    link that holds up to about 14,395 km.
    """
    if not k >= 1.0:
        raise ValueError(f"mismatch ratio k must be >= 1, got {k}")
    t_ab = channel_transmittance(params.alpha, params.distance)
    eta_blind = t_ab * params.eta_bob * BLIND_FLOOR
    if not eta_blind >= sys.float_info.min:
        raise ValueError(f"eta_01 = {eta_blind} is below the smallest normal float")
    eta_matched = k * eta_blind
    if eta_matched > 1.0:
        raise ValueError(f"k*eta_01 = {eta_matched} exceeds 1 (unphysical efficiency)")
    return EfficiencyMatrix(eta_matched, eta_blind, eta_blind, eta_matched)
