"""Physical constants, fiber channel model, and the detector-efficiency-mismatch geometry.

Everything downstream (attack observables, decoy bounds, key rates, the Monte
Carlo validator) is driven by two inputs defined here: a :class:`SystemParams`
record holding the link constants, and the (matched, blind) pair that
:func:`efficiency_matrix` builds from them and a mismatch ratio k: the two
equivalent transmission-and-detection efficiencies a faked state meets, at a
detector whose timing it matches and at one blinded at its timing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

# Suppression of the blinded detector relative to the nominal Bob-side path:
# the blind efficiency is t_AB * eta_bob * BLIND_FLOOR.
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
        mu: signal-state mean photon number (below 709.78, where exp(mu) overflows).
        nu: decoy-state mean photon number (0 < nu < mu, and mu*nu - nu**2 > 0 in floats).
        f_ec: bidirectional error-correction efficiency factor.
        q_sift: sifting factor (1/2 for symmetric basis choice).
        e_detector: intrinsic detector error probability.
        distance: fiber length in km.

    The end-to-end transmittance t_AB*eta_bob, with fiber transmittance
    t_AB = 10^(-alpha*L/10), is the property :attr:`transmittance`.
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
        mu_max = math.log(sys.float_info.max)  # exp(mu) enters the single-photon yield bound
        if not 0.0 < self.nu < self.mu < mu_max:
            raise ConfigError(
                f"need 0 < nu < mu < {mu_max:.2f} (single-photon yield bound), "
                f"got nu={self.nu}, mu={self.mu}"
            )
        if not self.mu * self.nu - self.nu**2 > 0.0:  # the bound divides by it
            raise ConfigError(f"nu={self.nu} is too small: mu*nu - nu**2 rounds to 0")
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
    def from_config(cls, path: str | Path) -> "SystemParams":
        """Load params from a flat JSON file; absent keys keep their defaults.

        Every JSON number loads as a float (a huge integer as inf, which
        ``__post_init__`` rejects by name).  Unknown or repeated keys and values
        that are not numbers, booleans included, are rejected with the key named.
        """

        def unique(pairs: list[tuple[str, object]]) -> dict[str, object]:
            seen: dict[str, object] = {}
            for key, value in pairs:
                if key in seen:
                    raise ConfigError(f"repeated parameter key: {key!r}")
                seen[key] = value
            return seen

        try:
            data = json.loads(Path(path).read_text(), parse_int=float, object_pairs_hook=unique)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read parameter file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"parameter file {path} must hold a flat JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown parameter key: {key!r}")
            if not isinstance(value, float):
                raise ConfigError(f"parameter {key!r} must be a number, got {value!r}")
        return cls(**data)

    def replace(self, **changes: float) -> "SystemParams":
        return dataclasses.replace(self, **changes)

    @property
    def transmittance(self) -> float:
        """End-to-end transmittance t_AB*eta_bob over ``distance`` km of fiber."""
        return 10.0 ** (-self.alpha * self.distance / 10.0) * self.eta_bob


# GYS experimental constants.  The intrinsic detector error defaults to zero,
# so that every error term comes from dark counts and the attack; the
# experiment's own value is 3.3% (Gobby, Yuan & Shields, APL 84, 3762 (2004)),
# and acceptance criterion 1 runs at it.
GYS = SystemParams()


def efficiency_matrix(params: SystemParams, k: float) -> tuple[float, float]:
    """The (matched, blind) efficiencies for mismatch ratio ``k`` at the distance in ``params``.

    Both detectors share the two values.  The blind efficiency sits at the
    floor t_AB*eta_bob*BLIND_FLOOR and the matched one is k times larger.  The
    floor must be a normal float, so that k*floor keeps the ratio k to full
    precision; on the GYS link that holds up to about 14,395 km.
    """
    if not k >= 1.0:
        raise ValueError(f"mismatch ratio k must be >= 1, got {k}")
    eta_blind = params.transmittance * BLIND_FLOOR
    if not eta_blind >= sys.float_info.min:
        raise ValueError(f"blind efficiency {eta_blind} is below the smallest normal float")
    eta_matched = k * eta_blind
    if eta_matched > 1.0:
        raise ValueError(f"k*blind = {eta_matched} exceeds 1 (unphysical efficiency)")
    return eta_matched, eta_blind
