"""Faked-states attack analysis for decoy-state BB84 with detector efficiency mismatch.

The package computes, for a weak+vacuum decoy-state BB84 link whose receiver
suffers a timing-dependent detector efficiency mismatch:

* the closed-form detection/error statistics of resent faked states,
* the gain and QBER observables under no attack, an ideal
  photon-number-gated intercept-resend, and its practical PNRD-gated variant,
* the legitimate users' decoy-state bounds and GLLP key rate,
* the residual absolutely-secure rate left to the users under attack,
* parameter searches (feasibility sweeps, per-distance optima, the minimum
  attackable mismatch ratio), and
* an independent pulse-level Monte Carlo simulator validating every closed
  form at 3 sigma.
"""

from .decoy import (
    DecoyBounds,
    RateReport,
    binary_entropy,
    decoy_bounds,
    e1_upper,
    evaluate,
    key_rate,
    q1_expansion,
    q1_lower,
    y1_lower,
)
from .faked_states import (
    FakedStateIntensities,
    p_arrive,
    p_click_det0,
    p_click_det1,
    p_error,
)
from .model import (
    GYS,
    PRESETS,
    ConfigError,
    EfficiencyMatrix,
    SystemParams,
    channel_transmittance,
    dem_efficiencies,
    efficiency_matrix,
    poisson_pmf,
    preset,
)
from .observables import (
    AttackStrategy,
    Baseline,
    DegenerateObservablesError,
    Observables,
    PNRD,
    QND,
    observables_baseline,
    observables_for,
    observables_pnrd,
    p_single,
)
from .oracle import EmpiricalObservables, simulate_pulses
from .search import (
    KminResult,
    ScanRow,
    SweepGrid,
    SweepRow,
    best_rate_over_mu_prime,
    distance_scan,
    k_min,
    sweep_grid,
    write_csv,
)
from .security import Table1Probs, r_absolute, r_absolute_for, table1_probs

__version__ = "0.1.0"

__all__ = [
    "AttackStrategy",
    "Baseline",
    "ConfigError",
    "DecoyBounds",
    "DegenerateObservablesError",
    "EfficiencyMatrix",
    "EmpiricalObservables",
    "FakedStateIntensities",
    "GYS",
    "KminResult",
    "Observables",
    "PNRD",
    "PRESETS",
    "QND",
    "RateReport",
    "ScanRow",
    "SweepGrid",
    "SweepRow",
    "SystemParams",
    "Table1Probs",
    "best_rate_over_mu_prime",
    "binary_entropy",
    "channel_transmittance",
    "decoy_bounds",
    "dem_efficiencies",
    "distance_scan",
    "e1_upper",
    "efficiency_matrix",
    "evaluate",
    "k_min",
    "key_rate",
    "observables_baseline",
    "observables_for",
    "observables_pnrd",
    "p_arrive",
    "p_click_det0",
    "p_click_det1",
    "p_error",
    "p_single",
    "poisson_pmf",
    "preset",
    "q1_expansion",
    "q1_lower",
    "r_absolute",
    "r_absolute_for",
    "simulate_pulses",
    "sweep_grid",
    "table1_probs",
    "write_csv",
    "y1_lower",
]
