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

The package root re-exports the quick-start names; everything else is
imported from its module (``decoy_fsa.decoy``, ``decoy_fsa.search``, ...).
"""

from .decoy import evaluate
from .model import GYS, SystemParams
from .observables import PNRD, QND, Baseline
from .oracle import simulate_pulses
from .search import k_min

__version__ = "0.1.0"

__all__ = [
    "Baseline",
    "GYS",
    "PNRD",
    "QND",
    "SystemParams",
    "evaluate",
    "k_min",
    "simulate_pulses",
]
