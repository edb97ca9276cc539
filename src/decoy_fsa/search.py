"""Parameter exploration: feasibility sweeps, per-distance optima, and the k_min curve.

All operations are deterministic pure functions of their inputs; grid rows come
out in a fixed order (k-major, then mu_prime) so repeated runs and distributed
evaluations merge identically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .decoy import evaluate
from .model import SystemParams
from .observables import (
    AttackStrategy,
    DegenerateObservablesError,
    PNRD,
    QND,
    strategy_label,
)

K_MAX = 1000.0

# Coarse/fine grids of the two-stage intensity search.
COARSE_MU_STEP = 10.0
COARSE_MU_MAX = 2000.0
FINE_MU_STEP = 1.0

FLOAT_FMT = "{:.17g}"


@dataclass(frozen=True)
class SweepGrid:
    """Ordered evaluation grid over mismatch ratio and intensity."""

    k_values: tuple[float, ...]
    mu_prime_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("k_values", "mu_prime_values"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if any(not 1.0 <= k <= K_MAX for k in self.k_values):
            raise ValueError(f"k_values must lie in [1, {K_MAX}]")


class KminResult(NamedTuple):
    """Smallest mismatch ratio at which some intensity makes the rate positive."""

    distance: float
    k_min: float
    mu_prime_at_kmin: float
    converged: bool

    @property
    def on_grid_edge(self) -> bool:
        """The best intensity sits on the search boundary, so it may be the cap's."""
        return self.mu_prime_at_kmin in (0.0, COARSE_MU_MAX)


class SweepRow(NamedTuple):
    k: float
    mu_prime: float
    rate: float
    feasible: bool


class ScanRow(NamedTuple):
    strategy: str
    distance: float
    q_mu: float
    e_mu: float
    y1_lower: float
    q1_lower: float
    e1_upper: float
    rate: float
    r_absolute: float
    flags: str


def _header(row_type: type) -> tuple[str, ...]:
    """CSV column names: the row fields, with ``distance`` written as ``L``."""
    return tuple("L" if name == "distance" else name for name in row_type._fields)


SWEEP_HEADER = _header(SweepRow)
KMIN_HEADER = _header(KminResult)
SCAN_HEADER = _header(ScanRow)


def _make_strategy(k: float, mu_prime: float, eta_e: float | None) -> AttackStrategy:
    if eta_e is None:
        return QND(mu_prime=mu_prime, k=k)
    return PNRD(mu_prime=mu_prime, k=k, eta_e=eta_e)


def _rate_at(params: SystemParams, k: float, mu_prime: float, eta_e: float | None) -> float:
    try:
        return evaluate(params, _make_strategy(k, mu_prime, eta_e)).rate
    except DegenerateObservablesError:
        # zero gain (no faked states, no darks): nothing to distill
        return -math.inf


def best_rate_over_mu_prime(
    params: SystemParams,
    k: float,
    mu_primes: Sequence[float],
    eta_e: float | None = None,
) -> tuple[float, float]:
    """Grid-maximize the attacked key rate over the faked-state intensity.

    Returns (mu_prime*, rate*); ties break toward the smaller intensity.  A
    negative rate* means the attack is infeasible at this mismatch ratio; it is
    -inf, at the first intensity, when every point is degenerate.
    """
    if len(mu_primes) == 0:
        raise ValueError("mu_prime grid must be non-empty")
    best_mu, best_rate = mu_primes[0], -math.inf
    for mu_prime in mu_primes:
        rate = _rate_at(params, k, mu_prime, eta_e)
        if rate > best_rate:
            best_mu, best_rate = mu_prime, rate
    return best_mu, best_rate


def _probe(
    params: SystemParams, k: float, eta_e: float | None, argmax: bool
) -> tuple[float, float]:
    """Coarse grid pass over [0, 2000] step 10, then a unit-step local refinement.

    Without ``argmax`` only the sign of rate* counts: the coarse pass runs top
    down and stops at the first positive rate, since the fine grid holds the
    coarse argmax.
    """
    coarse = [i * COARSE_MU_STEP for i in range(int(COARSE_MU_MAX / COARSE_MU_STEP) + 1)]
    rates = []
    for mu_prime in reversed(coarse):
        rates.append(_rate_at(params, k, mu_prime, eta_e))
        if rates[-1] > 0.0 and not argmax:
            return mu_prime, rates[-1]
    # best_rate_over_mu_prime's rule: ascending, strict >, from (coarse[0], -inf)
    _, mu_star = max([(-math.inf, coarse[0]), *zip(reversed(rates), coarse)], key=lambda t: t[0])
    lo = max(0.0, mu_star - COARSE_MU_STEP)
    hi = min(COARSE_MU_MAX, mu_star + COARSE_MU_STEP)
    fine = [lo + i * FINE_MU_STEP for i in range(int(round((hi - lo) / FINE_MU_STEP)) + 1)]
    # The fine grid holds mu_star, so its optimum is never worse than the coarse one.
    return best_rate_over_mu_prime(params, k, fine, eta_e)


def k_min(
    params: SystemParams,
    distance: float,
    tol: float = 0.5,
    eta_e: float | None = None,
) -> KminResult:
    """Bisection for the smallest k in [1, 1000] with an attainable positive rate.

    Probes stop at the first positive coarse rate; the best intensity is
    searched only where reported, at k = 1 and at the final k.  Non-convergence
    (no positive rate even at k = 1000) is a flagged result, not an error.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    p = params.replace(distance=distance)
    if _probe(p, K_MAX, eta_e, False)[1] <= 0.0:
        return KminResult(distance, math.inf, math.nan, converged=False)
    mu_lo, rate_lo = _probe(p, 1.0, eta_e, True)
    if rate_lo > 0.0:
        return KminResult(distance, 1.0, mu_lo, converged=True)
    lo, hi = 1.0, K_MAX
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # tol below the float spacing of k
            break
        lo, hi = (lo, mid) if _probe(p, mid, eta_e, False)[1] > 0.0 else (mid, hi)
    return KminResult(distance, hi, _probe(p, hi, eta_e, True)[0], converged=True)


def sweep_grid(
    params: SystemParams, grid: SweepGrid, eta_e: float | None = None
) -> list[SweepRow]:
    """Full Cartesian rate evaluation, k-major row order.

    Rows with a negative rate are retained and flagged infeasible.
    """
    rows = []
    for k in grid.k_values:
        for mu_prime in grid.mu_prime_values:
            rate = _rate_at(params, k, mu_prime, eta_e)
            rows.append(SweepRow(k=k, mu_prime=mu_prime, rate=rate, feasible=rate > 0.0))
    return rows


def scan_row_for(params: SystemParams, strategy: AttackStrategy) -> ScanRow:
    """One strategy at one point; a degenerate point (zero signal gain) is a flagged row."""
    label = strategy_label(strategy)
    try:
        report = evaluate(params, strategy)
    except DegenerateObservablesError:
        return ScanRow(label, params.distance, *[math.nan] * 7, "degenerate")
    return ScanRow(
        strategy=label,
        distance=report.distance,
        q_mu=report.observables.q_mu,
        e_mu=report.observables.e_mu,
        y1_lower=report.bounds.y1_lower,
        q1_lower=report.bounds.q1_lower,
        e1_upper=report.bounds.e1_upper,
        rate=report.rate,
        r_absolute=math.nan if report.r_absolute is None else report.r_absolute,
        flags="|".join(report.flags),
    )


def distance_scan(
    params: SystemParams, strategy: AttackStrategy, l_values: Sequence[float]
) -> list[ScanRow]:
    """Evaluate one strategy across distances, one :func:`scan_row_for` row each."""
    return [scan_row_for(params.replace(distance=distance), strategy) for distance in l_values]


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return FLOAT_FMT.format(value)
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[tuple]) -> None:
    """Write rows with the documented header; floats carry 17 significant digits."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])
