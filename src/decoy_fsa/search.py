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

from .decoy import RateReport, evaluate
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

SWEEP_HEADER = ("k", "mu_prime", "rate", "feasible")
KMIN_HEADER = ("L", "k_min", "mu_prime_at_kmin", "converged")
SCAN_HEADER = (
    "strategy",
    "L",
    "q_mu",
    "e_mu",
    "y1_lower",
    "q1_lower",
    "e1_upper",
    "rate",
    "r_absolute",
    "flags",
)


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


@dataclass(frozen=True)
class KminResult:
    """Smallest mismatch ratio at which some intensity makes the rate positive."""

    distance: float
    k_min: float
    mu_prime_at_kmin: float
    converged: bool


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


def _two_stage_best(
    params: SystemParams, k: float, eta_e: float | None = None
) -> tuple[float, float]:
    """Coarse grid pass over [0, 2000] step 10, then a unit-step local refinement."""
    coarse = [i * COARSE_MU_STEP for i in range(int(COARSE_MU_MAX / COARSE_MU_STEP) + 1)]
    mu_star, _ = best_rate_over_mu_prime(params, k, coarse, eta_e)
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

    Non-convergence (no positive rate even at k = 1000) is a flagged result,
    not an error.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    p = params.replace(distance=distance)
    mu_hi, rate_hi = _two_stage_best(p, K_MAX, eta_e)
    if rate_hi <= 0.0:
        return KminResult(distance=distance, k_min=math.inf, mu_prime_at_kmin=math.nan, converged=False)
    mu_lo, rate_lo = _two_stage_best(p, 1.0, eta_e)
    if rate_lo > 0.0:
        return KminResult(distance=distance, k_min=1.0, mu_prime_at_kmin=mu_lo, converged=True)
    lo, hi, mu_at_hi = 1.0, K_MAX, mu_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # tol below the float spacing of k
            break
        mu_mid, rate_mid = _two_stage_best(p, mid, eta_e)
        if rate_mid > 0.0:
            hi, mu_at_hi = mid, mu_mid
        else:
            lo = mid
    return KminResult(distance=distance, k_min=hi, mu_prime_at_kmin=mu_at_hi, converged=True)


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


def distance_scan(
    params: SystemParams, strategy: AttackStrategy, l_values: Sequence[float]
) -> list[ScanRow]:
    """Evaluate one strategy across distances; degenerate points become flagged rows."""
    label = strategy_label(strategy)
    rows = []
    for distance in l_values:
        p = params.replace(distance=distance)
        try:
            report = evaluate(p, strategy)
        except DegenerateObservablesError:
            rows.append(
                ScanRow(label, distance, math.nan, math.nan, math.nan, math.nan,
                        math.nan, math.nan, math.nan, "degenerate")
            )
            continue
        rows.append(_scan_row(label, report))
    return rows


def _scan_row(label: str, report: RateReport) -> ScanRow:
    r_abs = math.nan if report.r_absolute is None else report.r_absolute
    return ScanRow(
        strategy=label,
        distance=report.distance,
        q_mu=report.observables.q_mu,
        e_mu=report.observables.e_mu,
        y1_lower=report.bounds.y1_lower,
        q1_lower=report.bounds.q1_lower,
        e1_upper=report.bounds.e1_upper,
        rate=report.rate,
        r_absolute=r_abs,
        flags="|".join(report.flags),
    )


def scan_row_for(params: SystemParams, strategy: AttackStrategy) -> ScanRow:
    """Single-point counterpart of :func:`distance_scan`."""
    return _scan_row(strategy_label(strategy), evaluate(params, strategy))


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
