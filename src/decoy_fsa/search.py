"""Parameter exploration: feasibility sweeps, per-distance optima, and the k_min curve.

All operations are deterministic pure functions of their inputs; grid rows come
out in a fixed order (k-major, then mu_prime).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .decoy import attack_curve, evaluate
from .model import SystemParams
from .observables import AttackStrategy, DegenerateObservablesError, strategy_label

K_MAX = 1000.0

# Coarse/fine grids of the two-stage intensity search.
COARSE_MU_STEP = 10.0
COARSE_MU_MAX = 2000.0
COARSE_MU_GRID = tuple(i * COARSE_MU_STEP for i in range(int(COARSE_MU_MAX / COARSE_MU_STEP) + 1))
FINE_MU_STEP = 1.0

FLOAT_FMT = "%.17g"


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


def best_rate_over_mu_prime(
    params: SystemParams,
    k: float,
    mu_primes: Sequence[float],
    eta_e: float = 1.0,
) -> tuple[float, float]:
    """Grid-maximize the attacked key rate over the faked-state intensity.

    One :func:`decoy.attack_curve` at (params, k, eta_e) serves the whole grid.
    Returns (mu_prime*, rate*); ties break toward the smaller intensity.  A
    negative rate* means the attack is infeasible at this mismatch ratio; it is
    -inf, at the first intensity, when every point is degenerate.
    """
    if len(mu_primes) == 0:
        raise ValueError("mu_prime grid must be non-empty")
    rate = attack_curve(params, k, eta_e)
    return _best(mu_primes, [rate(mu_prime) for mu_prime in mu_primes])


def _best(mu_primes: Sequence[float], rates: Sequence[float]) -> tuple[float, float]:
    """First (mu_prime, rate) with the top rate, every rate being finite or -inf."""
    return max(zip(mu_primes, rates), key=lambda t: t[1])


def _probe(params: SystemParams, k: float, eta_e: float, argmax: bool) -> tuple[float, float]:
    """Coarse grid pass over [0, 2000] step 10, then a unit-step local refinement.

    Without ``argmax`` only the sign of rate* counts: the coarse pass runs top
    down and stops at the first positive rate, since the fine grid holds the
    coarse argmax.
    """
    rate = attack_curve(params, k, eta_e)
    rates = []
    for mu_prime in reversed(COARSE_MU_GRID):
        rates.append(rate(mu_prime))
        if rates[-1] > 0.0 and not argmax:
            return mu_prime, rates[-1]
    mu_star, _ = _best(COARSE_MU_GRID, rates[::-1])
    lo = max(0.0, mu_star - COARSE_MU_STEP)
    hi = min(COARSE_MU_MAX, mu_star + COARSE_MU_STEP)
    fine = [lo + i * FINE_MU_STEP for i in range(int(round((hi - lo) / FINE_MU_STEP)) + 1)]
    # The fine grid holds mu_star, so its optimum is never worse than the coarse one.
    return best_rate_over_mu_prime(params, k, fine, eta_e)


def k_min(params: SystemParams, *, tol: float = 0.5, eta_e: float = 1.0) -> KminResult:
    """Bisection for the smallest k in (1, 1000] with an attainable positive rate at ``params``.

    k = 1 is not probed: there p_arrive = 1 - (1-d)^2*h^2 = 2*p_error, h = exp(-mu'*eta_blind/2),
    so QND and PNRD give e_mu = 1/2 at any mu', d and e_detector; were k = 1 feasible, k_min would
    lie within tol of 1.  Probes stop at the first positive rate; none at k = 1000: not converged.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if _probe(params, K_MAX, eta_e, False)[1] <= 0.0:
        return KminResult(params.distance, math.inf, math.nan, converged=False)
    lo, hi = 1.0, K_MAX
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # tol below the float spacing of k
            break
        lo, hi = (lo, mid) if _probe(params, mid, eta_e, False)[1] > 0.0 else (mid, hi)
    return KminResult(params.distance, hi, _probe(params, hi, eta_e, True)[0], converged=True)


def sweep_grid(
    params: SystemParams,
    k_values: Sequence[float],
    mu_prime_values: Sequence[float],
    eta_e: float = 1.0,
) -> list[SweepRow]:
    """Full Cartesian rate evaluation, k-major row order, one attack curve per k.

    Rows with a negative rate are retained and flagged infeasible.
    """
    rows = []
    for k in k_values:
        rate_at = attack_curve(params, k, eta_e)
        for mu_prime in mu_prime_values:
            rate = rate_at(mu_prime)
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
        distance=params.distance,
        q_mu=report.q_mu,
        e_mu=report.emu_qmu / report.q_mu,
        y1_lower=report.y1_lower,
        q1_lower=report.q1_lower,
        e1_upper=report.e1_upper,
        rate=report.rate,
        r_absolute=report.r_absolute,
        flags="|".join(report.flags),
    )


def distance_scan(
    params: SystemParams, strategies: Sequence[AttackStrategy], l_values: Sequence[float]
) -> list[ScanRow]:
    """One :func:`scan_row_for` row per strategy and distance, strategy-major.

    Each distance's parameters are built once and shared by every strategy.
    """
    points = [params.replace(distance=distance) for distance in l_values]
    return [scan_row_for(point, strategy) for strategy in strategies for point in points]


def _text(value: object) -> str:
    """A cell that is not a float: true/false for a bool, else its text, quoted as CSV needs."""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[tuple]) -> None:
    """Write rows with the documented header; floats carry 17 significant digits.

    The first row sets which columns hold floats; other cells go through
    :func:`_text`.  Lines end in CRLF, as the csv module's writer ends them.
    """
    with open(path, "w", newline="") as handle:
        handle.write(",".join(map(_text, header)) + "\r\n")
        if not rows:
            return
        line = ",".join(FLOAT_FMT if isinstance(v, float) else "%s" for v in rows[0]) + "\r\n"
        texts = [i for i, value in enumerate(rows[0]) if not isinstance(value, float)]
        for row in rows:
            cells = list(row)
            for i in texts:
                cells[i] = _text(cells[i])
            handle.write(line % tuple(cells))
