"""Independent reference formulas and values the tests check the program against."""

import math
import sys

from decoy_fsa.decoy import binary_entropy  # pinned on its own in test_decoy.py

_TINY = 5e-324  # the smallest positive float
_BIG = sys.float_info.max
_MU_MAX = math.log(_BIG)  # exp(mu) overflows past it


def next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


# Every SystemParams bound at its edge, for the GYS defaults otherwise:
# (field, a value just inside, a value just outside).
PARAM_EDGES = [
    ("nu", next_up(_TINY), 0.0),
    ("nu", next_up(_TINY), _TINY),  # mu*nu - nu**2 rounds to 0 at mu = 0.48
    ("nu", next_down(0.48), 0.48),  # below mu
    ("mu", next_down(_MU_MAX), _MU_MAX),
    ("dark_count", 0.0, -_TINY),
    ("dark_count", next_down(1.0), 1.0),
    ("eta_bob", _TINY, 0.0),
    ("eta_bob", 1.0, next_up(1.0)),
    ("alpha", _TINY, 0.0),
    ("alpha", _BIG, math.inf),
    ("distance", 0.0, -_TINY),
    ("distance", _BIG, math.inf),
    ("e_detector", 0.0, -_TINY),
    ("e_detector", 0.5, next_up(0.5)),
    ("q_sift", _TINY, 0.0),
    ("q_sift", 1.0, next_up(1.0)),
    ("f_ec", 1.0, next_down(1.0)),
    ("f_ec", _BIG, math.inf),
]


def poisson_pmf(mean: float, count: int) -> float:
    """P[N = count] for N ~ Poisson(mean)."""
    if mean < 0.0:
        raise ValueError(f"mean must be non-negative, got {mean}")
    if count < 0 or count != int(count):
        raise ValueError(f"count must be a non-negative integer, got {count}")
    count = int(count)
    if mean == 0.0:
        return 1.0 if count == 0 else 0.0
    # exp(k*ln(mean) - mean - ln(k!)) avoids overflow of mean**k for large k.
    return math.exp(count * math.log(mean) - mean - math.lgamma(count + 1))


def photon_gain(mean: float, yields: list[float], dark_count: float) -> float:
    """Q_x = sum over n of poisson_pmf(x, n)*Y_n, with Y_0 = dark_count and yields[n-1] = Y_n."""
    return sum(poisson_pmf(mean, n) * y for n, y in enumerate([dark_count, *yields]))


def q1_series(yields: list[float], mu: float, nu: float) -> float:
    """The weak+vacuum Q1 bound as a series over photon-number yields, yields[i-1] = Y_i.

    On the gains of :func:`photon_gain` the dark counts cancel, and every term
    with i >= 2 is non-positive for nu < mu, which is what makes blocking all
    multi-photon pulses optimal for the eavesdropper (Ma, Qi, Zhao & Lo, PRA 72,
    012326 (2005)).
    """
    prefactor = mu**2 * math.exp(-mu) / (mu * nu - nu**2)
    return prefactor * sum(
        y * nu**2 * (nu ** (i - 2) - mu ** (i - 2)) / math.factorial(i)
        for i, y in enumerate(yields, start=1)
    )


def k_infinity(params, eta_e: float) -> float:
    """The mismatch ratio below which no faked-state attack has a positive rate at d = 0.

    At d = 0 the attacked rate is q_sift*A*[mu*e^-mu*Y*(1 - H(kappa*E)) - a_mu*f_ec*H(E)],
    with A the arrival probability, a_mu the attacked fraction and E the users' single-photon
    error estimate; Y and kappa depend only on (mu, nu, eta_e), and QND is eta_e = 1.  E* zeroes
    the bracket.  E = 1/2 - (1 - 2e)*delta/A, and delta/A is largest for the weakest faked
    states, where it tends to (k - 1)/(2(k + 3)); E reaches E* there at k = (1 + 3r)/(1 - r),
    r = (1 - 2E*)/(1 - 2e).
    """
    mu, nu = params.mu, params.nu
    a_mu = mu * eta_e * math.exp(-mu * eta_e)
    y = eta_e * (mu * math.exp(nu * (1.0 - eta_e)) - nu * math.exp(mu * (1.0 - eta_e))) / (mu - nu)
    kappa = eta_e * math.exp(nu * (1.0 - eta_e)) / y

    def bracket(e: float) -> float:
        return (mu * math.exp(-mu) * y * (1.0 - binary_entropy(min(kappa * e, 0.5)))
                - a_mu * params.f_ec * binary_entropy(e))

    lo, hi = 0.0, 0.5
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if bracket(mid) > 0.0 else (lo, mid)
    r = (1.0 - 2.0 * lo) / (1.0 - 2.0 * params.e_detector)
    return (1.0 + 3.0 * r) / (1.0 - r)


def one_pass_report(params, strategy):
    """``evaluate`` of a QND or PNRD strategy as one straight pass, every expression in the
    order the per-point pipeline used before its mu_prime-free terms were computed once.

    The faked-state probabilities, the gating share and the checks come from the package;
    every float operation after them is written out here, so a reassociated term moves bits.
    """
    from decoy_fsa.decoy import RateReport
    from decoy_fsa.faked_states import resend_probs
    from decoy_fsa.model import efficiency_matrix
    from decoy_fsa.observables import PNRD, checked_qber, p_single

    d, e = params.dark_count, params.e_detector
    _, arrive, error, blind_arm = resend_probs(
        strategy.mu_prime, *efficiency_matrix(params, strategy.k), d
    )
    attacked_mu = p_single(params.mu, strategy.eta_e)
    attacked_nu = p_single(params.nu, strategy.eta_e)
    q_mu = arrive * attacked_mu + (1.0 - attacked_mu) * d
    q_nu = arrive * attacked_nu + (1.0 - attacked_nu) * d
    emu_qmu = error * attacked_mu + 0.5 * (1.0 - attacked_mu) * d
    enu_qnu = error * attacked_nu + 0.5 * (1.0 - attacked_nu) * d
    emu_qmu = (1.0 - 2.0 * e) * emu_qmu + e * q_mu
    enu_qnu = (1.0 - 2.0 * e) * enu_qnu + e * q_nu
    e_mu = checked_qber(q_mu, q_nu, emu_qmu, enu_qnu)
    mu, nu = params.mu, params.nu
    mu2, nu2, exp_nu = mu**2, nu**2, math.exp(nu)
    raw_y1 = (
        mu / (mu * nu - nu2)
        * (q_nu * exp_nu - q_mu * math.exp(mu) * nu2 / mu2 - (mu2 - nu2) / mu2 * d)
    )
    y1 = min(max(raw_y1, 0.0), 1.0)
    e1 = math.inf if y1 <= 0.0 else (enu_qnu * exp_nu - 0.5 * d) / (y1 * nu)
    q1 = mu * math.exp(-mu) * y1
    rate = params.q_sift * (
        -q_mu * params.f_ec * binary_entropy(e_mu)
        + q1 * (1.0 - binary_entropy(min(max(e1, 0.0), 0.5)))
    )
    r_abs = 0.125 * attacked_mu * (blind_arm + blind_arm) if isinstance(strategy, PNRD) else math.nan
    return RateReport(q_mu, q_nu, emu_qmu, enu_qnu, y1, q1, e1, raw_y1 != y1, rate, r_abs)
