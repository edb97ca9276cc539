"""Independent reference formulas and values the tests check the program against."""

import math
import sys

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
