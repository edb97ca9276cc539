"""Independent reference formulas the tests check the program against."""

import math


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
