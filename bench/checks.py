"""Correctness gates of the benchmark.

Each gate returns a list of problems (empty means the operation passed), so a
failed operation is counted rather than raised and the run can report
``failed`` against ``attempted``.
"""

from __future__ import annotations

import csv
import gzip
import math
from pathlib import Path

# Float columns of a recipe CSV must agree with the reference within
# |a - b| <= RTOL * max(|a|, |b|) + ATOL.  A changed formula moves values by
# far more than 1e-6 relative; rewriting 1 - exp(-x) as -expm1(-x) moves the
# rate by at most ~1e-7 relative and ~1e-16 absolute near its zero crossing.
RTOL = 1e-6
ATOL = 1e-15

# Columns compared as exact strings; every other column is a float.
EXACT_COLUMNS = frozenset({"strategy", "feasible", "converged", "flags"})

# Monte Carlo comparisons fail beyond 5 sigma.  The test is made on the exact
# binomial tail, so that rare events (an expected count well below one) are
# not failed by the normal approximation: z > 5 alone is not a failure unless
# the two-sided binomial tail probability is also below that of 5 sigma.
Z_GATE = 5.0
P_GATE = math.erfc(Z_GATE / math.sqrt(2.0))  # 5.733e-7
Z_REPORT = 3.0

VALIDATE_OK_CODES = (0, 3)
VALIDATE_ROWS = {"baseline": 4, "qnd": 10, "pnrd": 10}


def read_csv(path: str | Path) -> list[list[str]]:
    """All rows of a CSV, header first; ``.gz`` files are decompressed."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", newline="") as handle:
        return list(csv.reader(handle))


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare_csv(rows: list[list[str]], reference: list[list[str]]) -> list[str]:
    """Header and row count exact, flag-like columns exact, floats within tolerance."""
    if not rows or rows[0] != reference[0]:
        return [f"header {rows[:1]} != {reference[0]}"]
    if len(rows) != len(reference):
        return [f"{len(rows) - 1} rows, reference has {len(reference) - 1}"]
    exact = [name in EXACT_COLUMNS for name in reference[0]]
    problems = []
    for line, (got, want) in enumerate(zip(rows[1:], reference[1:]), start=2):
        if len(got) != len(want):
            problems.append(f"line {line}: {len(got)} cells, want {len(want)}")
            continue
        for name, is_exact, a, b in zip(reference[0], exact, got, want):
            if is_exact:
                ok = a == b
            else:
                try:
                    ok = _same_float(float(a), float(b))
                except ValueError:
                    ok = False
            if not ok:
                problems.append(f"line {line} {name}: {a} != reference {b}")
    return problems[:10]


def _log_pmf(j: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p))


def binomial_two_sided_p(successes: int, trials: int, p: float) -> float:
    """2 * min(P[X <= k], P[X >= k]) for X ~ Binomial(trials, p), capped at 1.

    Sums the pmf outward from k; the terms shrink geometrically because only
    the tail away from the mean is summed.
    """
    if not 0.0 < p < 1.0:
        return 1.0 if successes == round(p * trials) else 0.0
    term = math.exp(_log_pmf(successes, trials, p))
    total = term
    j = successes
    odds = p / (1.0 - p)
    if successes >= trials * p:
        while j < trials and term > total * 1e-17:
            term *= (trials - j) / (j + 1) * odds
            total += term
            j += 1
    else:
        while j > 0 and term > total * 1e-17:
            term *= j / (trials - j + 1) / odds
            total += term
            j -= 1
    return min(1.0, 2.0 * total)


def compare_mc(name: str, successes: int, trials: int, analytic: float) -> tuple[float, list[str]]:
    """z-score of one Monte Carlo estimate against its closed form, and its problems."""
    if trials <= 0:
        return math.inf, [f"{name}: no trials"]
    sigma = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials)
    measured = successes / trials
    if sigma == 0.0:
        if measured == analytic:
            return 0.0, []
        return math.inf, [f"{name}: {measured} != exact {analytic}"]
    z = (measured - analytic) / sigma
    if abs(z) <= Z_GATE or binomial_two_sided_p(successes, trials, analytic) >= P_GATE:
        return z, []
    return z, [f"{name}: z = {z:.2f} beyond {Z_GATE:g} sigma"]


def tally_problems(run) -> list[str]:
    """Bookkeeping invariants of one simulation run."""
    problems = []
    for stream, tally in run.tallies.items():
        if tally["sifted"] + tally["loss"] != run.n_pulses:
            problems.append(f"{stream}: clicks + loss != pulses")
        if tally["click0"] + tally["click1"] - tally["double_click"] != tally["sifted"]:
            problems.append(f"{stream}: detector clicks do not add up to clicks")
        if not 0 <= tally["sifted_error"] <= tally["sifted"]:
            problems.append(f"{stream}: errors outside [0, clicks]")
    if not 0 <= run.n_resend <= 2 * run.n_pulses:
        problems.append(f"n_resend {run.n_resend} outside [0, 2n]")
    return problems


def validate_problems(code: int, rows: list[list[str]] | None, strategy: str) -> list[str]:
    """A validate query passes with exit code 0 or 3 and one row per quantity."""
    if code not in VALIDATE_OK_CODES:
        return [f"exit code {code}"]
    want = VALIDATE_ROWS[strategy]
    if rows is None or len(rows) != want + 1:
        got = "no CSV" if rows is None else f"{len(rows) - 1} rows"
        return [f"{got}, want {want}"]
    return []
