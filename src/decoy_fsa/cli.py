"""Command-line front end: figure-reproduction recipes, CSV output.

Parameters start from the GYS link constants, overridden by a flat JSON file
(``--config``) and then by command-line flags.

Exit codes: 0 success, 1 runtime failure, 2 configuration error, 3 validation
failure (analytic vs Monte Carlo disagreement beyond 3 sigma).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Sequence

from . import faked_states, search, security
from .model import GYS, ConfigError, SystemParams, efficiency_matrix
from .observables import (
    AttackStrategy,
    Baseline,
    PNRD,
    QND,
    observables_for,
    strategy_label,
)
from .oracle import binomial_verdict, simulate_pulses

VALIDATE_HEADER = (
    "strategy", "L", "quantity", "analytic", "empirical", "sigma", "z", "pass",
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


def _parse_values(text: str, name: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive of stop when it lands on-grid) or 'a,b,c'."""
    try:
        parts = tuple(float(part) for part in text.split(":" if ":" in text else ","))
        if not all(map(math.isfinite, parts)):
            raise ValueError("values must be finite")
        if ":" not in text:
            return parts
        start, stop, step = parts
        if step <= 0 or stop < start:
            raise ValueError("need start <= stop and step > 0")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    except ValueError as exc:
        raise ConfigError(f"invalid {name} specification {text!r}: {exc}") from exc


def _grid_values(text: str, name: str, lo: float, hi: float) -> tuple[float, ...]:
    values = _parse_values(text, name)
    if any(b <= a for a, b in zip(values, values[1:])) or not all(lo <= v <= hi for v in values):
        raise ConfigError(f"{name} must be strictly increasing within [{lo}, {hi}], got {text!r}")
    return values


def _search_eta_e(args: argparse.Namespace) -> float | None:
    if args.eta_e is not None and not 0.0 < args.eta_e <= 1.0:
        raise ConfigError(f"--eta-e must be in (0, 1], got {args.eta_e}")
    return args.eta_e


def _load_params(args: argparse.Namespace) -> SystemParams:
    params = GYS if args.config is None else SystemParams.from_config(args.config)
    if getattr(args, "distance", None) is not None:
        params = params.replace(distance=args.distance)
    return params


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


# The strategy flags each strategy reads (pnrd reads all); it takes no other.
_STRATEGY_FLAGS = {"baseline": (), "qnd": ("k", "mu_prime"), "pnrd": ("k", "mu_prime", "eta_e")}


def _build_strategy(args: argparse.Namespace, params: SystemParams) -> AttackStrategy:
    """The strategy the flags name, its --k checked at ``params.distance``.

    The timing-matched efficiency k*eta_01 is largest at the shortest
    distance, so a scan checks only that one.
    """
    kind, reads = args.strategy, _STRATEGY_FLAGS[args.strategy]
    given = [name for name in _STRATEGY_FLAGS["pnrd"] if getattr(args, name) is not None]
    if unused := [name for name in given if name not in reads]:
        raise ConfigError(f"strategy {kind!r} does not take {_flags(unused)}")
    if missing := [name for name in reads if name not in given]:
        raise ConfigError(f"strategy {kind!r} requires {_flags(missing)}")
    if kind == "baseline":
        return Baseline()
    try:
        strategy = (QND(mu_prime=args.mu_prime, k=args.k) if kind == "qnd"
                    else PNRD(mu_prime=args.mu_prime, k=args.k, eta_e=args.eta_e))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        efficiency_matrix(params, strategy.k)
    except ValueError as exc:
        raise ConfigError(f"--k {strategy.k} at distance {params.distance} km: {exc}") from exc
    return strategy


# Flags a --recipe sets itself, with their values when no recipe is given.
_RECIPE_FLAGS = {
    "scan": {"strategy": "baseline", "k": None, "mu_prime": None, "eta_e": None,
             "distances": "0:200:2"},
    "sweep": {"distance": 100.0, "k_values": "10:1000:10", "mu_prime_values": "0:2000:20",
              "eta_e": None},
    "kmin": {"distances": "1:140:10"},
}


def _resolve_recipe_flags(args: argparse.Namespace) -> None:
    """Reject a flag the recipe would override; otherwise fill in the flag defaults."""
    defaults = _RECIPE_FLAGS.get(args.command, {})
    given = [name for name in defaults if getattr(args, name) is not None]
    if given and args.recipe is not None:
        raise ConfigError(f"--recipe {args.recipe} sets {_flags(given)} itself")
    vars(args).update({name: v for name, v in defaults.items() if getattr(args, name) is None})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="decoy-fsa",
        description=(
            "Analyze faked-states attacks on weak+vacuum decoy-state BB84 "
            "receivers with detector efficiency mismatch."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_strategy: bool = True) -> None:
        p.add_argument("--config", default=None, help="flat JSON parameter file")
        p.add_argument("--out", default=None, help="output CSV path")
        if with_strategy:
            p.add_argument("--strategy", choices=("baseline", "qnd", "pnrd"),
                           default="baseline")
            p.add_argument("--k", type=float, default=None,
                           help="detector efficiency mismatch ratio")
            p.add_argument("--mu-prime", type=float, default=None,
                           help="faked-state mean photon number")
            p.add_argument("--eta-e", type=float, default=None,
                           help="eavesdropper PNRD single-photon efficiency")

    p_rate = sub.add_parser("rate", help="evaluate one (distance, strategy) point")
    add_common(p_rate)
    p_rate.add_argument("--distance", type=float, default=None, help="fiber length, km")

    p_scan = sub.add_parser("scan", help="key-rate scan over distance")
    add_common(p_scan)
    p_scan.add_argument("--distances", help="'start:stop:step' or comma list, km")
    p_scan.add_argument("--recipe", choices=("fig3", "fig6", "fig7"), default=None,
                        help="named two-curve/one-curve reproduction recipe")

    p_sweep = sub.add_parser("sweep", help="(k, mu') feasibility surface at one distance")
    add_common(p_sweep, with_strategy=False)
    p_sweep.add_argument("--distance", type=float)
    p_sweep.add_argument("--k-values")
    p_sweep.add_argument("--mu-prime-values")
    p_sweep.add_argument("--eta-e", type=float,
                         help="use the PNRD strategy with this efficiency")
    p_sweep.add_argument("--recipe", choices=("fig2",), default=None)

    p_kmin = sub.add_parser("kmin", help="minimum attackable mismatch ratio per distance")
    add_common(p_kmin, with_strategy=False)
    p_kmin.add_argument("--distances")
    p_kmin.add_argument("--tol", type=float, default=0.5)
    p_kmin.add_argument("--eta-e", type=float, default=None)
    p_kmin.add_argument("--recipe", choices=("fig4",), default=None)

    p_val = sub.add_parser("validate",
                           help="Monte Carlo vs closed-form comparison at 3 sigma")
    add_common(p_val)
    p_val.add_argument("--distance", type=float, default=None)
    p_val.add_argument("--n-pulses", type=int, default=1_000_000)
    p_val.add_argument("--seed", type=int, default=20240901)
    p_val.add_argument("--manifest", default=None,
                       help="also write the run manifest (JSON) to this path")

    for name, flags in _RECIPE_FLAGS.items():
        sub.choices[name].set_defaults(**dict.fromkeys(flags))
    return parser


def _cmd_rate(args: argparse.Namespace) -> int:
    params = _load_params(args)
    strategy = _build_strategy(args, params)
    row = search.scan_row_for(params, strategy)
    for name, value in zip(search.SCAN_HEADER, row):
        print(f"{name} = {value}")
    if args.out:
        search.write_csv(args.out, search.SCAN_HEADER, [row])
    return EXIT_OK


_SCAN_RECIPES: dict[str, tuple[tuple[AttackStrategy, ...], str]] = {
    "fig3": ((Baseline(), QND(mu_prime=300.0, k=310.0)), "0:200:2"),
    "fig6": ((Baseline(), PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)), "0:200:2"),
    "fig7": ((PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1),), "0:180:2"),
}


def _cmd_scan(args: argparse.Namespace) -> int:
    params = _load_params(args)
    if args.recipe is not None:
        strategies, distances_spec = _SCAN_RECIPES[args.recipe]
        distances = _parse_values(distances_spec, "--distances")
    else:
        distances = _parse_values(args.distances, "--distances")
        strategies = (_build_strategy(args, params.replace(distance=min(distances))),)
    rows = []
    for strategy in strategies:
        rows.extend(search.distance_scan(params, strategy, distances))
    out = args.out or f"scan_{args.recipe or strategy_label(strategies[0])}.csv"
    search.write_csv(out, search.SCAN_HEADER, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    # The fig2 recipe is the default grid: (k, mu') at 100 km, QND.
    grid = search.SweepGrid(
        k_values=_grid_values(args.k_values, "--k-values", 1.0, search.K_MAX),
        mu_prime_values=_grid_values(args.mu_prime_values, "--mu-prime-values", 0.0, math.inf),
    )
    rows = search.sweep_grid(_load_params(args), grid, _search_eta_e(args))
    out = args.out or f"sweep_{args.recipe or 'grid'}.csv"
    search.write_csv(out, search.SWEEP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _cmd_kmin(args: argparse.Namespace) -> int:
    params = _load_params(args)
    eta_e = _search_eta_e(args)
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    if args.recipe == "fig4":
        distances = (1.0,) + tuple(float(x) for x in range(10, 141, 10))
    else:
        distances = _parse_values(args.distances, "--distances")
    rows = [search.k_min(params, distance, tol=args.tol, eta_e=eta_e) for distance in distances]
    out = args.out or f"kmin_{args.recipe or 'scan'}.csv"
    search.write_csv(out, search.KMIN_HEADER, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _analytic_quantities(params: SystemParams, strategy: AttackStrategy) -> dict[str, float]:
    """Closed-form value of each quantity the Monte Carlo run estimates."""
    obs = observables_for(params, strategy)
    quantities = {"q_mu": obs.q_mu, "q_nu": obs.q_nu,
                  "emu_qmu": obs.emu_qmu, "enu_qnu": obs.enu_qnu}
    if isinstance(strategy, Baseline):
        return quantities
    eff = efficiency_matrix(params, strategy.k)
    fs = faked_states.FakedStateIntensities.symmetric(strategy.mu_prime)
    d = params.dark_count
    quantities.update({
        "p_click0": faked_states.p_click_det0(fs, eff, d),
        "p_click1": faked_states.p_click_det1(fs, eff, d),
        "p_arrive": faked_states.p_arrive(fs, eff, d),
        "p_error": faked_states.p_error(fs, eff, d),
    })
    quantities.update(vars(security.table1_probs(fs, eff)))  # r1, s0
    return quantities


def _cmd_validate(args: argparse.Namespace) -> int:
    params = _load_params(args)
    strategy = _build_strategy(args, params)
    if args.n_pulses < 1:
        raise ConfigError(f"--n-pulses must be >= 1, got {args.n_pulses}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    empirical = simulate_pulses(params, strategy, args.n_pulses, args.seed)
    rows = []
    all_pass = True
    for name, analytic in _analytic_quantities(params, strategy).items():
        sigma, z, ok = binomial_verdict(*empirical.counts[name], analytic)
        all_pass &= ok
        rows.append((strategy_label(strategy), params.distance, name,
                     analytic, getattr(empirical, name), sigma, z, ok))
    out = args.out or "validate.csv"
    search.write_csv(out, VALIDATE_HEADER, rows)
    print(f"wrote {len(rows)} rows to {out}")
    if args.manifest:
        Path(args.manifest).write_text(empirical.manifest_json())
        print(f"wrote run manifest to {args.manifest}")
    if not all_pass:
        print("validation FAILED: at least one quantity beyond 3 sigma", file=sys.stderr)
        return EXIT_VALIDATION
    print("validation passed: all quantities within 3 sigma")
    return EXIT_OK


_COMMANDS = {
    "rate": _cmd_rate,
    "scan": _cmd_scan,
    "sweep": _cmd_sweep,
    "kmin": _cmd_kmin,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_recipe_flags(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
