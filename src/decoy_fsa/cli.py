"""Command-line front end: figure-reproduction recipes, CSV output.

Parameters start from the GYS link constants, overridden by a flat JSON file
(``--config``) and then by command-line flags.

Exit codes: 0 success, 1 runtime failure, 2 configuration error, 3 validation
failure (analytic vs Monte Carlo disagreement beyond 3 sigma, or no trials).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from . import faked_states, search
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

# Most points a 'start:stop:step' spec may expand to; the recipes use at most 101.
_MAX_GRID_POINTS = 1_000_000


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
        steps = (stop - start) / step + 1e-9
        if not steps < _MAX_GRID_POINTS:
            raise ValueError(f"more than {_MAX_GRID_POINTS} points")
        n = int(steps)
        last = stop if steps - n <= 2e-9 else start + n * step  # within 1e-9 of n steps: stop
        return tuple(start + i * step for i in range(n)) + (last,)
    except ValueError as exc:
        raise ConfigError(f"invalid {name} specification {text!r}: {exc}") from exc


def _grid_values(text: str, name: str, lo: float, hi: float) -> tuple[float, ...]:
    values = _parse_values(text, name)
    if any(b <= a for a, b in zip(values, values[1:])) or not all(lo <= v <= hi for v in values):
        raise ConfigError(f"{name} must be strictly increasing within [{lo}, {hi}], got {text!r}")
    return values


def _distances(text: str) -> tuple[float, ...]:
    if min(distances := _parse_values(text, "--distances")) < 0.0:
        raise ConfigError(f"--distances must be non-negative, got {text!r}")
    return distances


def _search_eta_e(args: argparse.Namespace) -> float:
    if not 0.0 < args.eta_e <= 1.0:
        raise ConfigError(f"--eta-e must be in (0, 1], got {args.eta_e}")
    return args.eta_e


def _load_params(args: argparse.Namespace) -> SystemParams:
    params = GYS if args.config is None else SystemParams.from_config(args.config)
    if getattr(args, "distance", None) is not None:
        params = params.replace(distance=args.distance)
    return params


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


# The --strategy choices; each reads the flags named by its class's fields and no other.
_STRATEGIES = {"baseline": Baseline, "qnd": QND, "pnrd": PNRD}


def _check_reach(params: SystemParams, k: float, distances: Sequence[float], flags) -> None:
    """Reject a mismatch ratio the efficiency geometry cannot hold over the distances.

    k*blind <= 1 binds at the shortest distance and the normal-float floor
    of the blind efficiency at the longest, so only those two are checked.
    """
    for d in sorted({min(distances), max(distances)}):
        try:
            efficiency_matrix(params.replace(distance=d), k)
        except ValueError as exc:
            raise ConfigError(f"{_flags(flags)}: k = {k} at distance {d} km: {exc}") from exc


def _build_strategies(
    args: argparse.Namespace, params: SystemParams, distances: Sequence[float] | None = None
) -> tuple[AttackStrategy, ...]:
    """The recipe's strategies or the one the flags name, k checked at the distance(s)."""
    if getattr(args, "recipe", None):
        strategies, source = args.strategy, "recipe"
    else:
        kind, cls = args.strategy, _STRATEGIES[args.strategy]
        reads = [f.name for f in dataclasses.fields(cls)]
        flags = dict.fromkeys(f.name for c in _STRATEGIES.values() for f in dataclasses.fields(c))
        given = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
        if unused := [name for name in given if name not in reads]:
            raise ConfigError(f"strategy {kind!r} does not take {_flags(unused)}")
        if missing := [name for name in reads if name not in given]:
            raise ConfigError(f"strategy {kind!r} requires {_flags(missing)}")
        try:
            strategies, source = (cls(**given),), "k"
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    for strategy in strategies:
        if not isinstance(strategy, Baseline):
            _check_reach(params, strategy.k, distances or (params.distance,),
                         (source, "config", "distances" if distances else "distance"))
    return strategies


# Per command, the flags a --recipe sets: the None entry holds their values
# without a recipe (None: unset), and a named recipe overrides some of them.
# A scan recipe's strategy is the tuple of strategies it scans.
_RECIPES: dict[str, dict[str | None, dict[str, object]]] = {
    "scan": {
        None: {"strategy": "baseline", "k": None, "mu_prime": None, "eta_e": None,
               "distances": "0:200:2"},
        "fig3": {"strategy": (Baseline(), QND(mu_prime=300.0, k=310.0))},
        "fig6": {"strategy": (Baseline(), PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1))},
        "fig7": {"strategy": (PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1),), "distances": "0:180:2"},
    },
    "sweep": {
        None: {"distance": None, "k_values": "10:1000:10", "mu_prime_values": "0:2000:20",
               "eta_e": 1.0},
        "fig2": {"distance": 100.0},
    },
    "kmin": {
        None: {"distances": "1:140:10"},
        "fig4": {"distances": "1,10,20,30,40,50,60,70,80,90,100,110,120,130,140"},
    },
}


def _resolve_recipe_flags(args: argparse.Namespace) -> None:
    """Reject a flag the recipe would set; otherwise fill in the unset flags."""
    if args.command not in _RECIPES:
        return
    recipes = _RECIPES[args.command]
    given = [name for name in recipes[None] if getattr(args, name) is not None]
    if given and args.recipe is not None:
        raise ConfigError(f"--recipe {args.recipe} sets {_flags(given)} itself")
    values = {**recipes[None], **recipes[args.recipe]}
    vars(args).update({name: v for name, v in values.items() if getattr(args, name) is None})


def _output_path(args: argparse.Namespace) -> str | None:
    """``--out``, else the command's default, named by its recipe if any; rate has none."""
    if args.out or args.command == "rate":
        return args.out
    if args.command == "validate":
        return "validate.csv"
    name = {"sweep": "grid", "kmin": "scan"}.get(args.command) or args.strategy
    return f"{args.command}_{args.recipe or name}.csv"


def _check_output_paths(args: argparse.Namespace) -> None:
    """Reject an output path the command could not create or would write twice, before any work.

    Failures that only the write itself can detect, such as permissions, still
    exit 1 when they happen.
    """
    config = args.config and os.path.realpath(args.config)
    for name in ("out", "manifest"):
        if path := getattr(args, name, None):
            if os.path.isdir(path):
                raise ConfigError(f"--{name} {path!r} is a directory")
            if not os.path.isdir(parent := os.path.dirname(path) or "."):
                raise ConfigError(f"--{name} {path!r}: {parent!r} is not a directory")
            if config and os.path.realpath(path) == config:
                raise ConfigError(f"--{name} {path!r} would overwrite the --config file")
    manifest = getattr(args, "manifest", None)
    if manifest and os.path.realpath(manifest) == os.path.realpath(args.out):
        raise ConfigError(f"--manifest and --out name the same file {manifest!r}")


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
            p.add_argument("--strategy", choices=tuple(_STRATEGIES), default="baseline")
            p.add_argument("--k", type=float, default=None,
                           help="detector efficiency mismatch ratio")
            p.add_argument("--mu-prime", type=float, default=None,
                           help="faked-state mean photon number")
        p.add_argument("--eta-e", type=float, default=None if with_strategy else 1.0,
                       help="eavesdropper PNRD single-photon efficiency")

    p_rate = sub.add_parser("rate", help="evaluate one (distance, strategy) point")
    add_common(p_rate)
    p_rate.add_argument("--distance", type=float, default=None, help="fiber length, km")

    p_scan = sub.add_parser("scan", help="key-rate scan over distance")
    add_common(p_scan)
    p_scan.add_argument("--distances", help="'start:stop:step' or comma list, km")

    p_sweep = sub.add_parser("sweep", help="(k, mu') feasibility surface at one distance")
    add_common(p_sweep, with_strategy=False)
    p_sweep.add_argument("--distance", type=float)
    p_sweep.add_argument("--k-values")
    p_sweep.add_argument("--mu-prime-values")

    p_kmin = sub.add_parser("kmin", help="minimum attackable mismatch ratio per distance")
    add_common(p_kmin, with_strategy=False)
    p_kmin.add_argument("--distances")
    p_kmin.add_argument("--tol", type=float, default=0.5)

    p_val = sub.add_parser("validate",
                           help="Monte Carlo vs closed-form comparison at 3 sigma")
    add_common(p_val)
    p_val.add_argument("--distance", type=float, default=None)
    p_val.add_argument("--n-pulses", type=int, default=1_000_000)
    p_val.add_argument("--seed", type=int, default=20240901)
    p_val.add_argument("--manifest", default=None,
                       help="also write the run manifest (JSON) to this path")

    for name, recipes in _RECIPES.items():
        sub.choices[name].add_argument("--recipe", choices=[r for r in recipes if r], default=None,
                                       help="named figure reproduction recipe")
        sub.choices[name].set_defaults(**dict.fromkeys(recipes[None]))
    return parser


def _write(args: argparse.Namespace, header: Sequence[str], rows: list) -> None:
    search.write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")


def _cmd_rate(args: argparse.Namespace, params: SystemParams) -> int:
    [strategy] = _build_strategies(args, params)
    row = search.scan_row_for(params, strategy)
    for name, value in zip(search.SCAN_HEADER, row):
        print(f"{name} = {value}")
    if args.out:
        search.write_csv(args.out, search.SCAN_HEADER, [row])
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace, params: SystemParams) -> int:
    distances = _distances(args.distances)
    strategies = _build_strategies(args, params, distances)
    rows = search.distance_scan(params, strategies, distances)
    _write(args, search.SCAN_HEADER, rows)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, params: SystemParams) -> int:
    # The fig2 recipe is the default grid at 100 km, QND.
    k_values = _grid_values(args.k_values, "--k-values", 1.0, search.K_MAX)
    mu_prime_values = _grid_values(args.mu_prime_values, "--mu-prime-values", 0.0, math.inf)
    _check_reach(params, k_values[-1], (params.distance,), ("k_values", "distance"))
    rows = search.sweep_grid(params, k_values, mu_prime_values, _search_eta_e(args))
    _write(args, search.SWEEP_HEADER, rows)
    return EXIT_OK


def _cmd_kmin(args: argparse.Namespace, params: SystemParams) -> int:
    eta_e = _search_eta_e(args)
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    distances = _distances(args.distances)
    _check_reach(params, search.K_MAX, distances, ("distances",))
    rows = [search.k_min(params.replace(distance=distance), tol=args.tol, eta_e=eta_e)
            for distance in distances]
    _write(args, search.KMIN_HEADER, rows)
    return EXIT_OK


def _analytic_quantities(params: SystemParams, strategy: AttackStrategy) -> dict[str, float]:
    """Closed-form value of each quantity the Monte Carlo run estimates."""
    quantities = dict(vars(observables_for(params, strategy)))
    if isinstance(strategy, Baseline):
        return quantities
    # Both detectors click alike, by mirror symmetry; r1 = s0 is the blind-arm probability.
    click, arrive, error, blind_arm = faked_states.resend_probs(
        strategy.mu_prime, *efficiency_matrix(params, strategy.k), params.dark_count
    )
    quantities.update(p_click0=click, p_click1=click, p_arrive=arrive, p_error=error,
                      r1=blind_arm, s0=blind_arm)
    return quantities


def _cmd_validate(args: argparse.Namespace, params: SystemParams) -> int:
    [strategy] = _build_strategies(args, params)
    if args.n_pulses < 1:
        raise ConfigError(f"--n-pulses must be >= 1, got {args.n_pulses}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    quantities = _analytic_quantities(params, strategy)  # a point it rejects runs no Monte Carlo
    empirical = simulate_pulses(params, strategy, args.n_pulses, args.seed)
    rows = []
    failed = []
    for name, analytic in quantities.items():
        successes, trials = empirical.counts[name]
        sigma, z, ok = binomial_verdict(successes, trials, analytic)
        if not ok:
            failed.append(f"{name} ({'beyond 3 sigma' if trials else 'no trials'})")
        rows.append((strategy_label(strategy), params.distance, name,
                     analytic, getattr(empirical, name), sigma, z, ok))
    _write(args, VALIDATE_HEADER, rows)
    if args.manifest:
        Path(args.manifest).write_text(empirical.manifest_json())
        print(f"wrote run manifest to {args.manifest}")
    if failed:
        print(f"validation FAILED: {', '.join(failed)}", file=sys.stderr)
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
    try:
        args = build_parser().parse_args(argv)
        _resolve_recipe_flags(args)
        args.out = _output_path(args)
        _check_output_paths(args)
        return _COMMANDS[args.command](args, _load_params(args))
    except SystemExit as exc:  # argparse's: 2 for a malformed flag, 0 after --help
        return exc.code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
