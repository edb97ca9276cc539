"""Layer tracing from outside the program.

The tracer replaces each call-site binding of the library's public functions
with a wrapper that records a span (name, start, end, parent) and a count.
``from .x import f`` copies the binding into the importing module, so every
module that calls ``f`` through its own name gets its own wrapper; all of them
record under the name of the module that defines ``f``.

Self time is computed as spans close: a span's duration minus the time its
child spans cover.  Spans of the current pass stay in memory as flat arrays
and are written out when the benchmark ends.
"""

from __future__ import annotations

import gzip
import math
import os
from array import array
from collections import Counter
from time import perf_counter_ns

from decoy_fsa import cli, decoy, faked_states, model, observables, oracle, search, security
from decoy_fsa.observables import strategy_label

LAYERS = ("cli", "search", "decoy", "observables", "faked_states", "security", "model", "oracle")

# (owner, attribute, span name); the owner's attribute is the binding callers use.
BINDINGS = (
    (cli, "main", "cli.main"),
    (cli, "build_parser", "cli.build_parser"),
    (cli, "simulate_pulses", "oracle.simulate_pulses"),
    (cli, "observables_for", "observables.observables_for"),
    (cli, "efficiency_matrix", "model.efficiency_matrix"),
    (search, "k_min", "search.k_min"),
    (search, "sweep_grid", "search.sweep_grid"),
    (search, "distance_scan", "search.distance_scan"),
    (search, "scan_row_for", "search.scan_row_for"),
    (search, "best_rate_over_mu_prime", "search.best_rate_over_mu_prime"),
    (search, "write_csv", "search.write_csv"),
    (search, "evaluate", "decoy.evaluate"),
    (decoy, "observables_for", "observables.observables_for"),
    (decoy, "decoy_bounds", "decoy.decoy_bounds"),
    (decoy, "key_rate", "decoy.key_rate"),
    (observables, "observables_for", "observables.observables_for"),
    (observables, "efficiency_matrix", "model.efficiency_matrix"),
    (observables, "p_single", "observables.p_single"),
    (faked_states, "p_arrive", "faked_states.p_arrive"),
    (faked_states, "p_error", "faked_states.p_error"),
    (faked_states, "p_click_det0", "faked_states.p_click_det0"),
    (faked_states, "p_click_det1", "faked_states.p_click_det1"),
    (security, "r_absolute_for", "security.r_absolute_for"),
    (security, "table1_probs", "security.table1_probs"),
    (security, "efficiency_matrix", "model.efficiency_matrix"),
    (security, "p_single", "observables.p_single"),
    (model, "efficiency_matrix", "model.efficiency_matrix"),
    (model.SystemParams, "replace", "model.SystemParams.replace"),
    (oracle, "simulate_pulses", "oracle.simulate_pulses"),
    (oracle, "efficiency_matrix", "model.efficiency_matrix"),
)

# search entry points whose evaluate calls are counted separately
_SEARCH_SCOPES = ("search.k_min", "search.sweep_grid", "search.distance_scan")


class Tracer:
    """Span recorder for one pass at a time; ``reset`` starts the next pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.active: Counter = Counter()
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Forget the previous pass; the wrappers keep writing to the same containers."""
        for spans in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del spans[:]
        for container in (self._stack, self._child_ns, self.calls, self.total_ns,
                          self.self_ns, self.active, self.counts):
            container.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        span_name, span_start, span_end, span_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent)
        stack, child_ns, active = self._stack, self._child_ns, self.active
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            stack.append(index)
            child_ns.append(0)
            active[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                duration = end - start
                active[name] -= 1
                stack.pop()
                self_ns[name] += duration - child_ns.pop()
                if child_ns:
                    child_ns[-1] += duration
                calls[name] += 1
                total_ns[name] += duration
                span_start[index] = start
                span_end[index] = end
            if on_result is not None:
                on_result(args, result, duration)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "decoy.evaluate": self._on_evaluate,
            "decoy.decoy_bounds": self._on_bounds,
            "model.efficiency_matrix": self._on_efficiency_matrix,
            "search.write_csv": self._on_write_csv,
            "oracle.simulate_pulses": self._on_simulate,
        }
        for owner, attr, name in BINDINGS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # --- per-call hooks: counts attributed where the work happens -------------

    def _on_evaluate(self, args, report, duration: int) -> None:
        kind = strategy_label(args[1])
        self.counts[f"evaluate.{kind}"] += 1
        self.counts[f"evaluate_ns.{kind}"] += duration
        for scope in _SEARCH_SCOPES:
            if self.active[scope]:
                self.counts[f"evals.{scope}"] += 1
                self.counts[f"evals_positive.{scope}"] += report.rate > 0.0

    def _on_bounds(self, args, bounds, duration: int) -> None:
        self.counts["clamped_y1"] += bounds.y1_clamped
        self.counts["unbounded_e1"] += bounds.e1_unbounded

    def _on_efficiency_matrix(self, args, eff, duration: int) -> None:
        if self.active["decoy.evaluate"]:
            self.counts["efficiency_matrix_in_evaluate"] += 1

    def _on_write_csv(self, args, result, duration: int) -> None:
        self.counts["csv_rows"] += len(args[2])
        self.counts["csv_bytes"] += os.path.getsize(args[0])

    def _on_simulate(self, args, run, duration: int) -> None:
        shard_size = args[4] if len(args) > 4 else oracle.DEFAULT_SHARD_SIZE
        self.counts["pulses"] += 2 * run.n_pulses
        self.counts["shards"] += math.ceil(run.n_pulses / shard_size)
        self.counts["resends"] += run.n_resend

    # --- output -----------------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, value in self.self_ns.items():
            out[name.split(".", 1)[0]] += value
        return out

    def write_spans(self, path: str | os.PathLike) -> int:
        """Write this pass's spans as gzip CSV (name, start_ns, end_ns, parent)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for nid, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                handle.write(f"{self.names[nid]},{start},{end},{parent}\n")
        return len(self.span_start)


def _mean_us(total_ns: int, calls: int) -> float:
    return total_ns / calls / 1e3 if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the pass the tracer just recorded."""
    calls, total, own, counts = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.counts
    kmin_calls = calls["search.k_min"]
    evaluate_calls = calls["decoy.evaluate"]
    metrics = {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": own["cli.main"] / 1e6,
        "cli.build_parser.us": _mean_us(total["cli.build_parser"], calls["cli.build_parser"]),
        "search.k_min.calls": kmin_calls,
        "search.k_min.self_ms": own["search.k_min"] / 1e6,
        "search.k_min.evals": counts["evals.search.k_min"],
        "search.probes_per_kmin": _ratio(calls["search.best_rate_over_mu_prime"] / 2, kmin_calls),
        "search.evals_per_kmin": _ratio(counts["evals.search.k_min"], kmin_calls),
        "search.evals_positive_ratio": _ratio(
            counts["evals_positive.search.k_min"], counts["evals.search.k_min"]),
        "search.sweep_grid.ms": total["search.sweep_grid"] / 1e6,
        "search.sweep_grid.evals": counts["evals.search.sweep_grid"],
        "search.distance_scan.ms": total["search.distance_scan"] / 1e6,
        "search.distance_scan.evals": counts["evals.search.distance_scan"],
        "search.write_csv.ms": total["search.write_csv"] / 1e6,
        "search.write_csv.rows": counts["csv_rows"],
        "search.write_csv.bytes": counts["csv_bytes"],
        "decoy.evaluate.calls": evaluate_calls,
        "decoy.decoy_bounds.us": _mean_us(total["decoy.decoy_bounds"], calls["decoy.decoy_bounds"]),
        "decoy.key_rate.us": _mean_us(total["decoy.key_rate"], calls["decoy.key_rate"]),
        "decoy.clamped_y1": counts["clamped_y1"],
        "decoy.unbounded_e1": counts["unbounded_e1"],
        "observables.observables_for.calls": calls["observables.observables_for"],
        "observables.observables_for.us": _mean_us(
            total["observables.observables_for"], calls["observables.observables_for"]),
        "observables.p_single.calls": calls["observables.p_single"],
        "faked_states.p_arrive.us": _mean_us(
            total["faked_states.p_arrive"], calls["faked_states.p_arrive"]),
        "faked_states.p_error.us": _mean_us(
            total["faked_states.p_error"], calls["faked_states.p_error"]),
        "faked_states.p_click_det0.calls": calls["faked_states.p_click_det0"],
        "faked_states.p_click_det1.calls": calls["faked_states.p_click_det1"],
        "security.r_absolute_for.calls": calls["security.r_absolute_for"],
        "security.r_absolute_for.us": _mean_us(
            total["security.r_absolute_for"], calls["security.r_absolute_for"]),
        "security.table1_probs.calls": calls["security.table1_probs"],
        "model.efficiency_matrix.calls": calls["model.efficiency_matrix"],
        "model.efficiency_matrix.us": _mean_us(
            total["model.efficiency_matrix"], calls["model.efficiency_matrix"]),
        "model.efficiency_matrix.per_evaluate": _ratio(
            counts["efficiency_matrix_in_evaluate"], evaluate_calls),
        "model.SystemParams.replace.calls": calls["model.SystemParams.replace"],
        "model.SystemParams.replace.us": _mean_us(
            total["model.SystemParams.replace"], calls["model.SystemParams.replace"]),
        "oracle.simulate_pulses.calls": calls["oracle.simulate_pulses"],
        "oracle.simulate_pulses.ms": total["oracle.simulate_pulses"] / 1e6,
        "oracle.ns_per_pulse": _ratio(total["oracle.simulate_pulses"], counts["pulses"]),
        "oracle.shards": counts["shards"],
        "oracle.resend_ratio": _ratio(counts["resends"], counts["pulses"]),
    }
    for kind in ("baseline", "qnd", "pnrd"):
        metrics[f"decoy.evaluate.{kind}.us"] = _mean_us(
            counts[f"evaluate_ns.{kind}"], counts[f"evaluate.{kind}"])
    for layer, value in tracer.layer_self_ns().items():
        metrics[f"layer.{layer}.self_ms"] = value / 1e6
    metrics["trace.spans"] = len(tracer.span_start)
    return metrics
