"""Benchmark of the decoy-fsa toolkit: one workload per run, metrics as JSON.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout that holds this
script, never from an installed copy.  With ``--trace 0``
the last stdout line carries the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  The lines before it are a readable
summary and the run record.  Exits non-zero without a result line when the
program cannot be imported.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread per process, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TMP = ROOT / ".bench_tmp"


def _import_program():
    """Import decoy_fsa from this checkout's src/, or exit with an error message."""
    if not (SRC / "decoy_fsa" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'decoy_fsa'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import decoy_fsa

    if SRC.resolve() not in Path(decoy_fsa.__file__).resolve().parents:
        sys.exit(f"bench: decoy_fsa imported from {decoy_fsa.__file__}, not {SRC}")
    return decoy_fsa


def _cold_import_s() -> float:
    """Wall time of ``import decoy_fsa.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import decoy_fsa.cli"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return perf_counter() - start


def _run_record(args, decoy_fsa, np) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "decoy_fsa": decoy_fsa.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "oracle_pulses_per_point": workloads.ORACLE_PULSES,
        "validate_pulses_per_query": workloads.VALIDATE_PULSES,
        "shard_size": decoy_fsa.oracle.DEFAULT_SHARD_SIZE,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _passes(workload, seconds: float) -> list:
    """Timed passes until ``seconds`` have gone by; at least one."""
    deadline = perf_counter() + seconds
    done = [workload.run_pass()]
    while perf_counter() < deadline:
        done.append(workload.run_pass())
    return done


def _wall_s(result) -> float:
    return sum(result.op_ns) / 1e9


def _typical_wall_s(passes: list) -> float:
    """Wall time of one pass, each operation at its median over the passes.

    Every pass runs the same operations in the same order, so this is the
    median pass assembled operation by operation; a burst of load from
    outside that slows part of one pass does not move it.
    """
    per_op = zip(*(p.op_ns for p in passes))
    return sum(statistics.median(samples) for samples in per_op) / 1e9


def _summary(name: str, passes: list) -> dict[str, tuple[float, str]]:
    """The workload's own figures under the names NOTES.md uses, beside the JSON metrics."""
    out = {}
    if name == "figures":
        def kind_s(kinds):
            return statistics.median(
                sum(ns for ns, kind in zip(p.op_ns, p.op_kind) if kind in kinds) / 1e9
                for p in passes)
        out["fig2_s"] = (kind_s({"fig2"}), "s")
        out["fig4_s"] = (kind_s({"fig4"}), "s")
        out["scans_s"] = (kind_s({"fig3", "fig6", "fig7"}), "s")
    else:
        out["mpulses_per_s"] = (passes[0].pulses / 1e6 / _typical_wall_s(passes), "Mpulse/s")
    if name == "validate_short":
        latencies = [ns / 1e6 for p in passes for ns in p.op_ns]
        out["query_p50_ms"] = (statistics.median(latencies), "ms")
        out["query_p99_ms"] = (statistics.quantiles(latencies, n=100)[98], "ms")
        out["queries"] = (len(latencies), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    decoy_fsa = _import_program()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    factory = workloads.WORKLOADS[args.workload]
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    try:
        return _measure(args, spec, factory, workdir, _run_record(args, decoy_fsa, np))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, spec, factory, workdir: Path, record: dict) -> int:
    if args.trace:
        workload = factory(args.seed, workdir)
        warmup = workload.run_pass()
        metrics, untraced, traced = _traced(workload, args, record)
        all_passes = [warmup, *untraced, *traced]
        timed = untraced
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            cold = _cold_import_s()
            start = perf_counter_ns()
            workload = factory(args.seed, workdir)
            setups.append(cold + (perf_counter_ns() - start) / 1e9)
        warmup = workload.run_pass()
        timed = _passes(workload, args.seconds)
        all_passes = [warmup, *timed]
        latencies = [ns / 1e6 for p in timed for ns in p.op_ns]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": _typical_wall_s(timed),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": _peak_rss_mb(),
        }
    attempted = sum(len(p.op_ns) for p in all_passes)
    failed = sum(p.failed for p in all_passes)

    for key, (value, unit) in _summary(args.workload, timed).items():
        print(f"{key:<34} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<34} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    for p in all_passes:
        for problem in p.problems[:5]:
            print(f"FAILED {problem}")

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for name in units:
        print(f"{name:<34} {metrics[name]:>14.6g} {units[name]}")
    print("run record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def _traced(workload, args, record: dict):
    """Untraced passes for a third of the time, then traced passes for the rest.

    Both wall times here are medians of whole passes, so that the median
    self-time sum, which is at most its own pass's wall time in every pass,
    is also at most the median traced wall time.
    """
    import tracing

    untraced = _passes(workload, args.seconds / 3)
    tracer = tracing.Tracer()
    tracer.install()
    traced, per_pass = [], []
    deadline = perf_counter() + args.seconds * 2 / 3
    try:
        while not traced or perf_counter() < deadline:
            tracer.reset()
            result = workload.run_pass()
            traced.append(result)
            layer = tracing.pass_metrics(tracer)
            layer["trace.wall_s"] = _wall_s(result)
            layer["trace.self_sum_s"] = sum(
                layer[f"layer.{name}.self_ms"] for name in tracing.LAYERS) / 1e3
            layer["oracle.comparisons"] = result.comparisons
            layer["oracle.beyond_3sigma"] = result.beyond_3sigma
            layer["oracle.z_abs_max"] = result.z_abs_max
            per_pass.append(layer)
    finally:
        tracer.uninstall()
    spans_path = TMP / f"spans-{args.workload}-{args.seed}.csv.gz"
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["spans_written"] = tracer.write_spans(spans_path)
    counts_repeat = all(
        per_pass[0][name] == layer[name] for layer in per_pass
        for name in layer if name.endswith((".calls", ".evals", ".rows", ".bytes", ".shards")))
    record["traced_passes"] = len(traced)
    record["counts_repeat"] = counts_repeat
    metrics = {name: statistics.median(layer[name] for layer in per_pass) for name in per_pass[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(_wall_s(p) for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, untraced, traced


if __name__ == "__main__":
    sys.exit(main())
