"""The benchmark's layer tracer wraps program names; each must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.BINDINGS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"bench/tracing.py binds names the program no longer has: {missing}"
