"""Write the reference CSVs the ``figures`` gate compares against.

    python3 bench/make_refs.py

Run once on the commit that defines the reference; the outputs go to
bench/ref/ as gzip files with a fixed timestamp, so identical CSVs give
identical bytes.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from decoy_fsa import cli  # noqa: E402

from workloads import RECIPES, REF_DIR  # noqa: E402


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for argv, ref in RECIPES:
            out = Path(tmp) / f"{ref}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {code}")
            with open(REF_DIR / f"{ref}.csv.gz", "wb") as raw, gzip.GzipFile(
                fileobj=raw, mode="wb", mtime=0, filename=""
            ) as handle:
                handle.write(out.read_bytes())
            print(f"wrote {REF_DIR / f'{ref}.csv.gz'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
