"""README's library quick start runs as written, on the package root's names."""

import re
from pathlib import Path

import decoy_fsa

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_root_exports_resolve():
    for name in decoy_fsa.__all__:
        assert hasattr(decoy_fsa, name), name
