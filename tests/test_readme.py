"""README's library quick start runs as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import decoy_fsa
from decoy_fsa.cli import _resolve_recipe_flags, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_root_exports_resolve():
    for name in decoy_fsa.__all__:
        assert hasattr(decoy_fsa, name), name


def test_command_lines_parse():
    # Every command of the command-line block, backslash continuations joined;
    # parsed and checked against its recipe, not run (argparse exits on a flag it
    # does not know, the recipe check raises on a flag its recipe sets).
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert commands
    for program, *argv in commands:
        assert program == "decoy-fsa"
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]
        _resolve_recipe_flags(args)
