import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import weakerr
from weakerr.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SUBMODULES = {m.name for m in pkgutil.iter_modules(weakerr.__path__)}


def test_every_export_resolves():
    missing = [name for name in weakerr.__all__ if not hasattr(weakerr, name)]
    assert missing == []


def test_readme_names_resolve():
    # every backticked `module.name` whose module is a weakerr submodule
    refs = set(re.findall(r"`(\w+)\.(\w+)", README))
    named = [(mod, name) for mod, name in refs if mod in SUBMODULES]
    assert named, "README names no weakerr submodule attribute"
    missing = [f"{mod}.{name}" for mod, name in sorted(named)
               if not hasattr(importlib.import_module(f"weakerr.{mod}"), name)]
    assert missing == []


def _cli_examples():
    """The ``weakerr ...`` lines of the code block under ``## CLI``, joined and split."""
    section = README.split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("weakerr ")]


def test_readme_cli_examples_cover_every_command():
    commands = {argv[0] for argv in _cli_examples()}
    assert commands == {"oracle", "mc", "psi", "c1", "converge", "expand", "richardson"}


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
