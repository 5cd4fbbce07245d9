"""The README's console examples, run through cli.main.

Every ```console block whose first line starts with `$ lexbs ` is one
example: the rest of the block is its stdout.  A block with a `...` line
shows only part of the output, and passes when its shown lines appear in
that order.
"""

import re
import shlex
from pathlib import Path

import pytest

from lexbs.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    text = README.read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"^```console\n(.*?)^```", text, re.M | re.S):
        command, *shown = block.splitlines()
        if command.startswith("$ lexbs "):
            out.append((shlex.split(command)[2:], shown))
    return out


EXAMPLES = _examples()


def test_readme_has_cli_examples():
    assert EXAMPLES


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES]
)
def test_readme_example(capsys, argv, shown):
    main(argv)
    lines = capsys.readouterr().out.splitlines()
    elided = [line for line in shown if line.strip() != "..."]
    if len(elided) < len(shown):
        rest = iter(lines)
        # `line in rest` consumes rest up to the match: an in-order search.
        missing = [line for line in elided if line not in rest]
        assert not missing, lines
    else:
        assert lines == shown
