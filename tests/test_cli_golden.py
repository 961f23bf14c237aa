"""Stdout and exit code of a fixed CLI command set, against a golden file.

Each command is replayed in-process three times: without a cache, then
twice against one cache directory (a miss, then a hit).  All three must
match the recorded bytes.  Regenerate the golden file only when a change of
output is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import re
import shlex
from pathlib import Path

import pytest

from kneserhom.cli import main

COMMANDS = [
    # the criterion-9 set
    ["info", "5", "2", "--output", "json"],
    ["betti-linear", "4", "2", "--i-max", "6", "--verify", "--output", "json"],
    ["betti-table", "3", "1", "--output", "json"],
    ["bounds", "5", "2", "--invariant", "reg", "--output", "json"],
    ["certify", "5", "2", "--kind", "matching", "--output", "json"],
    ["export", "5", "2", "--format", "m2"],
    # text forms, the other export formats, guards and errors
    ["betti-table", "4", "2", "--char", "0"],
    ["betti-table", "3", "1"],
    ["bounds", "5", "2", "--invariant", "pd"],
    ["certify", "5", "2", "--kind", "gamma"],
    ["certify", "5", "2", "--kind", "gamma", "--output", "json"],
    ["certify", "6", "2", "--kind", "domination", "--s", "1,2", "--j", "4"],
    ["certify", "7", "3", "--kind", "cochord", "--variant", "double-stars",
     "--t", "2"],
    ["export", "5", "2", "--format", "singular"],
    ["export", "5", "2", "--format", "dot"],
    ["export", "5", "2", "--format", "json"],
    ["info", "5", "2", "--max-subsets", "10"],
    ["info", "3", "2"],
    # every other output form of each writer, and three more error exits
    ["info", "5", "2"],
    ["betti-linear", "5", "2"],
    ["betti-linear", "5", "2", "--output", "json"],
    ["betti-linear", "5", "2", "--output", "csv"],
    ["betti-linear", "4", "2", "--verify"],
    ["bounds", "5", "2", "--invariant", "reg-power", "--p", "3"],
    ["bounds", "5", "2", "--invariant", "reg-power", "--p", "3",
     "--output", "json"],
    ["certify", "5", "2", "--kind", "matching"],
    ["certify", "6", "2", "--kind", "cochord", "--output", "json"],
    ["certify", "4", "2", "--kind", "domination"],
    ["betti-linear", "5", "2", "--verify", "--output", "csv"],
    ["certify", "5", "2", "--kind", "matching", "--s", "9"],
    ["betti-table", "6", "2"],
]

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.txt"
HEADER = re.compile(r"== kneserhom (.*) -> exit (\d+), (\d+) chars\n")


def capture(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def render(argv: list[str], code: int, out: str) -> str:
    return f"== kneserhom {shlex.join(argv)} -> exit {code}, {len(out)} chars\n{out}\n"


@functools.cache
def golden() -> dict[str, tuple[int, str]]:
    """{command line: (exit code, stdout)}; each block is a header naming
    the length of the stdout that follows it, then a blank line."""
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        text = fh.read()
    runs, pos = {}, 0
    while pos < len(text):
        head = HEADER.match(text, pos)
        assert head, f"{GOLDEN.name}: no header at offset {pos}"
        end = head.end() + int(head.group(3))
        runs[head.group(1)] = (int(head.group(2)), text[head.end():end])
        pos = end + 1
    return runs


@pytest.fixture
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("KNESERHOM_"):
            monkeypatch.delenv(name)


def test_golden_file_covers_the_command_set() -> None:
    assert list(golden()) == [shlex.join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_stdout_and_exit_code_match_golden(argv, tmp_path, clean_env) -> None:
    want = golden()[shlex.join(argv)]
    cached = [*argv, "--cache-dir", str(tmp_path)]
    assert capture(argv) == want
    assert capture(cached) == want  # miss: computed and stored
    assert capture(cached) == want  # hit


if __name__ == "__main__":
    for name in [n for n in os.environ if n.startswith("KNESERHOM_")]:
        del os.environ[name]
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(render(argv, *capture(argv)) for argv in COMMANDS))
