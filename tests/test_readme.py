"""The README's Quick start commands run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from extrout.expcli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_commands() -> list[list[str]]:
    """Each `extrout ...` command of the Quick start section, its `\\`
    continuations joined, split into arguments without the program name."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", section, re.M | re.S):
        for command in block.replace("\\\n", " ").splitlines():
            words = shlex.split(command)
            if words and words[0] == "extrout":
                commands.append(words[1:])
    return commands


def test_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = quick_start_commands()
    assert [words[0] for words in commands] == [
        "topology", "run", "sweep", "attack", "report"]
    for words in commands:
        assert main(words) == 0, words
        out = capsys.readouterr().out
        if words[0] == "run":
            assert "reconciliation pass" in out
