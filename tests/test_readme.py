"""The README's Quick start commands run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from extrout.expcli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# The whole stdout of each Quick start command, in order.
QUICK_START_STDOUT = {
    "topology": [
        "nodes=400 links=1482 average_degree=8.000",
        "wrote out/topology.txt",
    ],
    "run": [
        "wrote out/matrix.csv",
        "wrote out/heatmap.txt",
        "wrote out/report.txt",
        "wrote out/report.csv",
        "reconciliation pass",
    ],
    "sweep": [
        "wrote out/anonymity_vs_L.csv",
        "wrote out/anonymity_vs_tof.csv",
    ],
    "attack": [
        "wrote out/attack.csv",
        "wrote out/attack.txt",
        "source success 0.020500, analytical 0.020833",
    ],
    "report": [
        "baseline_3_8_4: pass",
        "duplicate_1x15: pass",
        "duplicate_2x15: pass",
        "five_path_total_80: pass",
        "fake_extended_17: pass (2 flag(s))",
        "one_fake_pair_12_13: pass",
        "wrote out/reference_report.txt",
    ],
}


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
    assert [words[0] for words in commands] == list(QUICK_START_STDOUT)
    for words in commands:
        assert main(words) == 0, words
        out = capsys.readouterr().out
        assert out.splitlines() == QUICK_START_STDOUT[words[0]], words
