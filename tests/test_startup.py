"""What a command loads: the standard-library modules its start-up skips,
the log records that appear once the application loads `logging`, and
the means that stand in for `statistics` computing the same bits."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extrout.adversary import unlinkability_score
from extrout.expcli import _mean_exact
from extrout.simengine import TrafficTrace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Modules no benchmarked command needs; each costs start-up time to import.
SKIPPED = {"logging", "statistics", "configparser"}

DENSE = ["--rows", "6", "--cols", "6", "--perturbation", "0",
         "--tx-range", "150", "--qudg-factor", "0.95"]
SMALL_RUN = ["run", *DENSE, "--target-hops", "4", "--reps", "3",
             "--budget", "25"]

# Prints, as its last line, the modules that importing the package and
# running `main(argv)` added to sys.modules in a fresh interpreter.
ADDED = """
import json, sys
before = set(sys.modules)
import extrout, extrout.expcli
code = extrout.expcli.main(json.loads(sys.argv[1]))
print(json.dumps(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def _python(tmp_path, *args: str,
            pythonpath: str = str(SRC)) -> subprocess.CompletedProcess:
    """A fresh interpreter without `site`, so nothing is loaded before it."""
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, encoding="utf-8")


def _added(tmp_path, argv: list[str]) -> set[str]:
    result = _python(tmp_path, "-c", ADDED,
                     json.dumps([*argv, "--out", str(tmp_path / "out")]))
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    ["topology", *DENSE],
    ["attack", *DENSE, "--variant", "extrout_fake", "--count", "1",
     "--trials", "100", "--target-hops", "4"],
    ["sweep", *DENSE, "--hop-targets", "3,4", "--pairs-per-target", "2",
     "--frontier-hops", "4", "--duplicate-counts", "1", "--fake-counts", "1",
     "--nfake-counts", "1", "--reps", "2", "--budget", "20"],
    SMALL_RUN,
], ids=["topology", "attack", "sweep", "run"])
def test_commands_do_not_load_logging_statistics_or_configparser(tmp_path, argv):
    assert _added(tmp_path, argv) & SKIPPED == set()


def test_a_config_file_loads_configparser(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nreps = 3\n", encoding="utf-8")
    added = _added(tmp_path, [*SMALL_RUN, "--config", str(config)])
    assert added & SKIPPED == {"configparser"}


def test_uneven_transmit_counts_load_statistics(tmp_path):
    # duplicate paths relay unevenly, so the unlinkability score needs pstdev
    added = _added(tmp_path, [*SMALL_RUN, "--variant", "extrout_duplicates",
                              "--count", "2"])
    assert added & SKIPPED == {"statistics"}


def test_truncated_extension_is_logged_once_logging_is_configured(tmp_path):
    script = """
import random, sys
from extrout.routing import extrapolate, shortest_path
from ladders import line_topology

topo = line_topology(10)
route = shortest_path(topo, 1, 8)  # node 1 ends the line: no source side
assert extrapolate(topo, route, 3, 2, random.Random(0)).source_ext == 0
print("logging" in sys.modules)

import logging
logging.basicConfig(level=logging.INFO,
                    format="%(levelname)s:%(name)s:%(funcName)s:%(message)s")
extrapolate(topo, route, 3, 2, random.Random(0))
"""
    result = _python(tmp_path, "-c", script,
                     pythonpath=f"{SRC}{os.pathsep}{HERE}")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
    assert result.stderr == ("INFO:extrout.routing:extrapolate:"
                             "no source-side extension possible from node 1\n")


def test_log_level_shows_the_ranking_records_and_changes_no_output(tmp_path):
    # A 3-hop route's pass pauses at its first tier, and later decoys, kept
    # off the earlier ones' paths, resume it: it reads rows again after
    # each of its first five tiers, and then none are left before the half
    # where it stops pausing.
    argv = ["attack", "--rows", "12", "--cols", "12", *DENSE[4:],
            "--variant", "nfake_pairs", "--count", "3", "--target-hops", "3",
            "--trials", "100", "--seed", "1", "--out", "out"]
    runs = {}
    for name, flag in (("quiet", []), ("logged", ["--log-level", "INFO"])):
        (tmp_path / name).mkdir()
        result = _python(tmp_path / name, "-c", ADDED, json.dumps([*argv, *flag]))
        assert result.returncode == 0, result.stderr
        *stdout, added = result.stdout.splitlines()
        files = {path.name: path.read_bytes() for path in (tmp_path / name / "out").iterdir()}
        runs[name] = (result.stderr, stdout, files, "logging" in json.loads(added))
    quiet, logged = runs["quiet"], runs["logged"]
    assert quiet[0] == "" and not quiet[3] and logged[3]
    assert logged[0].splitlines() == [
        "INFO:extrout.protocols:slack 1 pass paused: 1 tiers complete after 22 of 140 free rows",
        *(f"INFO:extrout.protocols:slack 1 resuming the pass: no decoy in the {n} tiers read"
          for n in range(1, 6))]
    assert logged[1:3] == quiet[1:3]
    assert sorted(quiet[2]) == ["attack.csv", "attack.txt"]


def test_a_bad_log_level_is_a_config_error(tmp_path):
    result = _python(tmp_path, "-m", "extrout", *SMALL_RUN, "--log-level", "loud")
    assert result.returncode == 1
    assert result.stderr == "config error: bad value for --log-level: Unknown level: 'LOUD'\n"
    assert not (tmp_path / "out").exists()


def test_log_level_is_checked_and_set_where_the_root_logger_has_handlers(
        tmp_path, monkeypatch, capsys):
    # In-process, as an embedding application calls main: pytest has given
    # the root logger handlers already, so configuring them is left to it,
    # but the level is still checked and set.
    import logging

    from extrout.expcli import main

    monkeypatch.chdir(tmp_path)
    root = logging.getLogger()
    assert root.handlers
    handlers, level = list(root.handlers), root.level
    try:
        root.setLevel(logging.WARNING)
        assert main([*SMALL_RUN, "--log-level", "loud"]) == 1
        assert capsys.readouterr().err == (
            "config error: bad value for --log-level: Unknown level: 'LOUD'\n")
        assert root.level == logging.WARNING
        assert not (tmp_path / "out").exists()
        assert main([*SMALL_RUN, "--log-level", " debug "]) == 0
        assert root.level == logging.DEBUG
        assert root.handlers == handlers
    finally:
        root.setLevel(level)


# ------------------------------------------------- means without statistics

@settings(max_examples=300, deadline=None)
@given(counts=st.one_of(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=60),
    st.tuples(st.integers(1, 10**6), st.integers(1, 60)).map(
        lambda pair: [pair[0]] * pair[1])))
def test_unlinkability_score_is_the_statistics_formula_bit_for_bit(counts):
    trace = TrafficTrace(node_tx=dict(enumerate(counts, 1)), link_tx={})
    expected = 1.0 - min(1.0, statistics.pstdev(counts) / statistics.fmean(counts))
    assert unlinkability_score(trace).hex() == expected.hex()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(-1e12, 1e12), min_size=2, max_size=60))
def test_mean_of_unequal_values_is_fmean_bit_for_bit(values):
    assume(len(set(values)) > 1)  # equal values come back untouched
    assert _mean_exact(values).hex() == statistics.fmean(values).hex()


@settings(max_examples=300, deadline=None)
@given(on_path=st.lists(st.booleans(), min_size=1, max_size=3000))
def test_on_path_rate_is_fmean_bit_for_bit(on_path):
    # `attack` averages the verdicts' on_real_path flags this way
    rate = sum(on_path) / len(on_path)
    assert rate.hex() == statistics.fmean(
        1.0 if hit else 0.0 for hit in on_path).hex()
