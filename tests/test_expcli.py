"""Experiment CLI: configuration, subcommands, exit codes, provenance."""

from __future__ import annotations

import configparser
import re
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

from extrout.adversary import attack_trials
from extrout.expcli import (SCHEMA, ConfigError, _format_value, _make_settings,
                            _sample_pair, main, resolve_config)
from extrout.metrics import REFERENCES, ReconciliationRecord
from extrout.protocols import ProtocolVariant, ScenarioSettings, build_scenario
from extrout.rng import child_seed, substream
from extrout.routing import LANDMARKS, UnreachableError, _hop_table
from extrout.simengine import run
from extrout.topology import (Topology, TopologyParams, generate,
                              load_topology, topology_to_text)

from ladders import line_topology
from oracles import CountingNeighbours, adjacency, bfs_levels, link_pairs, matrix_from_csv
from test_golden import GRID, _digest
from test_routing import _counting_walks

HERE = Path(__file__).resolve().parent


def _dense_flags(rows: int, cols: int) -> list[str]:
    return ["--rows", str(rows), "--cols", str(cols),
            "--perturbation", "0", "--tx-range", "150",
            "--qudg-factor", "0.95"]


def _line_file(tmp_path, n: int = 20) -> str:
    path = tmp_path / "line.txt"
    path.write_text(topology_to_text(line_topology(n)), encoding="utf-8")
    return str(path)


def _free_id_file(tmp_path) -> str:
    """A three-node chain numbered 5, 6, 7: not the cells 1..3 of its grid."""
    path = tmp_path / "free_ids.txt"
    path.write_text("3 150.0 0.95 0.0 100.0 0\n5 0.0 0.0\n6 100.0 0.0\n"
                    "7 200.0 0.0\n5 6\n6 7\n", encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ configuration

def test_resolve_config_defaults():
    cfg = resolve_config(None, {})
    assert cfg["rows"] == 20 and cfg["cols"] == 20
    assert cfg["variant"] == "extrout_baseline"
    assert cfg["budget"] == 7000
    assert cfg["hop_targets"] == tuple(range(3, 17))


def test_resolve_config_ini_then_cli_precedence(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[run]\nseed = 9\nreps = 4\n[topology]\nrows = 5\n",
                   encoding="utf-8")
    cfg = resolve_config(str(ini), {"seed": "3"})
    assert cfg["seed"] == 3  # command line wins
    assert cfg["reps"] == 4 and cfg["rows"] == 5  # file beats defaults


def test_resolve_config_rejects_unknown_key(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[run]\nwarp = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config(str(ini), {})


def test_resolve_config_rejects_misplaced_key(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[topology]\nseed = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config(str(ini), {})


def test_resolve_config_bad_values(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[run]\nreps = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value"):
        resolve_config(str(ini), {})
    with pytest.raises(ConfigError, match="bad value"):
        resolve_config(None, {"budget": "many"})
    with pytest.raises(ConfigError, match="reps"):
        resolve_config(None, {"reps": "0"})
    with pytest.raises(ConfigError, match="source and dest"):
        resolve_config(None, {"source": "4"})


def test_readme_config_block_holds_every_key_at_its_default(tmp_path):
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    ini = tmp_path / "readme.ini"
    ini.write_text(block, encoding="utf-8")
    assert resolve_config(str(ini), {}) == resolve_config(None, {})
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block)
    keys = {key for section in parser.sections() for key in parser[section]}
    assert keys == {key for _, key, _, _ in SCHEMA}


def test_resolve_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        resolve_config("/nonexistent/exp.ini", {})


@pytest.mark.parametrize("key, parse, default",
                         [pytest.param(key, parse, default, id=key)
                          for _, key, parse, default in SCHEMA])
def test_provenance_values_parse_back_to_the_defaults(key, parse, default):
    # provenance prints each value with _format_value; reading it back
    # must give the same value, or a run cannot be reproduced from it
    assert parse(_format_value(default)) == default


def test_cli_defaults_are_the_library_defaults():
    cfg = resolve_config(None, {})
    assert _make_settings(cfg) == ScenarioSettings()
    params = TopologyParams(cfg["rows"], cfg["cols"])
    for key in ("spacing", "perturbation", "tx_range", "qudg_factor"):
        assert cfg[key] == getattr(params, key), key


# The provenance block of `report` at the defaults, the output directory
# masked.  Outputs are compared without it elsewhere, so this pins how each
# value is written.
DEFAULT_PROVENANCE = """\
# command=report
# topology.rows=20
# topology.cols=20
# topology.spacing=100.0
# topology.perturbation=0.25
# topology.tx_range=145.0
# topology.qudg_factor=0.25
# topology.topology_file=
# scenario.variant=extrout_baseline
# scenario.count=1
# scenario.source=0
# scenario.dest=0
# scenario.target_hops=8
# scenario.source_ext=-1
# scenario.dest_ext=-1
# scenario.ext_low=2
# scenario.ext_high=5
# scenario.strict=true
# run.seed=1
# run.reps=20
# run.budget=7000
# run.out=OUT
# run.attack_trials=0
# run.reference=
# sweep.hop_targets=3,4,5,6,7,8,9,10,11,12,13,14,15,16
# sweep.pairs_per_target=20
# sweep.frontier_hops=12
# sweep.duplicate_counts=1,2,3,4,5
# sweep.fake_counts=1
# sweep.nfake_counts=1,3,5,7,9
# attack.trials=1000
"""


def test_provenance_block_is_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["report", "--out", str(out)]) == 0
    text = (out / "reference_report.txt").read_text(encoding="utf-8")
    masked = text.replace(f"# run.out={out}\n", "# run.out=OUT\n", 1)
    block, body = masked[:len(DEFAULT_PROVENANCE)], masked[len(DEFAULT_PROVENANCE):]
    assert block == DEFAULT_PROVENANCE
    assert body.startswith("[baseline_3_8_4]\n")


# ------------------------------------------------------------- exit codes

def test_main_exit_1_on_config_error(tmp_path, capsys):
    assert main(["run", "--reps", "0", "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["attack", "--trials", "50", "--out", str(tmp_path)]) == 1
    assert main(["run", "--config", "/nope.ini"]) == 1
    assert main(["warp"]) == 1  # argparse usage errors map to exit 1


@pytest.mark.parametrize("flags, message", [
    (["--ext-low", "5", "--ext-high", "2"], "bad extension interval"),
    (["--qudg-factor", "2"], "qudg_factor must be in [0, 1]"),
    (["--variant", "extrout_duplicates", "--count", "0"],
     "extrout_duplicates needs count >= 1"),
    (["--threshold", "1"], "unrecognized arguments: --threshold 1"),
    (["--cover", "off"], "unrecognized arguments: --cover off"),
    (["--source", "-5", "--dest", "-3"],
     "bad value for --source: must be >= 0, got -5"),
    (["--source-ext", "-7", "--dest-ext", "-3"],
     "bad value for --source-ext: must be >= -1, got -7"),
    (["--pairs-per-target", "-2"],
     "bad value for --pairs-per-target: must be >= 1, got -2"),
    (["--attack-trials", "-1"],
     "bad value for --attack-trials: must be >= 0, got -1"),
    (["--hop-targets", "0,-2"],
     "bad value for --hop-targets: must all be >= 1, got 0,-2"),
    (["--target-hops", "0"], "bad value for --target-hops: must be >= 1, got 0"),
    (["--frontier-hops", "-1"],
     "bad value for --frontier-hops: must be >= 1, got -1"),
    (["--source-rate", "2"], "unrecognized arguments: --source-rate 2"),
    (["--budget", "0"], "packet_budget must be at least 1"),
    # links need d < R, so no two nodes of the grid are linked
    (["--tx-range", "50", "--source", "1", "--dest", "2"],
     "no path from 1 to 2"),
    (["--tx-range", "nan"], "tx_range must be positive and finite, got nan"),
    (["--spacing", "nan"], "spacing must be positive and finite, got nan"),
    # an infinite range would link every pair of nodes
    (["--tx-range", "inf"], "tx_range must be positive and finite, got inf"),
], ids=["ext-interval", "qudg-factor", "count", "threshold", "cover",
        "negative-endpoints", "negative-extensions", "pairs-per-target",
        "attack-trials", "hop-targets", "target-hops", "frontier-hops",
        "source-rate", "budget", "unreachable-endpoints", "nan-range",
        "nan-spacing", "inf-range"])
def test_main_exit_1_on_invalid_input(tmp_path, capsys, flags, message):
    # flags come last, so they override the defaults set before them
    args = ["attack", *_dense_flags(5, 5), "--target-hops", "3",
            "--trials", "100", "--budget", "5", *flags, "--out", str(tmp_path)]
    assert main(args) == 1
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[attack]\ncover = auto\n", "unknown key [attack] cover"),
    ("[attack]\nthreshold = 0\n", "unknown key [attack] threshold"),
    ("[scenario]\nresidual_rate = 1\n", "unknown key [scenario] residual_rate"),
    # configparser would apply [DEFAULT] keys silently, or copy them into
    # every other section and blame that one
    ("[DEFAULT]\nseed = 3\n", "unknown key [DEFAULT] seed"),
    ("[DEFAULT]\nseed = 3\n[topology]\nrows = 5\n",
     "unknown key [DEFAULT] seed"),
    # "%" is read literally, not as configparser interpolation
    ("[run]\nseed = 3%\n", "bad value for seed"),
    # a UTF-16 byte order mark, written as bytes
    (b"\xff\xfe[run]\nseed = 3\n", "not UTF-8 (invalid start byte)"),
], ids=["cover", "threshold", "residual-rate", "default",
        "default-beside-topology", "percent", "not-utf-8"])
def test_main_exit_1_on_removed_ini_key(tmp_path, capsys, text, message):
    ini = tmp_path / "exp.ini"
    if isinstance(text, bytes):
        ini.write_bytes(text)
    else:
        ini.write_text(text, encoding="utf-8")
    assert main(["attack", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {ini}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ini_values_are_read_literally(tmp_path):
    out = tmp_path / "res%1"
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[run]\nout = {out}\n", encoding="utf-8")
    assert main(["topology", "--config", str(ini), "--rows", "3", "--cols", "3"]) == 0
    assert (out / "topology.txt").is_file()


# One bad value per key whose parser bounds it; SCHEMA order.
_BOUNDED_CASES = [
    ("scenario", "source", "-1", "must be >= 0, got -1"),
    ("scenario", "dest", "-1", "must be >= 0, got -1"),
    ("scenario", "target_hops", "0", "must be >= 1, got 0"),
    ("scenario", "source_ext", "-2", "must be >= -1, got -2"),
    ("scenario", "dest_ext", "-2", "must be >= -1, got -2"),
    ("run", "reps", "0", "must be >= 1, got 0"),
    ("run", "attack_trials", "-1", "must be >= 0, got -1"),
    ("run", "reference", "nope", "got 'nope'"),
    ("sweep", "hop_targets", " , ", "must be nonempty"),
    ("sweep", "pairs_per_target", "0", "must be >= 1, got 0"),
    ("sweep", "frontier_hops", "0", "must be >= 1, got 0"),
    ("sweep", "duplicate_counts", "2,0", "must all be >= 1, got 2,0"),
    ("sweep", "fake_counts", "-1", "must all be >= 1, got -1"),
    ("sweep", "nfake_counts", "0", "must all be >= 1, got 0"),
    ("attack", "trials", "99", "must be >= 100, got 99"),
]


@pytest.mark.parametrize("source", ["ini", "flag"])
@pytest.mark.parametrize("section, key, value, message",
                         [pytest.param(*case, id=case[1])
                          for case in _BOUNDED_CASES])
def test_bounded_key_exits_1_naming_where_the_value_came_from(
        tmp_path, monkeypatch, capsys, source, section, key, value, message):
    import extrout.expcli as expcli

    def refuse(params):
        raise AssertionError("topology generated before input checks")

    monkeypatch.setattr(expcli, "generate", refuse)
    flag = f"--{key.replace('_', '-')}"
    if source == "ini":
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        args, where = ["--config", str(ini)], f"{ini}: bad value for {key}"
    else:
        args, where = [flag, value], f"bad value for {flag}"
    out = tmp_path / "out"
    assert main(["attack", *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {where}: " in err
    assert message in err
    assert not out.exists()


def test_unknown_reference_fails_before_any_scenario(tmp_path, monkeypatch,
                                                      capsys):
    import extrout.expcli as expcli

    calls = []

    def counting(*args):
        calls.append(args)
        return build_scenario(*args)

    monkeypatch.setattr(expcli, "build_scenario", counting)
    args = ["run", "--topology-file", _line_file(tmp_path),
            "--source", "5", "--dest", "13", "--reps", "2", "--budget", "10"]
    assert main([*args, "--out", str(tmp_path / "good")]) == 0
    assert len(calls) == 2  # the counter sees every repetition
    calls.clear()
    out = tmp_path / "out"
    assert main([*args, "--reference", "nope", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: bad value for --reference: must be empty or one of" in err
    assert "got 'nope'" in err
    assert calls == []
    assert not out.exists()


def test_run_on_ids_off_the_grid_fails_before_any_plan(tmp_path, monkeypatch,
                                                        capsys):
    import extrout.expcli as expcli

    calls = []

    def counting(*args):
        calls.append(args)
        return build_scenario(*args)

    monkeypatch.setattr(expcli, "build_scenario", counting)
    out = tmp_path / "out"
    assert main(["run", "--topology-file", _free_id_file(tmp_path),
                 "--source", "5", "--dest", "7", "--reps", "3",
                 "--budget", "5", "--out", str(out)]) == 1
    assert "config error: matrix view unavailable" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["attack", "topology"])
@pytest.mark.parametrize("flags, message", [
    (["--variant", "bogus"], "unknown variant 'bogus'"),
    (["--variant", "extrout_duplicates", "--count", "0"],
     "extrout_duplicates needs count >= 1"),
    # residual cover is gone, and its flag with it
    (["--residual-rate", "1"], "unrecognized arguments: --residual-rate 1"),
    (["--ext-low", "6", "--ext-high", "2"], "bad extension interval [6, 2]"),
], ids=["variant", "count", "residual-rate", "ext-interval"])
def test_bad_scenario_input_fails_before_any_topology_work(
        tmp_path, monkeypatch, capsys, command, flags, message):
    import extrout.expcli as expcli

    def refuse(params):
        raise AssertionError("topology generated before input checks")

    monkeypatch.setattr(expcli, "generate", refuse)
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--duplicate-counts", "1,0"],
     "bad value for --duplicate-counts: must all be >= 1, got 1,0"),
    (["--fake-counts", "0"], "bad value for --fake-counts: must all be >= 1, got 0"),
    (["--nfake-counts", "1,-3"],
     "bad value for --nfake-counts: must all be >= 1, got 1,-3"),
    (["--hop-targets", ""], "bad value for --hop-targets: must be nonempty"),
    # a 6x6 grid has no pair 9 hops apart; the hop rows must not run first
    (["--frontier-hops", "9"], "no node pair at 9 hops"),
], ids=["duplicate-counts", "fake-counts", "nfake-counts", "hop-targets",
        "frontier-hops"])
def test_sweep_rejects_bad_counts_before_writing(tmp_path, capsys, flags,
                                                 message):
    out = tmp_path / "out"
    assert main([*_small_sweep(out), *flags]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("3 150.0 0.95\n", "malformed header"),
    # ids 0 and 1 do not cover the 1x2 grid, so no matrix view exists
    ("2 150.0 0.95 0.0 100.0 0\n0 0.0 0.0\n1 100.0 0.0\n0 1\n",
     "matrix view unavailable"),
    # four node lines for three nodes: the first position of node 1 is lost
    ("3 150.0 0.95 0.0 100.0 0\n1 0.0 0.0\n1 50.0 0.0\n2 100.0 0.0\n"
     "3 200.0 0.0\n1 2\n2 3\n", "node 1 listed twice"),
    ("2 nan 0.95 0.0 100.0 0\n1 0.0 0.0\n2 100.0 0.0\n1 2\n",
     "tx_range must be positive and finite, got nan"),
    ("-1 150.0 0.95 0.0 100.0 0\n", "header node count must be at least 1, got -1"),
    ("0 150.0 0.95 0.0 100.0 0\n", "header node count must be at least 1, got 0"),
    ("2.5 150.0 0.95 0.0 100.0 0\n",
     "line 1: node count must be an integer, got '2.5'"),
    # comment and blank lines count towards the line number
    ("2 150.0 0.95 0.0 100.0 0\n# nodes\n\n1 0.0 x\n",
     "line 4: y must be a number, got 'x'"),
    ("2 150.0 0.95 0.0 100.0 0\n1 0.0 0.0\n2 100.0 0.0\n1 2.0\n",
     "line 4: link end must be an integer, got '2.0'"),
    # a UTF-16 byte order mark, written as bytes: the message names the file
    (b"\xff\xfe2 150.0 0.95 0.0 100.0 0\n", "{path}: not UTF-8 (invalid start byte)"),
    *[(f"2 150.0 0.95 0.0 100.0 0\n1 0.0 0.0\n2 {x} {y}\n1 2\n",
       f"line 3: {field} must be a finite number, got '{raw}'")
      for raw in ("nan", "inf", "-inf")
      for field, x, y in (("x", raw, "0.0"), ("y", "100.0", raw))],
], ids=["header", "ids", "repeated-id", "nan-range", "negative-count",
        "zero-count", "fractional-count", "bad-coordinate", "bad-link-end",
        "not-utf-8", "nan-x", "nan-y", "inf-x", "inf-y", "-inf-x", "-inf-y"])
def test_main_exit_1_on_malformed_topology_file(tmp_path, capsys, text,
                                                message):
    path = tmp_path / "broken.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    assert main(["run", "--topology-file", str(path), "--target-hops", "1",
                 "--reps", "1", "--budget", "5",
                 "--out", str(tmp_path / "out")]) == 1
    assert "config error: " + message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_program_errors_are_not_config_errors(tmp_path, monkeypatch):
    import extrout.expcli as expcli

    def broken_run(plan):
        raise ValueError("simulated program bug")

    monkeypatch.setattr(expcli, "run", broken_run)
    args = ["run", "--topology-file", _line_file(tmp_path),
            "--source", "5", "--dest", "13", "--reps", "1", "--budget", "10",
            "--out", str(tmp_path / "out")]
    with pytest.raises(ValueError, match="simulated program bug"):
        main(args)

    # the endpoints were checked, so a lost path is a bug too
    def broken_build(*args):
        raise UnreachableError("simulated lost path")

    monkeypatch.setattr(expcli, "build_scenario", broken_build)
    with pytest.raises(UnreachableError, match="simulated lost path"):
        main(args)


def test_main_exit_2_on_reconciliation_failure(tmp_path, monkeypatch):
    import extrout.expcli as expcli

    def forced_failure(report, reference=None):
        return ReconciliationRecord(("forced",), (), ())

    monkeypatch.setattr(expcli, "reconcile", forced_failure)
    rc = main(["run", "--topology-file", _line_file(tmp_path),
               "--source", "5", "--dest", "13",
               "--source-ext", "3", "--dest-ext", "4",
               "--reps", "1", "--budget", "10",
               "--out", str(tmp_path / "out")])
    assert rc == 2


def _one_transmission_more(plan):
    """run, plus one transmission that no plan makes, so every report of
    the trace fails its TOF check."""
    trace = run(plan)
    sender = next(iter(trace.node_tx))
    trace.node_tx[sender] += 1
    return trace


def _failing_rows(err: str) -> list[str]:
    return [line.split(": tof_measured: got ", 1)[0]
            for line in err.splitlines()]


@pytest.mark.parametrize("ext", ["0", "1"])
def test_sweep_exits_2_naming_each_report_that_fails_reconciliation(
        tmp_path, monkeypatch, capsys, ext):
    # at extension 0 every cover chain is its bare route
    import extrout.expcli as expcli

    monkeypatch.setattr(expcli, "run", _one_transmission_more)
    out = tmp_path / "out"
    rc = main(["sweep", *_dense_flags(8, 8), "--hop-targets", "3",
               "--pairs-per-target", "1", "--frontier-hops", "3",
               "--source-ext", ext, "--dest-ext", ext,
               "--duplicate-counts", "1", "--fake-counts", "1",
               "--nfake-counts", "1", "--reps", "1", "--budget", "10",
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"wrote {out / 'anonymity_vs_L.csv'}",
        f"wrote {out / 'anonymity_vs_tof.csv'}"]
    assert _failing_rows(captured.err) == [
        "reconciliation failure: hops 3 pair 0",
        "reconciliation failure: no_privacy 0 rep 0",
        "reconciliation failure: extrout_baseline 0 rep 0",
        "reconciliation failure: extrout_duplicates 1 rep 0",
        "reconciliation failure: extrout_fake 1 rep 0",
        "reconciliation failure: nfake_pairs 1 rep 0"]


def test_run_names_each_failing_rep_once(tmp_path, monkeypatch, capsys):
    # rep 0's report is also the headline, reconciled against the attack
    # and the reference; its failure is still listed once, as rep 0's
    import extrout.expcli as expcli

    monkeypatch.setattr(expcli, "run", _one_transmission_more)
    rc = main(["run", *_dense_flags(8, 8), "--seed", "3", "--target-hops", "3",
               "--reps", "2", "--budget", "10", "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "reconciliation pass" not in captured.out
    assert _failing_rows(captured.err) == ["reconciliation failure: rep 0",
                                           "reconciliation failure: rep 1"]


# ------------------------------------------------------------- subcommands

def test_pair_sampling_draws_the_bfs_pair_without_whole_topology_searches():
    topo = generate(TopologyParams(30, 30, perturbation=0.0, tx_range=150.0,
                                   qudg_factor=0.95, seed=1))
    graph = adjacency(topo)
    topo.neighbor_indices = counted = CountingNeighbours(topo.neighbor_indices)
    draws = 0
    for seed in range(1, 9):
        rng = substream(seed, "pairs")
        got = _sample_pair(topo, 20, rng)
        # the same draws, each checked by a BFS from its source
        rng = substream(seed, "pairs")
        while True:
            source = topo.nodes[rng.randrange(topo.node_count)]
            dest = topo.nodes[rng.randrange(topo.node_count)]
            draws += 1
            if (source != dest and bfs_levels(graph, source).get(dest)
                    == 20):
                break
        assert got == (source, dest)
    # four landmark BFS, then a few expansions a draw, where a BFS from
    # each drawn source would expand every node
    assert draws > 100
    assert counted.reads - 4 * topo.node_count < draws * topo.node_count / 20
    # the landmarks' tables are the only ones kept
    assert len(topo.memo[_hop_table]) == LANDMARKS


def test_topology_command_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["topology", *_dense_flags(5, 5), "--seed", "3",
            "--out", str(out)]
    assert main(args) == 0
    captured = capsys.readouterr().out
    assert "nodes=25" in captured
    assert "average_degree=8.000" in captured
    path = out / "topology.txt"
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# command=topology\n")
    assert "# run.seed=3" in text
    assert "# topology.rows=5" in text
    topo = load_topology(path)
    assert topo.node_count == 25

    # rerunning the identical command reproduces the file byte for byte
    first = path.read_bytes()
    assert main(args) == 0
    assert path.read_bytes() == first


def test_topology_command_reads_a_file_with_any_ids(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["topology", "--topology-file", _free_id_file(tmp_path),
                 "--out", str(out)]) == 0
    assert "nodes=3 links=2 average_degree=1.333" in capsys.readouterr().out
    assert load_topology(out / "topology.txt").nodes == (5, 6, 7)


def test_topology_command_counts_each_link_once(tmp_path, capsys):
    # the chain 5-6-7 again, with 5-6 listed three times and 6-7 as 7 6
    path = tmp_path / "listed.txt"
    path.write_text("3 150.0 0.95 0.0 100.0 0\n5 0.0 0.0\n6 100.0 0.0\n"
                    "7 200.0 0.0\n5 6\n7 6\n6 5\n5 6\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["topology", "--topology-file", str(path), "--out", str(out)]) == 0
    assert "nodes=3 links=2 average_degree=1.333" in capsys.readouterr().out
    text = (out / "topology.txt").read_text(encoding="utf-8")
    assert text.endswith("\n7 200.0 0.0\n5 6\n6 7\n")


def test_run_command_outputs_and_reconciliation(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--topology-file", _line_file(tmp_path),
               "--source", "5", "--dest", "13",
               "--source-ext", "3", "--dest-ext", "4",
               "--reps", "2", "--budget", "40",
               "--reference", "baseline_3_8_4",
               "--out", str(out)])
    assert rc == 0
    assert "reconciliation pass" in capsys.readouterr().out

    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "variant            extrout_baseline" in report
    assert "anonymity single   0.933333" in report
    assert "tof analytical     1.875000" in report
    assert "tof measured       1.875000" in report
    assert "reconciliation     pass" in report
    assert "repetitions        2" in report
    assert "tof measured mean  1.875000" in report
    assert "unlinkability mean 1.000000" in report

    csv = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    body = [ln for ln in csv if not ln.startswith("#")]
    assert body[0].startswith("variant,real_hops,")
    assert len(body) == 3  # header plus one row per repetition

    matrix = matrix_from_csv((out / "matrix.csv").read_text(encoding="utf-8"))
    assert len(matrix) == 1 and len(matrix[0]) == 20
    # chain nodes 2..16 each transmit once per interval in every rep
    assert matrix[0][1:16] == [40.0] * 15
    assert matrix[0][0] == 0.0 and matrix[0][16:] == [0.0] * 4

    heat = (out / "heatmap.txt").read_text(encoding="utf-8")
    lines = [ln for ln in heat.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == " " + "@" * 15 + "    "


def test_run_keeps_a_reference_entrys_notes_and_flags(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--topology-file", _line_file(tmp_path),
                 "--source", "5", "--dest", "13",
                 "--source-ext", "3", "--dest-ext", "4",
                 "--reps", "1", "--budget", "10",
                 "--reference", "five_path_total_80",
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    (note,) = REFERENCES["five_path_total_80"].notes
    assert "reconciliation     pass" in report
    assert f"  note: {note}" in report
    assert [line for line in report if line.startswith("  flag: ")] == [
        "  flag: anonymity reference 0.987 differs from computed 0.933333",
        "  flag: tof reference 10.0 differs from computed 1.875000",
    ]


def _assert_run_matrix_is_the_mean(tmp_path, kind, count):
    rows, cols, seed, budget = 6, 6, 4, 7
    out = tmp_path / "out"
    assert main(["run", *_dense_flags(rows, cols), "--seed", str(seed),
                 "--variant", kind, "--count", str(count),
                 "--source", "8", "--dest", "29",
                 "--reps", "3", "--budget", str(budget),
                 "--out", str(out)]) == 0

    topo = generate(TopologyParams(rows, cols, perturbation=0.0,
                                   tx_range=150.0, qudg_factor=0.95,
                                   seed=seed))
    variant = ProtocolVariant(kind, count)
    settings = ScenarioSettings(packet_budget=budget)
    counts = [run(build_scenario(topo, 8, 29, variant, settings,
                                 substream(seed, f"rep-{rep}"))).node_tx
              for rep in range(3)]
    expected = [[sum(c.get(r * cols + col + 1, 0) for c in counts) / 3
                 for col in range(cols)] for r in range(rows)]
    assert any(c != counts[0] for c in counts)  # the reps differ
    matrix = matrix_from_csv((out / "matrix.csv").read_text(encoding="utf-8"))
    assert matrix == expected


def test_run_matrix_is_the_mean_of_the_repetitions(tmp_path):
    # Each rep draws the baseline's extensions anew.
    _assert_run_matrix_is_the_mean(tmp_path, "extrout_baseline", 0)


def test_run_matrix_is_the_mean_of_traces_holding_only_transmitters(tmp_path):
    # A node that sent nothing is missing from its trace.
    _assert_run_matrix_is_the_mean(tmp_path, "extrout_duplicates", 1)


@pytest.mark.parametrize("reps", [1, 4])
def test_run_builds_one_matrix_per_command(tmp_path, monkeypatch, reps):
    import extrout.expcli as expcli

    calls = []
    reshape = expcli.transmission_matrix

    def counting(*args):
        calls.append(args)
        return reshape(*args)

    monkeypatch.setattr(expcli, "transmission_matrix", counting)
    assert main(["run", "--topology-file", _line_file(tmp_path),
                 "--source", "5", "--dest", "13", "--reps", str(reps),
                 "--budget", "10", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_run_command_with_attack_reports_empirical(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--topology-file", _line_file(tmp_path),
               "--source", "5", "--dest", "13",
               "--variant", "no_privacy",
               "--reps", "1", "--budget", "10",
               "--attack-trials", "150",
               "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    # the attacker always wins against an uncovered single chain
    assert "anonymity attacked 0.000000" in report


def test_run_csv_holds_the_attack_in_rep_0s_row(tmp_path):
    out = tmp_path / "out"
    assert main(["run", *_dense_flags(8, 8), "--seed", "3",
                 "--variant", "extrout_fake", "--count", "1",
                 "--source", "10", "--dest", "37", "--reps", "3",
                 "--budget", "25", "--attack-trials", "100",
                 "--out", str(out)]) == 0
    topo = generate(TopologyParams(8, 8, perturbation=0.0, tx_range=150.0,
                                   qudg_factor=0.95, seed=3))
    summary = attack_trials(
        partial(build_scenario, topo, 10, 37, ProtocolVariant("extrout_fake", 1),
                ScenarioSettings(packet_budget=25)),
        100, seed=child_seed(3, "attack"))
    text = (out / "report.csv").read_text(encoding="utf-8")
    header, *rows = [line.split(",") for line in text.splitlines()
                     if not line.startswith("#")]
    columns = [header.index(name)
               for name in ("anonymity_empirical", "ci_low", "ci_high")]
    expected = (summary.empirical_anonymity, *summary.empirical_anonymity_ci())
    assert [rows[0][k] for k in columns] == [str(value) for value in expected]
    # the attack is run once, for the headline that rep 0's row carries
    assert [[row[k] for k in columns] for row in rows[1:]] == [["", "", ""]] * 2


def test_run_passes_when_every_attack_trial_succeeds(tmp_path):
    # at 100 trials the interval's end must be 0.0 exactly, not 1.1e-16,
    # for the analytical 0.0 of an uncovered chain to fall inside it
    out = tmp_path / "out"
    assert main(["run", *_dense_flags(8, 8), "--target-hops", "5",
                 "--variant", "no_privacy", "--reps", "1",
                 "--attack-trials", "100", "--out", str(out)]) == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "(95% CI [0.000000, 0.036995])" in report
    assert "reconciliation     pass" in report


def _small_run(out) -> list[str]:
    return ["run", *_dense_flags(6, 6), "--target-hops", "4",
            "--reps", "3", "--budget", "25", "--out", str(out)]


def _small_sweep(out) -> list[str]:
    return ["sweep", *_dense_flags(6, 6), "--hop-targets", "3,4",
            "--pairs-per-target", "2", "--frontier-hops", "4",
            "--duplicate-counts", "1", "--fake-counts", "1",
            "--nfake-counts", "1", "--reps", "2", "--budget", "20",
            "--out", str(out)]


def test_duplicate_shortfalls_print_no_line_per_plan(tmp_path):
    # a line has no second path, so every plan falls short; the plans
    # record it, and a fresh interpreter must not log it on stderr
    plan = build_scenario(line_topology(20), 5, 13,
                          ProtocolVariant("extrout_duplicates", 2),
                          rng=substream(1, "rep-0"))
    assert plan.duplicate_shortfall == 2
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "extrout", "run",
         "--topology-file", _line_file(tmp_path), "--source", "5",
         "--dest", "13", "--variant", "extrout_duplicates", "--count", "2",
         "--reps", "4", "--budget", "10", "--out", str(out)],
        capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_run_is_byte_reproducible(tmp_path):
    out = tmp_path / "out"
    run_args = ["run", "--topology-file", _line_file(tmp_path),
                "--source", "5", "--dest", "13",
                "--reps", "2", "--budget", "25",
                "--out", str(out)]
    cases = [
        (run_args, ("matrix.csv", "heatmap.txt", "report.txt", "report.csv")),
        (_small_sweep(out), ("anonymity_vs_L.csv", "anonymity_vs_tof.csv")),
    ]
    for args, names in cases:
        assert main(args) == 0
        first = {name: (out / name).read_bytes() for name in names}
        assert main(args) == 0
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload


@pytest.mark.parametrize("command", [_small_run, _small_sweep],
                         ids=["run", "sweep"])
def test_commands_start_no_thread(tmp_path, monkeypatch, command):
    def refuse(thread):
        raise AssertionError(f"thread started: {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(command(tmp_path / "out")) == 0


# Each command's small run on the golden dense grid, and for every key but
# `out` (a path) a command and a non-default value that must change at
# least one of that command's output files.
_BASES = {
    "topology": ["topology"],
    "run": ["run", "--target-hops", "2", "--reps", "2", "--budget", "25"],
    "attack": ["attack", "--variant", "extrout_duplicates", "--count", "1",
               "--source", "10", "--dest", "37", "--trials", "100",
               "--budget", "5"],
    "sweep": ["sweep", "--hop-targets", "3,4", "--pairs-per-target", "2",
              "--frontier-hops", "4", "--duplicate-counts", "1",
              "--fake-counts", "1", "--nfake-counts", "1", "--reps", "2",
              "--budget", "20"],
}
_KEY_CASES = {
    "rows": ("topology", "7"),
    "cols": ("topology", "7"),
    "spacing": ("topology", "90"),
    "perturbation": ("topology", "0.1"),
    "tx_range": ("topology", "120"),
    "qudg_factor": ("topology", "0.5"),
    "topology_file": ("topology", str(HERE / "data" / "golden_2x2.txt")),
    "seed": ("run", "4"),
    "variant": ("run", "no_privacy"),
    "target_hops": ("run", "5"),
    "source_ext": ("run", "1"),
    "dest_ext": ("run", "1"),
    "ext_low": ("run", "0"),
    "ext_high": ("run", "2"),
    "strict": ("run", "false"),
    "reps": ("run", "3"),
    "budget": ("run", "30"),
    "attack_trials": ("run", "100"),
    "reference": ("run", "baseline_3_8_4"),
    "count": ("attack", "2"),
    "source": ("attack", "11"),
    "dest": ("attack", "38"),
    "trials": ("attack", "101"),
    "hop_targets": ("sweep", "3,5"),
    "pairs_per_target": ("sweep", "3"),
    "frontier_hops": ("sweep", "5"),
    "duplicate_counts": ("sweep", "2"),
    "fake_counts": ("sweep", "2"),
    "nfake_counts": ("sweep", "3"),
}


def _output_digests(args: list[str], out) -> dict[str, str]:
    assert main([*args, "--out", str(out)]) == 0
    return {path.name: _digest(path.read_bytes())
            for path in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    return {name: _output_digests([*args, *GRID],
                                  tmp_path_factory.mktemp(name))
            for name, args in _BASES.items()}


@pytest.mark.parametrize("key, parse, default",
                         [pytest.param(key, parse, default, id=key)
                          for _, key, parse, default in SCHEMA
                          if key != "out"])
def test_every_key_reaches_an_output(tmp_path, base_outputs, key, parse,
                                     default):
    command, value = _KEY_CASES[key]
    assert parse(value) != default
    flag = f"--{key.replace('_', '-')}"
    got = _output_digests([*_BASES[command], *GRID, flag, value], tmp_path)
    assert got.keys() == base_outputs[command].keys()
    assert got != base_outputs[command]


def test_sweep_curves_are_exact_on_a_dense_grid(tmp_path):
    out = tmp_path / "out"
    rc = main(["sweep", *_dense_flags(12, 12),
               "--hop-targets", "3,4,5,9",
               "--pairs-per-target", "4",
               "--source-ext", "2", "--dest-ext", "2",
               "--frontier-hops", "4",
               "--duplicate-counts", "1",
               "--fake-counts", "1",
               "--nfake-counts", "1,3",
               "--reps", "2", "--budget", "20",
               "--out", str(out)])
    assert rc == 0

    vs_l = (out / "anonymity_vs_L.csv").read_text(encoding="utf-8")
    body = [ln for ln in vs_l.splitlines() if not ln.startswith("#")]
    assert body[0] == ("hops,pairs_used,anonymity_single,anonymity_pair,"
                       "tof_analytical,tof_measured,note")
    for line in body[1:]:
        cells = line.split(",")
        hops, used = int(cells[0]), int(cells[1])
        if hops == 9:
            # pinned 2+2 extension cannot fit: 13-hop span beats the grid
            assert used == 0 and cells[6].startswith("skipped=")
            continue
        assert used > 0
        group = hops + 4
        assert cells[2] == repr(1 - 1 / group)
        assert cells[3] == repr(1 - 1 / group ** 2)
        assert cells[4] == repr(group / hops)
        assert cells[5] == repr(group / hops)

    frontier = (out / "anonymity_vs_tof.csv").read_text(encoding="utf-8")
    rows = [ln.split(",") for ln in frontier.splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0][0] == "technique"
    techniques = [r[0] for r in rows[1:]]
    assert techniques[:2] == ["no_privacy", "extrout_baseline"]
    assert "nfake_pairs" in techniques
    by_kind = {(r[0], r[1]): r for r in rows[1:]}
    assert by_kind[("no_privacy", "0")][2] == "0.0"
    assert by_kind[("no_privacy", "0")][4] == "1.0"
    assert float(by_kind[("nfake_pairs", "3")][2]) == 0.75


def test_attack_command_on_exposed_chain(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["attack", "--topology-file", _line_file(tmp_path),
               "--source", "5", "--dest", "13",
               "--variant", "no_privacy",
               "--trials", "120", "--budget", "10",
               "--out", str(out)])
    assert rc == 0
    assert "source success 1.000000, analytical 1.000000" in \
        capsys.readouterr().out
    attack_txt = (out / "attack.txt").read_text(encoding="utf-8")
    assert "trials             120" in attack_txt
    assert "guessed on path    1.000000" in attack_txt
    csv_lines = [ln for ln in
                 (out / "attack.csv").read_text(encoding="utf-8").splitlines()
                 if not ln.startswith("#")]
    assert csv_lines[0].startswith("trial,source_guess,")
    assert len(csv_lines) == 121


def test_attack_builds_one_plan_per_trial(tmp_path, monkeypatch):
    import extrout.expcli as expcli

    calls = []

    def counting(*args):
        calls.append(args)
        return build_scenario(*args)

    monkeypatch.setattr(expcli, "build_scenario", counting)
    assert main(["attack", "--topology-file", _line_file(tmp_path),
                 "--source", "5", "--dest", "13", "--trials", "100",
                 "--budget", "10", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 100


def test_attack_walks_its_real_route_once(tmp_path, monkeypatch):
    walks = _counting_walks(monkeypatch)
    assert main(["attack", "--topology-file", _line_file(tmp_path),
                 "--source", "5", "--dest", "13", "--trials", "100",
                 "--budget", "10", "--out", str(tmp_path / "out")]) == 0
    assert walks.count((5, 13)) == 1


def _renumbered_grid_files(tmp_path) -> tuple[str, str, dict[int, int]]:
    """The dense 8x8 grid as a file, the same grid with node n renamed
    7n + 100 (a map that keeps the ids' order) as another, and the map."""
    grid = generate(TopologyParams(8, 8, perturbation=0.0, tx_range=150.0,
                                   qudg_factor=0.95, seed=3))
    rename = {n: 7 * n + 100 for n in grid.nodes}
    renamed = Topology(grid.params,
                       {rename[n]: pos for n, pos in grid.positions.items()},
                       frozenset((rename[i], rename[j]) for i, j in link_pairs(grid)))
    paths = []
    for name, topo in (("plain.txt", grid), ("renamed.txt", renamed)):
        path = tmp_path / name
        path.write_text(topology_to_text(topo), encoding="utf-8")
        paths.append(str(path))
    return paths[0], paths[1], rename


def _body(path: Path) -> list[str]:
    """An output's lines below its provenance block."""
    return [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")]


@pytest.mark.parametrize("endpoints", ["explicit", "sampled"])
@pytest.mark.parametrize("kind, count", [
    ("extrout_duplicates", 2), ("extrout_fake", 1), ("nfake_pairs", 2),
    ("extrout_baseline", 1)])
def test_attack_on_renumbered_ids_renames_only_the_guesses(tmp_path, kind,
                                                           count, endpoints):
    plain, renamed, rename = _renumbered_grid_files(tmp_path)
    outs = []
    for path, source, dest in ((plain, 19, 46),
                               (renamed, rename[19], rename[46])):
        picks = (["--source", str(source), "--dest", str(dest)]
                 if endpoints == "explicit" else ["--target-hops", "4"])
        out = tmp_path / Path(path).stem
        assert main(["attack", "--topology-file", path, *picks,
                     "--variant", kind, "--count", str(count),
                     "--trials", "100", "--budget", "5",
                     "--out", str(out)]) == 0
        outs.append(out)
    header, *rows = _body(outs[0] / "attack.csv")
    expected = [header]
    for row in rows:
        trial, source, dest, *correct = row.split(",")
        expected.append(",".join([trial, str(rename[int(source)]),
                                  str(rename[int(dest)]), *correct]))
    assert _body(outs[1] / "attack.csv") == expected
    assert _body(outs[1] / "attack.txt") == _body(outs[0] / "attack.txt")


def test_sweep_on_renumbered_ids_writes_the_same_curves(tmp_path):
    plain, renamed, _ = _renumbered_grid_files(tmp_path)
    outs = []
    for path in (plain, renamed):
        out = tmp_path / Path(path).stem
        assert main(["sweep", "--topology-file", path,
                     "--variant", "extrout_fake", "--ext-low", "1",
                     "--ext-high", "2", "--hop-targets", "2,4",
                     "--pairs-per-target", "3", "--frontier-hops", "4",
                     "--duplicate-counts", "1,2", "--fake-counts", "1",
                     "--nfake-counts", "1,2", "--reps", "2",
                     "--budget", "5", "--out", str(out)]) == 0
        outs.append(out)
    curves = _body(outs[0] / "anonymity_vs_L.csv")
    assert curves[-1].startswith("4,1,")  # a row with a plan in it
    for name in ("anonymity_vs_L.csv", "anonymity_vs_tof.csv"):
        assert _body(outs[1] / name) == _body(outs[0] / name)


def test_report_command_reconciles_references(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["report", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "baseline_3_8_4: pass" in captured
    assert "fake_extended_17: pass (2 flag(s))" in captured
    text = (out / "reference_report.txt").read_text(encoding="utf-8")
    assert "[five_path_total_80]" in text
    assert "flag:" in text


def test_help_lists_every_command_once_with_its_help_line(capsys,
                                                          monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "usage: extrout COMMAND [--config CONFIG] [--FLAG VALUE ...]\n")
    assert out.count("\ncommands:\n") == 1
    assert out.split("\ncommands:\n")[1].splitlines() == [
        "  topology  generate a network and report degree statistics",
        "  run       simulate one scenario and write matrix/report files",
        "  sweep     produce anonymity and overhead curve CSVs",
        "  attack    run empirical adversary trials",
        "  report    reconcile the reference result table",
    ]


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "extrout", "topology", *_dense_flags(3, 3),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 0
    assert "nodes=9" in result.stdout
