"""Command-line experiment harness.

Subcommands: `topology` (generate and inspect a network), `run` (simulate
one scenario with repetitions, write matrix/heatmap/report files),
`sweep` (anonymity and overhead curves over path lengths and technique
parameters), `attack` (empirical adversary trials), `report` (recompute
the reference result table and reconcile it).

Configuration is an INI file; every key can also be set on the command
line as a flag of the same name.  All output files start with a
provenance comment block holding the resolved configuration and seed, so
a run can be reproduced byte for byte from any of its outputs.  Exit
codes: 0 success, 1 configuration error, 2 reconciliation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

from .adversary import (
    attack_trials,
    observe,
    unlinkability_score,
    verdicts_to_csv,
    wilson_interval,
)
from .metrics import (
    REFERENCES,
    reconcile,
    reference_reconciliations,
    report_from_run,
    report_to_text,
    reports_to_csv,
)
from .protocols import (
    PARAMETERISED_KINDS,
    PlacementError,
    ProtocolVariant,
    ScenarioSettings,
    build_scenario,
)
from .rng import child_seed, substream
from .routing import at_hop_distance, hop_distances
from .simengine import (
    ascii_heatmap,
    matrix_to_csv,
    mean_matrix,
    run,
    transmission_matrix,
)
from .topology import TopologyParams, average_degree, generate, load_topology, topology_to_text

__all__ = ["ConfigError", "main", "resolve_config"]


class ConfigError(Exception):
    """Configuration cannot be parsed or describes an infeasible setup."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_at_least(least: int):
    """Parser of an int that must be >= least."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be >= {least}, got {value}")
        return value
    return parse


def _parse_counts(text: str) -> tuple[int, ...]:
    values = tuple(int(piece) for piece in text.split(",") if piece.strip())
    if any(value < 1 for value in values):
        raise ValueError(f"must all be >= 1, got {_format_value(values)}")
    return values


def _parse_hop_targets(text: str) -> tuple[int, ...]:
    values = _parse_counts(text)
    if not values:
        raise ValueError("must be nonempty")
    return values


def _parse_reference(text: str) -> str:
    name = text.strip()
    if name and name not in REFERENCES:
        raise ValueError(f"must be empty or one of {sorted(REFERENCES)}, "
                         f"got {name!r}")
    return name


_TOPOLOGY = {field.name: field.default for field in fields(TopologyParams)}
_SETTINGS = {field.name: field.default for field in fields(ScenarioSettings)}

# section, key, parser, default.  Keys are globally unique so every one
# can double as a command-line flag.  The keys that read _TOPOLOGY or
# _SETTINGS take the field defaults of TopologyParams or ScenarioSettings.
# A rule on one key lives in its parser, a rule joining keys in the object
# they build (TopologyParams, ProtocolVariant, ScenarioSettings); only the
# source/dest pairing is checked in resolve_config.
SCHEMA = (
    ("topology", "rows", int, 20),
    ("topology", "cols", int, 20),
    ("topology", "spacing", float, _TOPOLOGY["spacing"]),
    ("topology", "perturbation", float, _TOPOLOGY["perturbation"]),
    ("topology", "tx_range", float, _TOPOLOGY["tx_range"]),
    ("topology", "qudg_factor", float, _TOPOLOGY["qudg_factor"]),
    ("topology", "topology_file", str.strip, ""),
    ("scenario", "variant", str.strip, "extrout_baseline"),
    ("scenario", "count", int, 1),
    ("scenario", "source", _int_at_least(0), 0),
    ("scenario", "dest", _int_at_least(0), 0),
    ("scenario", "target_hops", _int_at_least(1), 8),
    ("scenario", "source_ext", _int_at_least(-1), -1),
    ("scenario", "dest_ext", _int_at_least(-1), -1),
    ("scenario", "ext_low", int, _SETTINGS["ext_low"]),
    ("scenario", "ext_high", int, _SETTINGS["ext_high"]),
    ("scenario", "strict", _parse_bool, _SETTINGS["strict"]),
    ("run", "seed", int, 1),
    ("run", "reps", _int_at_least(1), 20),
    ("run", "budget", int, _SETTINGS["packet_budget"]),
    ("run", "out", str.strip, "out"),
    ("run", "attack_trials", _int_at_least(0), 0),
    ("run", "reference", _parse_reference, ""),
    ("sweep", "hop_targets", _parse_hop_targets, tuple(range(3, 17))),
    ("sweep", "pairs_per_target", _int_at_least(1), 20),
    ("sweep", "frontier_hops", _int_at_least(1), 12),
    ("sweep", "duplicate_counts", _parse_counts, (1, 2, 3, 4, 5)),
    ("sweep", "fake_counts", _parse_counts, (1,)),
    ("sweep", "nfake_counts", _parse_counts, (1, 3, 5, 7, 9)),
    ("attack", "trials", _int_at_least(100), 1000),
)

_SECTION_OF = {key: section for section, key, _, _ in SCHEMA}
_PARSER_OF = {key: parse for _, key, parse, _ in SCHEMA}


def resolve_config(config_path: str | None,
                   overrides: dict[str, str]) -> dict:
    """Defaults, then INI file, then command-line overrides.  Each parser
    checks its key and resolve_config checks the source/dest pairing, then
    builds the variant and the settings, so bad input exits before any
    work."""
    cfg = {key: default for _, key, _, default in SCHEMA}
    if config_path:
        import configparser  # here, so a command without --config skips loading it

        # No section can be named "", so [DEFAULT] reads as an ordinary
        # section whose keys are rejected below, not copied into every other.
        # Values are read literally: "%" has no special meaning.
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                           default_section="",
                                           interpolation=None)
        try:
            read = parser.read(config_path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # Its position is within the chunk decoded, not the file: left out.
            raise ConfigError(f"{config_path}: not UTF-8 ({exc.reason})") from exc
        if not read:
            raise ConfigError(f"config file not found: {config_path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                if _SECTION_OF.get(key) != section:
                    raise ConfigError(
                        f"{config_path}: unknown key [{section}] {key}")
                cfg[key] = _parse(key, raw, f"{config_path}: bad value for {key}")
    for key, raw in overrides.items():
        if raw is not None:
            flag = "--" + key.replace("_", "-")
            cfg[key] = _parse(key, raw, f"bad value for {flag}")
    if (cfg["source"] > 0) != (cfg["dest"] > 0):
        raise ConfigError("set both source and dest, or neither")
    _make_variant(cfg)
    _make_settings(cfg)
    return cfg


def _parse(key: str, raw: str, where: str):
    try:
        return _PARSER_OF[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return str(value)


def _write(cfg: dict, command: str, name: str, body: str) -> None:
    """Write body to the output directory under name, after the provenance
    block of command and cfg, and report the path on stdout."""
    lines = [f"# command={command}"]
    for section, key, _, _ in SCHEMA:
        lines.append(f"# {section}.{key}={_format_value(cfg[key])}")
    path = Path(cfg["out"]) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n" + body, encoding="utf-8")
    print(f"wrote {path}")


def _mean_exact(values) -> float:
    """Mean that returns the common value untouched when all are equal."""
    values = list(values)
    if not values:
        raise ValueError("no values to average")
    if all(value == values[0] for value in values):
        return values[0]
    return math.fsum(values) / len(values)


def _from_input(build, *args, **kwargs):
    """Call build on user input; its validation errors are config errors."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _topology(cfg: dict):
    if cfg["topology_file"]:
        return _from_input(load_topology, cfg["topology_file"])
    params = _from_input(
        TopologyParams,
        grid_rows=cfg["rows"],
        grid_cols=cfg["cols"],
        spacing=cfg["spacing"],
        perturbation=cfg["perturbation"],
        tx_range=cfg["tx_range"],
        qudg_factor=cfg["qudg_factor"],
        seed=cfg["seed"],
    )
    return generate(params)


def _make_variant(cfg: dict) -> ProtocolVariant:
    kind = cfg["variant"]
    return _from_input(
        ProtocolVariant,
        kind=kind,
        count=cfg["count"] if kind in PARAMETERISED_KINDS else 0,
    )


def _make_settings(cfg: dict) -> ScenarioSettings:
    return _from_input(
        ScenarioSettings,
        source_ext=None if cfg["source_ext"] < 0 else cfg["source_ext"],
        dest_ext=None if cfg["dest_ext"] < 0 else cfg["dest_ext"],
        ext_low=cfg["ext_low"],
        ext_high=cfg["ext_high"],
        strict=cfg["strict"],
        packet_budget=cfg["budget"],
    )


def _sample_pair(topo, target_hops: int, rng) -> tuple[int, int]:
    """Draw random node pairs until one sits at the target hop distance."""
    nodes = topo.nodes
    limit = 50 * len(nodes)
    for _ in range(limit):
        source = nodes[rng.randrange(len(nodes))]
        dest = nodes[rng.randrange(len(nodes))]
        if source == dest:
            continue
        if at_hop_distance(topo, source, dest, target_hops):
            return source, dest
    raise ConfigError(
        f"no node pair at {target_hops} hops found in {limit} samples; "
        "check connectivity or pick endpoints explicitly")


def _pick_endpoints(topo, cfg: dict, target_hops: int, rng) -> tuple[int, int]:
    if cfg["source"] > 0:
        source, dest = cfg["source"], cfg["dest"]
        for node in (source, dest):
            if node not in topo.node_index:
                raise ConfigError(f"node {node} not in topology")
        if source == dest:
            raise ConfigError("source and dest must differ")
        if dest not in hop_distances(topo, source):
            raise ConfigError(f"no path from {source} to {dest}")
        return source, dest
    return _sample_pair(topo, target_hops, rng)


def _scenario(cfg: dict):
    """The topology and a builder of the configured scenario's plan per rng."""
    topo = _topology(cfg)
    source, dest = _pick_endpoints(topo, cfg, cfg["target_hops"],
                                   substream(cfg["seed"], "pairs"))
    return topo, partial(build_scenario, topo, source, dest,
                         _make_variant(cfg), _make_settings(cfg))


def _reconciled(report, where: str, failures: list[str], reference=None):
    """The report's reconciliation record, after its failures, if any, are
    added to failures as one line led by where."""
    record = reconcile(report, reference)
    if not record.passed:
        failures.append(f"{where}: " + "; ".join(record.failures))
    return record


def _exit_code(failures: list[str]) -> int:
    """2 after printing each reconciliation failure to stderr; 0 if none."""
    for failure in failures:
        print(f"reconciliation failure: {failure}", file=sys.stderr)
    return 2 if failures else 0


def cmd_topology(cfg: dict) -> int:
    topo = _topology(cfg)
    degree = average_degree(topo)
    links = sum(map(len, topo.neighbor_indices)) // 2
    print(f"nodes={topo.node_count} links={links} "
          f"average_degree={degree:.3f}")
    _write(cfg, "topology", "topology.txt", topology_to_text(topo))
    return 0


def cmd_run(cfg: dict) -> int:
    topo, scenario = _scenario(cfg)
    # The grid of indices into topo.nodes, built first so that ids that are
    # not the grid's cells fail before any plan.
    at = topo.node_index
    cells = _from_input(transmission_matrix, at, topo.params)
    seed = cfg["seed"]
    reps = cfg["reps"]
    totals = [0] * topo.node_count
    reports = []
    for rep in range(reps):
        plan = scenario(substream(seed, f"rep-{rep}"))
        trace = run(plan)
        for n, c in trace.node_tx.items():
            totals[at[n]] += c
        unlink = unlinkability_score(observe(trace))
        reports.append(report_from_run(plan, trace, unlinkability=unlink))
    averaged = mean_matrix([[totals[k] for k in row] for row in cells], reps)

    headline = reports[0]
    if cfg["attack_trials"] > 0:
        summary = attack_trials(scenario, cfg["attack_trials"],
                                seed=child_seed(seed, "attack"))
        headline = replace(headline,
                           anonymity_empirical=summary.empirical_anonymity,
                           empirical_ci=summary.empirical_anonymity_ci())

    # The headline is rep 0's report, so it is reconciled in rep 0's place.
    failures = []
    record = _reconciled(headline, "rep 0", failures,
                         REFERENCES.get(cfg["reference"]))
    for rep, report in enumerate(reports[1:], 1):
        _reconciled(report, f"rep {rep}", failures)

    _write(cfg, "run", "matrix.csv", matrix_to_csv(averaged))
    _write(cfg, "run", "heatmap.txt", ascii_heatmap(averaged) + "\n")

    text = report_to_text(headline, record)
    text += f"repetitions        {reps}\n"
    tof_mean = _mean_exact(r.tof_measured for r in reports)
    text += f"tof measured mean  {tof_mean:.6f}\n"
    unlink_mean = _mean_exact(r.unlinkability for r in reports)
    text += f"unlinkability mean {unlink_mean:.6f}\n"
    _write(cfg, "run", "report.txt", text)

    _write(cfg, "run", "report.csv", reports_to_csv([headline, *reports[1:]]))

    if _exit_code(failures):
        return 2
    print("reconciliation pass")
    return 0


def _sweep_hop_row(topo, target: int, cfg: dict, variant, settings,
                   failures: list[str]) -> list[str]:
    seed = cfg["seed"]
    rng = substream(seed, f"hops-{target}")
    reports = []
    skipped = 0
    for index in range(cfg["pairs_per_target"]):
        try:
            source, dest = _sample_pair(topo, target, rng)
        except ConfigError:
            break
        pair_rng = substream(seed, f"hops-{target}-pair-{index}")
        try:
            plan = build_scenario(topo, source, dest, variant, settings,
                                  pair_rng)
        except PlacementError:
            skipped += 1
            continue
        main = plan.main
        if (plan.duplicate_shortfall
                or main.source_ext != plan.requested_source_ext
                or main.dest_ext != plan.requested_dest_ext):
            skipped += 1  # a truncated plan would smear the averages
            continue
        report = report_from_run(plan, run(plan))
        _reconciled(report, f"hops {target} pair {index}", failures)
        reports.append(report)
    note = f"skipped={skipped}" if skipped else ""
    return [str(target), str(len(reports)), *_mean_cells(reports, note)]


def _mean_cells(reports, note: str) -> list[str]:
    """The four mean columns and the note of a sweep row; without reports
    the means are blank and an empty note reads "insufficient"."""
    if not reports:
        return ["", "", "", "", note or "insufficient"]
    return [
        repr(_mean_exact(r.anonymity_single for r in reports)),
        repr(_mean_exact(r.anonymity_pair for r in reports)),
        repr(_mean_exact(r.tof_analytical for r in reports)),
        repr(_mean_exact(r.tof_measured for r in reports)),
        note,
    ]


def _frontier_points(cfg: dict) -> list[tuple[str, int]]:
    points = [("no_privacy", 0), ("extrout_baseline", 0)]
    points += [("extrout_duplicates", n) for n in cfg["duplicate_counts"]]
    points += [("extrout_fake", n) for n in cfg["fake_counts"]]
    points += [("nfake_pairs", n) for n in cfg["nfake_counts"]]
    return points


def _frontier_row(topo, source: int, dest: int, kind: str, count: int,
                  cfg: dict, settings, failures: list[str]) -> list[str]:
    seed = cfg["seed"]
    variant = _from_input(ProtocolVariant, kind, count)
    reports = []
    shortfall = 0
    failed = 0
    for rep in range(cfg["reps"]):
        rng = substream(seed, f"point-{kind}-{count}-rep-{rep}")
        try:
            plan = build_scenario(topo, source, dest, variant, settings, rng)
        except PlacementError:
            failed += 1
            continue
        shortfall = max(shortfall, plan.duplicate_shortfall)
        report = report_from_run(plan, run(plan))
        _reconciled(report, f"{kind} {count} rep {rep}", failures)
        reports.append(report)
    notes = []
    if failed:
        notes.append(f"placement_failed={failed}")
    if shortfall:
        notes.append(f"duplicate_shortfall={shortfall}")
    return [kind, str(count), *_mean_cells(reports, " ".join(notes))]


def cmd_sweep(cfg: dict) -> int:
    topo = _topology(cfg)
    seed = cfg["seed"]
    variant = _make_variant(cfg)
    settings = _make_settings(cfg)

    # Picked first so that a frontier pair that cannot be found fails
    # before any output is written; it draws from its own substream.
    frontier_source, frontier_dest = _pick_endpoints(
        topo, cfg, cfg["frontier_hops"], substream(seed, "frontier"))

    failures = []
    header = ("hops,pairs_used,anonymity_single,anonymity_pair,"
              "tof_analytical,tof_measured,note")
    rows = [",".join(_sweep_hop_row(topo, target, cfg, variant, settings,
                                    failures))
            for target in cfg["hop_targets"]]
    _write(cfg, "sweep", "anonymity_vs_L.csv",
           header + "\n" + "\n".join(rows) + "\n")

    header = ("technique,parameter,anonymity_single,anonymity_pair,"
              "tof_analytical,tof_measured,note")
    rows = [",".join(_frontier_row(topo, frontier_source, frontier_dest,
                                   kind, count, cfg, settings, failures))
            for kind, count in _frontier_points(cfg)]
    _write(cfg, "sweep", "anonymity_vs_tof.csv",
           header + "\n" + "\n".join(rows) + "\n")
    return _exit_code(failures)


def cmd_attack(cfg: dict) -> int:
    _, scenario = _scenario(cfg)
    summary = attack_trials(scenario, cfg["trials"],
                            seed=child_seed(cfg["seed"], "attack"))
    expected = report_from_run(summary.first_plan).guess_success
    on_path = sum(v.on_real_path for v in summary.verdicts) / summary.trials

    _write(cfg, "attack", "attack.csv", verdicts_to_csv(summary))
    lines = [f"trials             {summary.trials}"]
    for name, hits in zip(("source", "dest", "pair"), summary.hits):
        low, high = wilson_interval(hits, summary.trials)
        lines.append(f"{name + ' success':<19}{hits / summary.trials:.6f} "
                     f"(95% CI [{low:.6f}, {high:.6f}])")
    lines += [
        f"guessed on path    {on_path:.6f}",
        f"analytical source  {expected:.6f}",
        f"empirical anonymity {summary.empirical_anonymity:.6f}",
    ]
    _write(cfg, "attack", "attack.txt", "\n".join(lines) + "\n")
    print(f"source success {summary.hits[0] / summary.trials:.6f}, "
          f"analytical {expected:.6f}")
    return 0


def cmd_report(cfg: dict) -> int:
    blocks = []
    failed = False
    for name, (report, record) in reference_reconciliations().items():
        blocks.append(f"[{name}]\n" + report_to_text(report, record))
        verdict = "pass" if record.passed else "FAIL"
        suffix = f" ({len(record.flags)} flag(s))" if record.flags else ""
        print(f"{name}: {verdict}{suffix}")
        failed = failed or not record.passed
    _write(cfg, "report", "reference_report.txt", "\n".join(blocks))
    return 2 if failed else 0


# name: (function, help line)
COMMANDS = {
    "topology": (cmd_topology, "generate a network and report degree statistics"),
    "run": (cmd_run, "simulate one scenario and write matrix/report files"),
    "sweep": (cmd_sweep, "produce anonymity and overhead curve CSVs"),
    "attack": (cmd_attack, "run empirical adversary trials"),
    "report": (cmd_report, "reconcile the reference result table"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors, not exit 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command is a positional choice and
    every command takes the same flags."""
    parser = _Parser(prog="extrout",
                     usage="%(prog)s COMMAND [--config CONFIG] [--FLAG VALUE ...]",
                     description="location-privacy simulation harness",
                     epilog="commands:\n" + "\n".join(
                         f"  {name:<10}{text}" for name, (_, text) in COMMANDS.items()),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="one of the commands listed below")
    parser.add_argument("--config", default=None, help="INI configuration file")
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="log records at LEVEL and above (DEBUG, INFO, ...) to stderr")
    for _, key, _, _ in SCHEMA:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            default=None, metavar="VALUE")
    return parser


def _log_to_stderr(level: str) -> None:
    """Show the package's log records at level and above on stderr. Only
    here is `logging` imported, so a command without --log-level skips
    loading it. The level is set on the root logger whether or not it
    has handlers already (an embedding application's, say); a stderr
    handler is added only if it has none."""
    import logging

    name = level.strip().upper()
    number = logging.getLevelName(name)  # the number of a known name
    if not isinstance(number, int):
        raise ConfigError(f"bad value for --log-level: Unknown level: {name!r}")
    logging.getLogger().setLevel(number)
    logging.basicConfig(stream=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.log_level is not None:
            _log_to_stderr(args.log_level)
        overrides = {key: getattr(args, key) for _, key, _, _ in SCHEMA}
        cfg = resolve_config(args.config, overrides)
        command, _ = COMMANDS[args.command]
        return command(cfg)
    except (ConfigError, PlacementError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
