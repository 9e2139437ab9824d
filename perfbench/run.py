"""Benchmark of the `extrout` command line tool on four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Each workload is one or two `extrout` commands, each run in a fresh
interpreter through `perfbench/probe.py`, one command at a time (a closed
loop with one client; the only extra threads are the program's own
thread pools and the probe's speed sampler). A run repeats the workload
for S seconds. Iteration k runs the program with the k-th of the seeds
PROGRAM_SEEDS counted from N; the seed reaches the program only as
`--seed`, and every iteration's outputs must hash to the digests recorded
for that seed. Timings are scaled to a fixed host speed measured while
the commands run. The last line printed is one JSON object: end-to-end
metrics with `--trace 0`, per-layer metrics from a separate traced pass
with `--trace 1`. The exit code is 1 when any output is wrong, 2 when
the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from probe import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = HERE / "probe.py"
REFERENCE_FILE = HERE / "reference_digests.json"

# Program seeds with recorded output digests. Workload seed N runs them
# in turn from index N mod 16, so every iteration is checked byte for byte
# and different N give different inputs.
PROGRAM_SEEDS = tuple(range(1, 17))
# Mean time of the probe's speed sample on the 2.0 GHz Xeon VM the bounds
# were set on, in a fast phase. Each command's timings are multiplied by
# this over the mean sample time measured while it ran.
REFERENCE_SPEED_S = 0.0012
# Set-up alone is sampled until there are this many samples, and for at
# least this share of --seconds, which buys many samples where set-up is
# short.
MIN_SETUP_SAMPLES = 3
SETUP_SHARE = 0.1
DEADLINE_S = 170  # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The README dense link profile: a king-move grid, so duplicate and fake
# paths exist and the topology does not depend on the seed.
DENSE = ("--perturbation", "0", "--tx-range", "150", "--qudg-factor", "0.95")
GRID20 = ("--rows", "20", "--cols", "20") + DENSE
# The 8-hop pair seed 1 samples. The attacks route every trial between one
# pair; with a sampled pair the cost of a trial changed by up to 1.4 times
# from seed to seed, so the seed varies only the trials.
ATTACK_PAIR = ("--source", "315", "--dest", "160")


@dataclass(frozen=True)
class Workload:
    """Commands (extrout arguments, `{out}` standing for the output
    directory) run in order, and the files they must write.

    A run makes at least `min_iterations` iterations. Their plan count
    fixes which percentile `plan_ms_tail` reports.
    """

    name: str
    commands: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    min_iterations: int = 1


WORKLOADS = {workload.name: workload for workload in (
    Workload("attack_fake", (
        ("attack", *GRID20, *ATTACK_PAIR, "--variant", "extrout_fake",
         "--count", "1", "--trials", "100"),
    ), ("attack.csv", "attack.txt")),
    Workload("attack_duplicates", (
        ("attack", *GRID20, *ATTACK_PAIR, "--variant", "extrout_duplicates",
         "--count", "2", "--trials", "500"),
    ), ("attack.csv", "attack.txt")),
    # The frontier pair is pinned to the 12-hop pair seed 1
    # samples: with a sampled pair the nfake placements alone make the
    # command up to 1.9 times slower on one seed than on another. The hop
    # rows still sample their 48 pairs from the seed.
    Workload("sweep_frontier", (
        ("sweep", *GRID20, "--hop-targets", "3,4,5,6,7,8,9,10,11,12,13,14",
         "--pairs-per-target", "4", "--source-ext", "2", "--dest-ext", "2",
         "--frontier-hops", "12", "--source", "67", "--dest", "279",
         "--duplicate-counts", "1,2,3", "--fake-counts", "1",
         "--nfake-counts", "1,3,5,7,9", "--reps", "1", "--budget", "60"),
    ), ("anonymity_vs_L.csv", "anonymity_vs_tof.csv"),
        # four iterations of 59 plans give p95 ten plans beyond it
        min_iterations=4),
    Workload("topology_large", (
        ("topology", "--rows", "80", "--cols", "80", *DENSE),
        ("run", "--topology-file", "{out}/topology.txt",
         "--variant", "extrout_baseline", "--target-hops", "30",
         "--reps", "128"),
    ), ("topology.txt", "matrix.csv", "heatmap.txt", "report.txt",
        "report.csv")),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "plan_ms_tail": "ms",
}
DERIVED_UNITS = {
    "routing.hop_distances.per_plan": "calls/plan",
    "protocols.place_fake_pair.accept_ratio": "ratio",
    "protocols.placement_failures": "count",
    "adversary.traffic_branches.per_guess": "calls/guess",
}
EXPCLI_UNITS = {
    "expcli.main.calls": "count",
    "expcli.self_s": "s",
    "expcli.cpu_s": "s",
    "expcli.wait_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
            units[f"{layer}.{name}.cpu_s"] = "s"
    units.update(EXPCLI_UNITS)
    units.update(DERIVED_UNITS)
    units["trace.overhead_s"] = "s"
    return units


# Provenance lines embed the output directory, so digests skip them.
_PROVENANCE = re.compile(rb"# (command|[a-z]+\.[a-z_]+)=")


def digest(path: Path) -> str:
    """sha256 of a file without its leading `# key=value` provenance block."""
    lines = path.read_bytes().splitlines(keepends=True)
    start = 0
    while start < len(lines) and _PROVENANCE.match(lines[start]):
        start += 1
    return hashlib.sha256(b"".join(lines[start:])).hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {value}\n" for name, value in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_command(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Iteration:
    """One execution of a workload's commands at one program seed.

    Times are scaled to REFERENCE_SPEED_S; `raw_wall_s` is the wall time
    as measured and `speed` the host speed relative to the reference,
    weighted by each command's wall time.
    """

    seed: int
    raw_wall_s: float = 0.0
    speed: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    command_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    items: int = 0
    plans_ms: list[float] = field(default_factory=list)
    placement_errors: int = 0
    reconcile_failures: int = 0
    nonzero_exits: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return self.items / (self.command_s - self.setup_s)


def run_iteration(workload: Workload, seed: int, work: Path, traced: bool,
                  deadline: float, setup_only: bool = False) -> Iteration:
    """Run the workload's commands, killing any still running at
    `deadline` (a `time.perf_counter()` value). A set-up-only iteration
    stops each command once its topology is in memory and keeps earlier
    outputs. Each command's times are multiplied by its speed scale, the
    reference speed sample time over the one measured while it ran."""
    out = work / "out"
    if not setup_only:
        shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)
    report_path = work / "probe.json"
    it = Iteration(seed=seed)
    for command in workload.commands:
        argv = [arg.replace("{out}", str(out)) for arg in command]
        argv += ["--seed", str(seed), "--out", str(out)]
        report_path.unlink(missing_ok=True)
        cpu0 = children_cpu()
        start = time.perf_counter()
        try:
            proc = run_command(
                [sys.executable, str(PROBE), str(report_path),
                 "1" if traced else "0", "1" if setup_only else "0", "--",
                 *argv], max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            it.nonzero_exits += 1
            it.problems.append(f"{argv[0]}: killed at the run's deadline")
            return it
        wall = time.perf_counter() - start
        cpu = children_cpu() - cpu0
        if proc.returncode != 0 or not report_path.exists():
            it.nonzero_exits += 1
            it.problems.append(f"{argv[0]}: probe exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
            return it
        report = json.loads(report_path.read_text(encoding="utf-8"))
        it.reports.append(report)
        scale = REFERENCE_SPEED_S / report["speed_s"]
        it.speed = ((it.speed * it.raw_wall_s + scale * wall)
                    / (it.raw_wall_s + wall))
        it.raw_wall_s += wall
        it.wall_s += wall * scale
        it.cpu_s += cpu * scale
        if report["exit"] != 0:
            it.nonzero_exits += 1
            it.problems.append(f"{argv[0]}: exit {report['exit']}: "
                               f"{proc.stderr.strip()[-400:]}")
        if report["setup_s"] is None:
            it.problems.append(f"{argv[0]}: never built or loaded a topology")
        else:
            it.setup_s += (report["setup_s"] * REFERENCE_SPEED_S
                           / report["setup_speed_s"])
        it.command_s += report["command_s"] * scale
        it.peak_rss_mb = max(it.peak_rss_mb, report["peak_rss_mb"])
        it.items += report["items"]
        # Set-up and each plan are scaled by the speed measured around
        # them alone.
        it.plans_ms += [ms * REFERENCE_SPEED_S / speed for ms, speed
                        in zip(report["plans_ms"], report["plans_speed_s"])]
        it.placement_errors += report["placement_errors"]
        it.reconcile_failures += report["reconcile_failures"]
    if not setup_only:
        for name in workload.outputs:
            path = out / name
            if path.is_file() and path.stat().st_size > 0:
                it.digests[name] = digest(path)
            else:
                it.problems.append(f"missing output {name}")
    return it


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_PERCENTILES[-1]


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    runs: int = 0  # workload executions, set-up-only ones included

    @property
    def correct(self) -> bool:
        return not self.problems


def check_reference(it: Iteration, reference: dict[str, dict[str, str]],
                    result: Result) -> int:
    """Compare an iteration's outputs with the digests recorded for its
    seed and return the number of files that differ."""
    expected_digests = reference.get(str(it.seed))
    if expected_digests is None:
        result.problems.append(f"no reference digests for seed {it.seed}")
        return 1
    mismatches = 0
    for name, expected in sorted(expected_digests.items()):
        got = it.digests.get(name)
        if got != expected:
            mismatches += 1
            result.problems.append(
                f"digest mismatch on {name} at seed {it.seed}: "
                f"{got} != recorded {expected}")
    return mismatches


def account(result: Result, iterations: list[Iteration]) -> None:
    """Attempts, failures and correctness problems of all iterations."""
    plans = sum(len(it.plans_ms) for it in iterations)
    result.attempted += max(1, plans)
    for it in iterations:
        result.failed += (it.placement_errors + it.reconcile_failures
                          + it.nonzero_exits)
        result.problems += [f"seed {it.seed}: {p}" for p in it.problems]


def end_to_end(workload: Workload, full: list[Iteration],
               setups: list[float], result: Result) -> None:
    plans = sorted(ms for it in full for ms in it.plans_ms)
    # The percentile follows the plan count of the minimum iterations, not
    # the run's actual count, so it stays the same from run to run.
    tail = tail_percentile(
        min(len(plans), workload.min_iterations * len(full[0].plans_ms)))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(it.wall_s for it in full),
        "cpu_s": statistics.median(it.cpu_s for it in full),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in full),
        "items_per_s": statistics.median(it.items_per_s for it in full),
        "plan_ms_tail": percentile(plans, tail),
    }
    for name, value in values.items():
        result.metrics[name] = (value, END_TO_END_UNITS[name])
    n = len(full)
    result.notes.update({
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {n} iterations",
        "cpu_s": f"median of {n} iterations, user+system, all threads",
        "peak_rss_mb": f"median of {n} iterations, max over commands",
        "items_per_s": f"median of {n} iterations, "
                       f"{sum(it.items for it in full)} items",
        "plan_ms_tail": f"p{tail:g} of {len(plans)} build_scenario calls",
    })


def merge_traces(it: Iteration) -> dict:
    """Sum one traced iteration's per-command summaries."""
    layers: dict[str, dict[str, float]] = {}
    expcli = {"main.calls": 0, "self_s": 0.0, "cpu_s": 0.0, "wait_s": 0.0}
    counters = {"accepted": 0, "placement_paths": 0, "failures": 0}
    for report in it.reports:
        for name, entry in report["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "self_s": 0.0,
                                             "cpu_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for key in expcli:
            expcli[key] += report["expcli"][key]
        for key in counters:
            counters[key] += report["placement"][key]
    return {"layers": layers, "expcli": expcli, "placement": counters}


def per_layer(traced: list[Iteration], untraced: list[Iteration],
              result: Result) -> None:
    """Calls from the first traced iteration on a --seed input (they
    repeat exactly); times are medians over the traced iterations."""
    summaries = [merge_traces(it) for it in traced]
    first = summaries[0]
    units = per_layer_units()
    values: dict[str, float] = {}
    for name in first["layers"]:
        values[f"{name}.calls"] = first["layers"][name]["calls"]
        for key in ("self_s", "cpu_s"):
            values[f"{name}.{key}"] = statistics.median(
                s["layers"][name][key] for s in summaries)
    values["expcli.main.calls"] = first["expcli"]["main.calls"]
    for key in ("self_s", "cpu_s", "wait_s"):
        values[f"expcli.{key}"] = statistics.median(
            s["expcli"][key] for s in summaries)
    layers, placement = first["layers"], first["placement"]
    plans = layers["protocols.build_scenario"]["calls"]
    guesses = layers["adversary.guess_endpoints"]["calls"]
    values["routing.hop_distances.per_plan"] = (
        layers["routing.hop_distances"]["calls"] / plans if plans else 0.0)
    values["protocols.place_fake_pair.accept_ratio"] = (
        placement["accepted"] / placement["placement_paths"]
        if placement["placement_paths"] else 0.0)
    values["protocols.placement_failures"] = placement["failures"]
    values["adversary.traffic_branches.per_guess"] = (
        layers["adversary.traffic_branches"]["calls"] / guesses
        if guesses else 0.0)
    values["trace.overhead_s"] = (
        statistics.median(it.wall_s for it in traced)
        - statistics.median(it.wall_s for it in untraced))
    for name, unit in units.items():
        result.metrics[name] = (values[name], unit)
    result.notes["trace.overhead_s"] = (
        f"traced minus untraced wall, medians of {len(traced)} pairs")


@contextmanager
def workspace(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict[str, dict[str, str]]) -> Result:
    """Run one workload for about `seconds` and gather its metrics.

    Another iteration starts only while one more is expected to end
    within `seconds`, so the number of iterations, and with it the
    medians, does not hinge on a few milliseconds of noise.
    """
    result = Result(workload=workload.name, seed=seed, trace=trace)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    steps: list[float] = []

    def step(*runs):
        begin = time.perf_counter()
        done = [run_iteration(workload, *args, deadline) for args in runs]
        steps.append(time.perf_counter() - begin)
        return done

    def another_fits() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + statistics.median(steps) <= seconds

    with workspace(workload.name) as work:
        seeds = (PROGRAM_SEEDS[(seed + k) % len(PROGRAM_SEEDS)]
                 for k in itertools.count())
        if trace:
            traced, untraced = [], []
            while not traced or another_fits():
                program_seed = next(seeds)
                plain, traced_it = step((program_seed, work, False),
                                        (program_seed, work, True))
                untraced.append(plain)
                traced.append(traced_it)
            full = untraced + traced
            iterations = full
        else:
            full = []
            while len(full) < workload.min_iterations or another_fits():
                full += step((next(seeds), work, False))
            setups = [it.setup_s for it in full]
            probes = []
            probes_end = time.perf_counter() + SETUP_SHARE * seconds
            while (len(setups) < MIN_SETUP_SAMPLES
                   or time.perf_counter() < probes_end):
                probes.append(run_iteration(workload, next(seeds), work,
                                            False, deadline, setup_only=True))
                setups.append(probes[-1].setup_s)
            iterations = full + probes
        mismatches = sum(check_reference(it, reference, result)
                         for it in full)
        result.failed += mismatches
        account(result, iterations)
        if result.correct:
            if trace:
                per_layer(traced, untraced, result)
            else:
                end_to_end(workload, full, setups, result)
    result.lines.append(
        "digests " + " ".join(
            f"seed={it.seed}:{combined_digest(it.digests)}"
            for it in iterations if it.digests))
    result.lines.append(
        "reference digests: " + ("all match" if mismatches == 0
                                 else f"{mismatches} mismatching file(s)"))
    result.lines.append(
        "host speed " + " ".join(f"{it.speed:.3f}" for it in full)
        + f" of the reference; raw wall median "
        f"{statistics.median(it.raw_wall_s for it in full):.3f} s")
    result.runs = len(iterations)
    return result


def git_stamp() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return revision, bool(status.strip())


def stamp(seed: int, results: list[Result]) -> dict:
    revision, dirty = git_stamp()
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_revision": revision,
        "git_dirty": dirty,
        "seed": seed,
        "runs": {r.workload: r.runs for r in results},
    }


def report_lines(result: Result) -> list[str]:
    lines = [f"workload {result.workload} seed {result.seed} "
             f"trace {int(result.trace)}"]
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name, "")
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        lines.append(f"  {name:<42} {shown} {unit:<11} {note}".rstrip())
    ratio = result.failed / result.attempted
    lines.append(f"  {'fail_ratio':<42} {ratio:>14.6f} {'ratio':<11} "
                 f"{result.failed} failed of {result.attempted} plans")
    lines += ["  " + line for line in result.lines]
    lines += [f"  problem: {problem}" for problem in result.problems]
    return lines


def summary_json(results: list[Result]) -> str:
    if len(results) == 1:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in results[0].metrics.items()}
    else:
        metrics = {f"{r.workload}.{name}": {"value": value, "unit": unit}
                   for r in results for name, (value, unit) in r.metrics.items()}
    return json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    })


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def record_reference() -> int:
    """Write the digests of every workload at every program seed."""
    digests: dict[str, dict[str, dict[str, str]]] = {}
    with workspace("record") as work:
        for workload in WORKLOADS.values():
            for seed in PROGRAM_SEEDS:
                it = run_iteration(workload, seed, work, False,
                                   time.perf_counter() + DEADLINE_S)
                if it.problems:
                    print("\n".join(it.problems), file=sys.stderr)
                    return 1
                digests.setdefault(workload.name, {})[str(seed)] = it.digests
                print(f"{workload.name} seed {seed}: "
                      f"{combined_digest(it.digests)}", flush=True)
    REFERENCE_FILE.write_text(
        json.dumps({"seeds": list(PROGRAM_SEEDS), "workloads": digests},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the output digests of every program seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "extrout" / "expcli.py").is_file():
        print(f"extrout sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    reference = load_reference()["workloads"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace), reference.get(name, {}))
        print("\n".join(report_lines(result)), flush=True)
        results.append(result)
    print("stamp " + json.dumps(stamp(args.seed, results)))
    print(summary_json(results))
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
