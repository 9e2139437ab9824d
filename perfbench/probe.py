"""Run one `extrout` CLI command in this process and report what it did.

    python3 perfbench/probe.py REPORT TRACE STOP -- <extrout arguments>

The command runs through `extrout.expcli.main`, exactly as the `extrout`
console script runs it, against the package under `src/` of this
checkout. Calls into the package's public functions are wrapped at every
module that imports them by name, so a call counts whichever module it
goes through. Each call becomes a span with its thread, its parent span,
its wall time and its `time.thread_time()`.

With TRACE 0 only the calls the end-to-end metrics need are wrapped:
topology set-up, scenario builds, simulations and reconciliations. With
TRACE 1 every function in LAYERS is wrapped. With STOP 1 the command is
abandoned as soon as its topology is in memory, to sample set-up time
alone. In every run a Speedometer times a fixed piece of work at command
entry, at its end, and before probed calls at most every SPEED_INTERVAL_S,
so that run.py can scale the command's timings to a fixed host speed. The
report is one JSON object written to REPORT.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import resource
import sys
import threading
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public functions timed in a traced run, by defining module.
LAYERS = {
    "topology": ("generate", "build_qudg", "load_topology", "topology_to_text"),
    "routing": ("hop_distances", "shortest_path", "extrapolate", "disjoint_paths"),
    "protocols": ("build_scenario", "place_fake_pair", "dummy_schedule"),
    "simengine": ("run", "transmission_matrix", "mean_matrix", "ascii_heatmap"),
    "adversary": ("observe", "traffic_branches", "guess_endpoints",
                  "unlinkability_score", "attack_trials"),
    "metrics": ("report_from_run", "reconcile"),
}
TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items()
               for name in names)
# Wrapped in every run: they mark set-up, plans, items and failures.
SETUP = ("topology.generate", "topology.load_topology")
PROBED = SETUP + ("protocols.build_scenario", "simengine.run",
                  "metrics.reconcile")
COMMAND = "expcli.main"

# The speed sample: breadth-first searches over a king-move grid, kept here
# so that no change to the program alters it. They take about 1.2 ms of CPU
# on a 2.0 GHz Xeon.
SPEED_GRID = 24
SPEED_SOURCES = ((0, 0), (SPEED_GRID // 2, SPEED_GRID // 2))
SPEED_ENTRY_SAMPLES = 3
SPEED_INTERVAL_S = 0.1


class SetupDone(Exception):
    """Raised once the topology is in memory when only set-up is sampled."""


class Span:
    __slots__ = ("name", "ident", "parent", "thread", "wall", "cpu",
                 "child_wall", "child_cpu", "error", "start")

    def __init__(self, name, ident, parent, thread):
        self.name = name
        self.ident = ident
        self.parent = parent
        self.thread = thread
        self.wall = self.cpu = self.child_wall = self.child_cpu = 0.0
        self.error = None
        self.start = 0.0

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


class Speedometer:
    """Measures how fast the host runs a fixed piece of work.

    The host this benchmark runs on changes speed by up to 1.7 times for
    tens of seconds at a time, and the program slows with it. A
    dict-and-deque search like the program's own, timed with
    `time.thread_time()` in the thread that makes a probed call, slows
    by nearly the same factor, so its mean time over a stretch of the
    command tells how fast the host was during it. Timed in a thread of
    its own it would measure whichever processor that thread ran on. It
    costs the command under 2% of its time.
    """

    def __init__(self):
        n = SPEED_GRID
        self.adjacent = {
            (r, c): [(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                     if (dr or dc) and 0 <= r + dr < n and 0 <= c + dc < n]
            for r in range(n) for c in range(n)}
        self.samples: list[float] = []  # CPU seconds of each sample
        self.times: list[float] = []  # when each sample ended
        self.last = 0.0

    def maybe_sample(self) -> tuple[float, float]:
        """Sample if SPEED_INTERVAL_S has passed since the last sample;
        return the wall and CPU time spent."""
        if time.perf_counter() - self.last < SPEED_INTERVAL_S:
            return 0.0, 0.0
        return self.sample()

    def sample(self) -> tuple[float, float]:
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        for source in SPEED_SOURCES:
            seen = {source: 0}
            queue = deque([source])
            while queue:
                node = queue.popleft()
                hops = seen[node] + 1
                for other in self.adjacent[node]:
                    if other not in seen:
                        seen[other] = hops
                        queue.append(other)
        cpu = time.thread_time() - cpu0
        self.last = time.perf_counter()
        wall = self.last - wall0
        self.samples.append(cpu)
        self.times.append(self.last)
        return wall, cpu

    def mean_between(self, start: float, end: float) -> float:
        """Time-weighted mean sample time from the last sample at or
        before `start` to the first at or after `end`: each gap between
        two samples counts with their average, so a long call with one
        sample on each side gets the mean of the two."""
        pairs = sorted(zip(self.times, self.samples))
        times = [t for t, _ in pairs]
        first = max(0, bisect.bisect_right(times, start) - 1)
        last = min(len(pairs) - 1, bisect.bisect_left(times, end))
        window = pairs[first:last + 1]
        if len(window) < 2 or window[-1][0] == window[0][0]:
            return sum(cpu for _, cpu in window) / len(window)
        area = sum((t1 - t0) * (c0 + c1) / 2
                   for (t0, c0), (t1, c1) in zip(window, window[1:]))
        return area / (window[-1][0] - window[0][0])


class Tracer:
    """Records one span per wrapped call; spans stay in memory."""

    def __init__(self, stop_after_setup: bool):
        self.spans: list[Span] = []
        self.speedometer = Speedometer()
        self.stop_after_setup = stop_after_setup
        self.entry = 0.0
        self.setup_end: float | None = None
        self.reconcile_failures = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        if name in PROBED:
            # The same calls are probed with and without tracing; the
            # sample's time belongs to no layer.
            wall, cpu = self.speedometer.maybe_sample()
            if stack:
                stack[-1].child_wall += wall
                stack[-1].child_cpu += cpu
        span = Span(name, next(self._ids), stack[-1].ident if stack else 0,
                    threading.get_ident())
        stack.append(span)
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        span.start = wall0
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.cpu = time.thread_time() - cpu0
            end = time.perf_counter()
            span.wall = end - wall0
            stack.pop()
            if stack:
                stack[-1].child_wall += span.wall
                stack[-1].child_cpu += span.cpu
            self.spans.append(span)
        if name in SETUP and self.setup_end is None:
            self.setup_end = end
            if self.stop_after_setup:
                raise SetupDone
        if name == "metrics.reconcile" and not result.passed:
            self.reconcile_failures += 1
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper


def install(tracer: Tracer, names) -> None:
    """Replace each function at every extrout module that binds it."""
    modules = [module for key, module in sys.modules.items()
               if key == "extrout" or key.startswith("extrout.")]
    for name in names:
        layer, attr = name.split(".")
        original = getattr(sys.modules[f"extrout.{layer}"], attr)
        wrapper = tracer.wrap(name, original)
        for module in modules:
            if vars(module).get(attr) is original:
                setattr(module, attr, wrapper)


def summarize(tracer: Tracer, process_cpu: float) -> dict:
    """Per-function calls, self wall and self CPU, and placement counts."""
    layers = {name: {"calls": 0, "self_s": 0.0, "cpu_s": 0.0}
              for name in TRACED}
    by_id = {span.ident: span for span in tracer.spans}
    layer_cpu = 0.0
    wait = 0.0
    placement_paths = placements_accepted = placement_failures = 0
    for span in tracer.spans:
        wait += span.self_wall - span.self_cpu
        if span.name == COMMAND:
            continue
        entry = layers[span.name]
        entry["calls"] += 1
        entry["self_s"] += span.self_wall
        entry["cpu_s"] += span.self_cpu
        layer_cpu += span.self_cpu
        if span.name == "protocols.place_fake_pair":
            if span.error is None:
                placements_accepted += 1
            elif span.error == "PlacementError":
                placement_failures += 1
        parent = by_id.get(span.parent)
        if (span.name == "routing.shortest_path" and parent is not None
                and parent.name == "protocols.place_fake_pair"):
            placement_paths += 1
    command = [span for span in tracer.spans if span.name == COMMAND]
    return {
        "layers": layers,
        "expcli": {
            "main.calls": len(command),
            "self_s": sum(span.self_wall for span in command),
            "cpu_s": process_cpu - layer_cpu,
            "wait_s": wait,
        },
        "placement": {
            "accepted": placements_accepted,
            "placement_paths": placement_paths,
            "failures": placement_failures,
        },
    }


def probe(argv: list[str], trace: bool, stop_after_setup: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import extrout  # imports, and so binds, every submodule
    from extrout import expcli

    source = Path(extrout.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"extrout imported from {source}, not this checkout")
    tracer = Tracer(stop_after_setup)
    install(tracer, TRACED if trace else PROBED)
    speedometer = tracer.speedometer
    for _ in range(SPEED_ENTRY_SAMPLES):
        speedometer.sample()
    cpu0 = time.process_time()
    tracer.entry = time.perf_counter()
    try:
        code = tracer.call(COMMAND, expcli.main, (argv,), {})
    except SetupDone:
        code = 0
    command_s = time.perf_counter() - tracer.entry
    process_cpu = time.process_time() - cpu0
    speedometer.sample()

    builds = [span for span in tracer.spans
              if span.name == "protocols.build_scenario"]
    report = {
        "exit": code,
        "command_s": command_s,
        "setup_s": None if tracer.setup_end is None
        else tracer.setup_end - tracer.entry,
        "plans_ms": [1000.0 * span.wall for span in builds],
        "plans_speed_s": [
            speedometer.mean_between(span.start, span.start + span.wall)
            for span in builds],
        "placement_errors": sum(span.error == "PlacementError"
                                for span in builds),
        "items": len(builds),
        "reconcile_failures": tracer.reconcile_failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_s": speedometer.mean_between(tracer.entry,
                                            tracer.entry + command_s),
        "setup_speed_s": None if tracer.setup_end is None
        else speedometer.mean_between(tracer.entry, tracer.setup_end),
        "speed_samples": len(speedometer.samples),
    }
    if trace:
        sampled_cpu = sum(speedometer.samples[SPEED_ENTRY_SAMPLES:-1])
        report.update(summarize(tracer, process_cpu - sampled_cpu))
    return report


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    path, trace, stop = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
    report = probe(sys.argv[5:], trace, stop)
    Path(path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
