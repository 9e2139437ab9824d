"""Smoke test of the benchmark on tiny inputs (a 6x6 grid).

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json prints with its unit,
that per-layer call counts repeat, that the speed sampler reports, and
that a tampered output trips the digest gate.
"""

from __future__ import annotations

import json
import time

import pytest

import run as bench

TINY_SEEDS = (1, 2)

TINY_GRID = ("--rows", "6", "--cols", "6", *bench.DENSE)
TINY = {workload.name: workload for workload in (
    bench.Workload("tiny_attack", (
        ("attack", *TINY_GRID, "--variant", "extrout_fake", "--count", "1",
         "--trials", "100", "--target-hops", "3"),
    ), ("attack.csv", "attack.txt")),
    bench.Workload("tiny_run", (
        ("topology", *TINY_GRID),
        ("run", "--topology-file", "{out}/topology.txt",
         "--variant", "extrout_baseline", "--target-hops", "3", "--reps", "2"),
    ), ("topology.txt", "matrix.csv", "heatmap.txt", "report.txt",
        "report.csv")),
)}


@pytest.fixture(scope="module")
def reference():
    digests = {}
    with bench.workspace("smoke-reference") as work:
        for workload in TINY.values():
            for seed in TINY_SEEDS:
                it = bench.run_iteration(
                    workload, seed, work, False,
                    time.perf_counter() + bench.DEADLINE_S)
                assert not it.problems, it.problems
                assert it.speed > 0
                assert all(report["speed_samples"] >= 3
                           for report in it.reports)
                digests.setdefault(workload.name, {})[str(seed)] = it.digests
    return digests


@pytest.fixture
def tiny(monkeypatch, reference):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "PROGRAM_SEEDS", TINY_SEEDS)
    monkeypatch.setattr(bench, "load_reference",
                        lambda: {"seeds": list(TINY_SEEDS),
                                 "workloads": reference})


def contract() -> dict:
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_main(capsys, *args) -> tuple[int, list[str], dict]:
    code = bench.main(["--seed", "5", "--seconds", "0.5", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def assert_metrics_printed(lines, result, expected):
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines), name


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_print_with_units(tiny, capsys, name):
    code, lines, result = run_main(capsys, "--workload", name, "--trace", "0")
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in contract()["end_to_end"]}
    assert_metrics_printed(lines, result, expected)
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert any(line.startswith("stamp ") for line in lines)


def test_per_layer_metrics_print_and_calls_repeat(tiny, capsys):
    code, lines, first = run_main(capsys, "--workload", "tiny_run",
                                  "--trace", "1")
    assert code == 0 and first["correct"], lines
    expected = {m["name"]: m["unit"] for m in contract()["per_layer"]}
    assert_metrics_printed(lines, first, expected)
    assert first["metrics"]["topology.build_qudg.calls"]["value"] == 1
    assert first["metrics"]["topology.load_topology.calls"]["value"] == 1
    _, _, second = run_main(capsys, "--workload", "tiny_run", "--trace", "1")
    calls = {name for name in expected if name.endswith(".calls")}
    assert ({n: first["metrics"][n]["value"] for n in calls}
            == {n: second["metrics"][n]["value"] for n in calls})


def test_tampered_output_trips_the_digest_gate(tiny, capsys, monkeypatch):
    real_run_command = bench.run_command

    def tampering(argv, timeout):
        proc = real_run_command(argv, timeout)
        out = argv[argv.index("--out") + 1]
        with open(f"{out}/attack.csv", "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        return proc

    monkeypatch.setattr(bench, "run_command", tampering)
    code, lines, result = run_main(capsys, "--workload", "tiny_attack",
                                   "--trace", "0")
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert any("digest mismatch on attack.csv" in line for line in lines)
