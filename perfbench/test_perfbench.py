"""Self-check of the benchmark: BENCHMARK.json, known answers, output schema.

    python3 -m pytest perfbench -q

Takes about ten seconds, most of it two short spectral runs.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import hostspeed, metrics, workloads  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]


def test_benchmark_json_is_within_the_contract_limits():
    spec = _spec()
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for module in ("search", "sequences", "cyclotomic", "spectra", "congruences", "cli"):
        assert any(name.startswith(module + ".") for name in layer_units)


def _autocorrelation(row: str) -> list[int]:
    h = [1 if c == "+" else -1 for c in row]
    n = len(h)
    return [sum(h[i] * h[(i + t) % n] for i in range(n)) for t in range(n)]


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_known_answers_hold_independently():
    perfect = {"".join(r) for r in product("+-", repeat=4) if not any(_autocorrelation("".join(r))[1:])}
    assert perfect == set(workloads.ORDER4_ROWS)
    assert workloads.WEIGHT16_NODES == 2 * 8008
    assert workloads.EXHAUSTIVE22_NODES == 4194304
    for n, (size, rank) in workloads.KNOWN_BASIS_RANK.items():
        assert size == n // 4 and rank == _totient(n) // 2
    for n, solvable in workloads.KNOWN_HALF_PERIOD_SOLVABLE.items():
        k = n // 4 - 1
        assert solvable == ((n // 2) % math.gcd(k, n) == 0)
    assert [workloads.analyze_passes(r) for r in workloads.ORDER4_ROWS].count(True) == 4


def test_random_rows_have_admissible_weight_and_follow_the_seed():
    for n in workloads.SPECTRAL_ORDERS:
        row = workloads.random_row(workloads.pass_rng("spectral", 7, 0), n)
        assert len(row) == n and row.count("-") == (n - math.isqrt(n)) // 2
        assert row == workloads.random_row(workloads.pass_rng("spectral", 7, 0), n)


def test_tail_has_ten_samples_beyond_it():
    assert metrics.tail(list(range(1, 101))) == (90.0, 90.0)
    assert metrics.tail(list(range(11))) == (0.0, 100.0 / 11)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_host_speed_sampler_measures_and_stops():
    with hostspeed.HostSpeed() as speed:
        start = time.perf_counter()
        sum(range(300000))
        factor = speed.factor(start, time.perf_counter())
        later = speed.factor(time.perf_counter() + 60, time.perf_counter() + 61)  # no samples yet
    assert 0 < factor < 10 and 0 < later < 10
    assert len(speed.samples()) >= 5
    assert not speed._thread.is_alive()


def _result(args: list[str], **kwargs) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(RUN + args, capture_output=True, text=True, timeout=170, **kwargs)
    lines = proc.stdout.splitlines()
    try:
        return proc, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc, None


def test_untraced_run_prints_every_end_to_end_metric():
    proc, result = _result(["--workload", "spectral", "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m.name: m.unit for m in metrics.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc, result = _result(["--workload", "spectral", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m.name: m.unit for m in metrics.PER_LAYER}
    for name in ("spectra.spectral_verdict.ms.n144", "cyclotomic.is_zero.us", "cli.self_ms",
                 "congruences.half_period_report.us", "sequences.has_flat_spectrum.us"):
        assert result["metrics"][name]["value"] > 0


def test_refuses_when_a_search_knob_is_set():
    env = dict(os.environ, CHM_RUN_LONG="1")
    proc, result = _result(["--workload", "spectral", "--seed", "1", "--seconds", "1"], env=env)
    assert proc.returncode == 2 and result is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
