"""Benchmark runner for circhad: one closed-loop client, exact known answers.

    python3 perfbench/run.py --workload {walk,dfs,resume,spectral,all} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package under test is always the ``src/`` next
to this directory, never an installed copy.  The run

1. makes one untimed warm-up pass where the workload has caches to fill;
2. times a fixed number of passes, about ``--seconds`` worth (see
   ``Workload.passes``), and checks every result against its known
   answer.  Between passes it starts fresh interpreters that import
   circhad and make the workload's first call (``setup_s``, median of
   several).  All along, ``hostspeed`` samples how fast the host runs,
   and every time is scaled to a reference speed.  With ``--trace 1``
   traced and untraced passes alternate instead, and the traced ones
   also time each request's building blocks;
3. writes spans, counts and the environment to ``.perfbench/`` and
   prints each metric by name and unit.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics.

Exit status: 0 when the run completed (``correct`` tells whether every
answer was right), 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SCRATCH = OUT / "tmp"
SETUP_REPEATS = 5
COLD_REPEATS = 3
REFUSED_ENV = ("CHM_MAX_EXHAUSTIVE_N", "CHM_RUN_LONG")
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_probe(speed, args: list[str]) -> tuple[float, str]:
    """Run ``python3 <args>`` to completion: the host-speed factor over it, and its output.

    Multiplying a time measured during the probe by the factor gives
    seconds at the reference speed.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    end = time.perf_counter()
    if proc.returncode:
        raise BenchError(f"probe {' '.join(args)} failed: {proc.stderr.strip()}")
    return speed.factor(start, end), proc.stdout


def _git(*args: str) -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as f:
            return f.read()
    except OSError:
        return None


def environment(circhad_file: str) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_max": cpu_max.strip() if cpu_max else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "circhad_file": circhad_file,
    }


def import_circhad() -> str:
    """Import circhad from ``src/`` beside the benchmark; refuse any other copy."""
    if not (SRC / "circhad" / "__init__.py").is_file():
        raise BenchError(f"no circhad package under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import circhad

    path = Path(circhad.__file__).resolve()
    if SRC not in path.parents:
        raise BenchError(f"imported circhad from {path}, not from {SRC}")
    return str(path.relative_to(ROOT))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _cpu_s() -> float:
    """User plus system time of this process (all threads) and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(workload, seed: int, index: int, traced: bool, speed):
    """Time one pass; every time is scaled to the reference host speed (see ``hostspeed``)."""
    from perfbench.metrics import PassRecord
    from perfbench.tracing import NULL_TRACER, Tracer
    from perfbench.workloads import pass_rng

    p = workload.build_pass(pass_rng(workload.name, seed, index), str(SCRATCH))
    tr = Tracer() if traced else NULL_TRACER
    done = []
    gc.collect()  # so no pass pays for the garbage of the one before
    try:
        cpu0 = _cpu_s()
        start = time.perf_counter()
        for request, op in enumerate(p.ops):
            tr.begin_request(request)
            error = result = None
            with tr.span(op.name) as span:
                t0 = time.perf_counter()
                try:
                    result = op.run(tr)
                except Exception as exc:  # a failed operation is counted, the run goes on
                    error = f"{op.name}: {type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            if op.after is not None and error is None:
                try:
                    op.after()
                except Exception as exc:
                    error = f"{op.name}: after the call: {type(exc).__name__}: {exc}"
            done.append((op, result, error, (t0, t1), span))
        end = time.perf_counter()
        cpu1 = _cpu_s()

        problems = []
        for op, result, error, _, span in done:
            try:
                found = [error] if error else op.check(result)
                if traced and not error and op.replay is not None:
                    found += op.replay(tr, span.span_id, result)
            except Exception as exc:
                found = [f"{op.name}: checking raised {type(exc).__name__}: {exc}"]
            problems.append(found)
    finally:
        p.cleanup()

    factor = speed.factor(start, end)
    latencies = [(t1 - t0) * 1e3 * speed.factor(t0, t1) for _, _, _, (t0, t1), _ in done]
    return PassRecord(
        traced=traced,
        wall_s=(end - start) * factor,
        cpu_s=(cpu1 - cpu0 - speed.busy_s(start, end)) * factor,
        latencies_ms=latencies,
        rows=sum(op.rows for op in p.ops),
        rows_s=sum(ms for (op, *_), ms in zip(done, latencies) if op.rows) / 1e3,
        problems=[found for found in problems if found],
        raw_wall_s=end - start,
        raw_latencies_ms=[(t1 - t0) * 1e3 for _, _, _, (t0, t1), _ in done],
        tracer=tr if traced else None,
    )


def measure(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list]:
    from perfbench import hostspeed, metrics
    from perfbench.hostspeed import HostSpeed
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    count = workload.passes(seconds)
    if trace:
        count = 2 * max(2, math.ceil(count / 2))
    setup = ["-m", "perfbench.probe", "setup", name, str(seed), str(SCRATCH)]
    # Setup probes are spread over the run, so their median does not
    # hinge on how fast the host happened to be at the start.
    probes_before = [0] * count
    if not trace:
        for i in range(SETUP_REPEATS):
            probes_before[i * count // SETUP_REPEATS] += 1
    setup_times: list[float] = []
    passes = []
    cold = 0.0
    with HostSpeed() as speed:
        if workload.warmup:
            run_pass(workload, seed, 0, False, speed)  # fills caches; not counted
        for i in range(count):
            for _ in range(probes_before[i]):
                start = time.perf_counter()
                factor, _ = _run_probe(speed, setup)
                setup_times.append((time.perf_counter() - start) * factor)
            passes.append(run_pass(workload, seed, 1 + i, trace and i % 2 == 1, speed))
        if trace and name == "spectral":  # the only workload that calls into cyclotomic
            cold = metrics.median([
                float(out) * factor
                for factor, out in (_run_probe(speed, ["-m", "perfbench.probe", "coldzero", str(seed)])
                                    for _ in range(COLD_REPEATS))
            ])
        if trace:
            values = metrics.per_layer(passes, cold, speed.factor)
            units = {m.name: m.unit for m in metrics.PER_LAYER}
        else:
            values = metrics.end_to_end(passes, setup_times, _peak_rss_mb())
            units = {m.name: m.unit for m in metrics.END_TO_END}
    samples = speed.samples()

    problems = [found for p in passes for found in p.problems]
    attempted = sum(len(p.latencies_ms) for p in passes)
    failed = len(problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "setup_times_s": setup_times,
        "host_speed": hostspeed.CHUNK_REFERENCE_S * len(samples) / sum(c for _, c in samples),
        "host_speed_samples": samples,
        "op_tail_percentile": metrics.tail([ms for p in passes for ms in p.latencies_ms])[1],
        "problems": problems[:20],
    }
    return result, info, passes


def _write_out(name: str, seed: int, trace: bool, env: dict, result: dict, info: dict, passes) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    record = {
        "env": env,
        "run": info,
        "result": result,
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "latencies_ms": p.latencies_ms,
                "raw_wall_s": p.raw_wall_s,
                "raw_latencies_ms": p.raw_latencies_ms,
                "spans": [s.to_dict() for s in p.tracer.spans] if p.tracer else [],
                "counts": p.tracer.counts if p.tracer else {},
            }
            for p in passes
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return path


def _print_table(name: str, result: dict, info: dict) -> None:
    print(f"== {name}: seed {info['seed']}, trace {info['trace']}, {info['passes']} timed passes;"
          f" host speed {info['host_speed']:.4g} of reference, times scaled to it")
    for key, metric in result["metrics"].items():
        print(f"  {key:<40} {metric['value']:>16.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops attempted':<40} {result['attempted']:>16d} count"
          f"  (op_ms_tail is percentile {info['op_tail_percentile']:.4g})")
    print(f"  {'failed_ops_ratio':<40} {ratio:>16.6g} ratio  ({result['failed']}/{result['attempted']})")
    for found in info["problems"]:
        print(f"  problem: {'; '.join(found)}")


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    env = environment(import_circhad())
    result, info, passes = measure(name, seed, seconds, trace)
    path = _write_out(name, seed, trace, env, result, info, passes)
    print(json.dumps({"env": env}))
    _print_table(name, result, info)
    print(f"  spans and samples: {path.relative_to(ROOT)}")
    return result


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own interpreter, so peak memory and caches stay separate."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[1:-1]))
        if proc.returncode or not lines:
            raise BenchError(f"workload {name} failed: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("walk", "dfs", "resume", "spectral", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        refused = [var for var in REFUSED_ENV if var in os.environ]
        if refused:
            raise BenchError(f"refusing to run with {', '.join(refused)} set: it changes the measured work")
        if args.workload == "all":
            print(json.dumps({"env": environment(import_circhad())}))
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
