"""Fresh-interpreter probes, started by ``run.py`` with ``src`` on PYTHONPATH.

    python3 -m perfbench.probe setup <workload> <seed> <scratch>
        import circhad and make the workload's first call; the parent
        times the whole process, which is what a CLI user waits for.
    python3 -m perfbench.probe coldzero <seed>
        print the milliseconds of the first CycloElement.is_zero at
        n = 144 (cold cyclotomic caches) on the seed's first spectral row.

For ``setup``, exit status 0 means the call agreed with its known answer.
"""

from __future__ import annotations

import sys
import time


def _setup(workload: str, seed: int, scratch: str) -> int:
    import circhad  # noqa: F401  (the import is part of what is timed)
    from perfbench.tracing import NULL_TRACER
    from perfbench.workloads import WORKLOADS, pass_rng

    p = WORKLOADS[workload].build_pass(pass_rng(workload, seed, 0), scratch)
    try:
        op = p.ops[0]
        problems = op.check(op.run(NULL_TRACER))
    finally:
        p.cleanup()
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def _coldzero(seed: int) -> int:
    from circhad import cyclotomic, sequences, spectra
    from perfbench.workloads import SPECTRAL_ORDERS, pass_rng, random_row

    n = SPECTRAL_ORDERS[0]
    row = random_row(pass_rng("spectral", seed, 0), n)
    table = spectra.difference_counts(sequences.minus_indices(sequences.Sequence.from_string(row)), 1)
    element = cyclotomic.CycloElement(n, table.counts) * 4 - cyclotomic.from_integer(n, n)
    start = time.perf_counter()
    element.is_zero()
    print((time.perf_counter() - start) * 1e3)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        return _setup(argv[1], int(argv[2]), argv[3])
    if argv[:1] == ["coldzero"] and len(argv) == 2:
        return _coldzero(int(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
