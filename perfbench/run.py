"""Run one benchmark workload of the mome package.

    python3 perfbench/run.py --workload acceptance_train --seed 1 --seconds 25 --trace 0

This process writes the workload's seeded inputs with the package's
public writers, then starts ``worker.py`` in a fresh interpreter that
sets up, measures and checks the program on those files. The worker's
last output line is the JSON result. Inputs live under ``.bench_work/``
in the repository root and are removed afterwards; traced runs leave
their span table in ``.bench_out/``.

Exit status: 0 when every output check passed, 1 when a check failed or
the worker did not finish, 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import SPECS, Spec, generate  # noqa: E402

# Every run must end within this many seconds, input generation included.
RUN_LIMIT_S = 175.0

# One BLAS thread: the program handles one sample at a time, and pinned
# threads keep run-to-run spread down on a small shared machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run(spec: Spec, seed: int, seconds: float, trace: bool, work_root: str = ROOT) -> int:
    """Generate inputs, run the worker on them, return its exit status.

    Inputs go to ``work_root/.bench_work`` and traces to
    ``work_root/.bench_out``; the program always comes from ``ROOT/src``.
    """
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = os.path.join(work_root, ".bench_work", f"{spec.name}-{seed}-{os.getpid()}")
    trace_path = os.path.join(work_root, ".bench_out", f"trace_{spec.name}_seed{seed}.csv.gz")
    try:
        manifest = generate(spec, seed, os.path.join(work, "inputs"))
        if trace:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            if os.path.exists(trace_path):
                os.remove(trace_path)
        job = {
            "spec": asdict(spec), "manifest": manifest, "seed": seed,
            "seconds": seconds, "trace": trace, "trace_path": trace_path,
        }
        sys.stdout.flush()  # the worker's JSON line must stay the last one
        budget = max(RUN_LIMIT_S - (time.perf_counter() - started), 1.0)
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                env={**os.environ, **BLAS_ENV}, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            print(f"worker exceeded {budget:.0f} s and was stopped", file=sys.stderr)
            return 1
        return done.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mome", "__init__.py")):
        print(f"no mome source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    return run(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
