#!/usr/bin/env python3
"""Survey-fleet benchmark of the AERO serving, training and continual-learning stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload golden-night [--seed 7] [--seconds 10] [--trace 0|1]

Runs one workload (``golden-night``, ``wide-night`` or ``retrain-loop``; see
``perfbench/README.md``), checks its outputs, prints the environment and
every metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics from a separate traced set of passes.
The exit code is 0 only when every output check passed.

``--write-reference`` (wide-night, seed 7) re-records the pinned wide-night
trace after an intentional behaviour change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The matrices are small (a few stars by a window of 32), so a second BLAS
#: thread buys nothing and makes timings depend on whether another process
#: holds the other CPU.  Always one thread, whatever the caller's shell says.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin BLAS to :data:`BLAS_THREADS` before numpy loads (the artifact fit inherits it)."""
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    return BLAS_THREADS


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import repro

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']}-{info.get('version', '?')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("golden-night", "wide-night", "retrain-loop"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"perfbench: no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    threads = pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WIDE_REFERENCE, WORKLOADS

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        if args.write_reference:
            if args.workload != "wide-night" or args.seed != 7:
                parser.error("--write-reference records the wide-night trace at seed 7")
            workload.reference_path = None
        metrics = workload.run(bool(args.trace))
        if args.write_reference and not workload.outcome.failed:
            WIDE_REFERENCE.parent.mkdir(exist_ok=True)
            workload.first_trace.save(WIDE_REFERENCE)
            print(f"wrote {WIDE_REFERENCE}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, threads)
    print(f"# {args.workload} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in metrics.items():
        mark = "*" if name in names else " "
        print(f"{mark} {name:<28} {value:>14.6g} {unit:<6} {note}")
    outcome = workload.outcome
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    selected = metrics.select([name for name in names if name in metrics])
    finite = all(math.isfinite(entry["value"]) for entry in selected.values())
    for entry in selected.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    correct = outcome.failed == 0 and finite and len(selected) == len(names)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": selected,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
