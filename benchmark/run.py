"""dpris benchmark: one workload per invocation, end to end or traced by layer.

Run from the repository root:

    python3 benchmark/run.py --workload sweep-a --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    sweep-a   ber-sweep, fidelity A, calibrated CSI, 7 points x 8M bits
    scan-b    coupling design scan: 36 ber-sweeps, fidelity B, pilot CSI
    loopback  file-loopback of a 4 MiB seeded random payload
    oracle    oracle-check with 4000 cases per suite

Every workload is a closed loop with one client: the next command starts
when the previous one has returned.  All inputs (config JSON files and the
payload) are generated from ``--seed``; the program sees only those files.
The program is the ``dpris`` package under ``src/`` of the checkout this
script sits in, called through ``dpris.cli.main`` and the public functions
of its modules.  Without that package the script exits with code 2 and
prints no result.

``--trace 0`` times the commands untraced and reports the ``end_to_end``
metrics of BENCHMARK.json; ``--trace 1`` replays the same commands layer by
layer with spans and reports the ``per_layer`` metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment block, samples,
check details, ratio bases) and, for traced runs, the spans are written
under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned to one thread before numpy is first imported,
# so ``--threads`` is the only source of parallelism the benchmark sees.
PINNED_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep-a", "scan-b", "loopback", "oracle")


def _import_program():
    """Import dpris from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "dpris" / "__init__.py").is_file():
        print(f"benchmark: no dpris package under {SRC}; nothing to measure", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import dpris

    if Path(dpris.__file__).resolve().parent != (SRC / "dpris").resolve():
        print(f"benchmark: dpris imported from {dpris.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return dpris


def _environment(seed: int, threads: list[int]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "pinned": {var: os.environ[var] for var in PINNED_THREAD_VARS},
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    dpris = _import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    started = time.perf_counter()
    try:
        workload = workloads.WORKLOADS[args.workload]
        commands = workload.generate(args.seed, workdir)
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            result = tracing.run_traced(workload, commands, args.seconds, workdir, spans)
        else:
            result = workloads.run_untraced(workload, commands, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = {m["name"] for m in listed} ^ set(result.metrics)
    if mismatch:
        print(f"benchmark: metrics differ from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    env = _environment(args.seed, result.threads)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "dpris_version": dpris.__version__,
        "environment": env,
        "elapsed_s": time.perf_counter() - started,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_fraction": result.failed / result.attempted,
        "failures": result.failures,
        "metrics": result.metrics,
        "details": result.details,
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")

    units = {m["name"]: m["unit"] for m in listed}
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace})")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in result.report:
        print(line)
    for name in sorted(result.metrics):
        print(f"  {name} = {result.metrics[name]:.6g} {units[name]}")
    print(f"  failed_fraction = {record['failed_fraction']:.6g} ({result.failed}/{result.attempted} commands)")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    print(f"record: {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
