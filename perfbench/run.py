"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload appnp-cheb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one process each

The inputs of a (workload, seed) are generated once, in a child process, into
``perfbench/.work/``. The session then runs in this process with the package
imported from ``src/``. ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every operation and output check succeeded, 1 when one failed, and 2 when the
package source is missing.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
GENERATE_TIMEOUT_S = 600
WORKLOAD_TIMEOUT_S = 900


def pin_threads() -> dict:
    """One nodespec kernel thread and one BLAS/OpenMP thread, so the load is
    one process with no more threads than cores.

    On a small shared host a second BLAS thread waits on a contended core
    and makes times slower and less steady. Must run before numpy is
    imported; returns the settings it made.
    """
    pinned = {"nproc": len(os.sched_getaffinity(0))}
    for var in ("NODESPEC_THREADS", *BLAS_THREAD_VARS):
        os.environ[var] = "1"
        pinned[var] = 1
    return pinned


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def fingerprint(threads: dict) -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(os.path.join(index, "size")).strip()
    mem = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    return {"cpu": cpu, "caches": caches, "ram": mem,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": threads}


def find_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nodespec", "__init__.py")):
        raise FileNotFoundError(
            f"no package source at {src}/nodespec; run from the repository root")
    return src


def generate_inputs(workload: str, seed: int) -> str:
    """Generate the (workload, seed) inputs once; drop other seeds' inputs."""
    out = os.path.join(WORK, f"{workload}-{seed}")
    if not os.path.isdir(out):
        for old in glob.glob(os.path.join(WORK, f"{workload}-*")):
            shutil.rmtree(old, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "csbm.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", out], check=True, timeout=GENERATE_TIMEOUT_S)
    return out


def run_one(args, workload, threads) -> dict:
    work_dir = generate_inputs(workload.name, args.seed)
    import session
    correct, attempted, failed, metrics, units = session.run(
        workload, args.seed, args.seconds, args.trace, work_dir)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "fingerprint": fingerprint(threads)}))
    for name, value in metrics.items():
        print(f"{name:46s} {value:>16.6g} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args, names) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join([f"== {name}"] + lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None) -> int:
    # Thread settings must be in the environment before numpy is imported,
    # and the workload table imports numpy.
    threads = pin_threads()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description="nodespec benchmark")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sys.path.insert(0, find_source(os.getcwd()))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args, list(WORKLOADS))
    else:
        result = run_one(args, WORKLOADS[args.workload], threads)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
