"""The bergproj benchmark: time to verdict on four workloads.

Usage, from the root of a checkout:

    python3 bergbench/run.py --workload blowup_n3 --seed 7 --seconds 30 --trace 0
    python3 bergbench/run.py --workload all

Every repetition runs in a fresh interpreter (child.py), one child at a
time, as each CLI command does.  A run repeats rounds while the next
round can end within ``--seconds``, and reports medians.  With
``--trace 0`` a round is a few setup-only launches and one repetition,
and the run prints the end-to-end metrics: run_ref_s and setup_s, wall
times scaled by the speed probe measured in the same child (speed.py),
and peak_rss_mb (peak resident set of the child, read through
os.wait4).  The unscaled run_s is printed beside them.  With
``--trace 1`` a round is an untraced and a traced repetition, and the
run prints the per-layer metrics.  Every result is checked against
reference.json; failed_frac is ``failed`` over ``attempted``.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("blowup_n3", "scan_n2", "weights", "kernel_checks")

#: setup-only launches per round, besides the setup of each repetition;
#: single setups spread widely on a shared machine
SETUP_LAUNCHES = 4
#: a run that has not ended by then is stopped and fails
DEADLINE_S = 170.0
#: children run single-threaded: BLAS thread pools started at import
#: make setup bimodal on a shared machine, and their spinning threads
#: compete with the measured one while adding nothing to wall time
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def launch(extra):
    """Run child.py once; returns its JSON result and peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["BERGBENCH_SRC"] = str(SRC)
    env.update(CHILD_THREADS)
    argv = [sys.executable, str(HERE / "child.py"), *extra]
    argv += ["--launched", repr(time.monotonic())]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        output = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(extra)} exited with {proc.returncode}")
    lines = output.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(extra)} printed no result")
    result = json.loads(lines[-1])
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return result


def scaled(seconds, result):
    """Seconds on a host where the speed probe takes speed.REF_S."""
    return seconds * speed.REF_S / result["probe_s"]


def environment(numpy_version):
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "child_threads_env": CHILD_THREADS,
        "git_commit": commit,
    }


def run_workload(workload, seed, seconds, trace):
    """All repetitions of one run; returns (summary, metrics)."""
    base = ["--workload", workload, "--seed", str(seed)]
    launch(["--setup-only"])  # warm the file cache and bytecode, untimed
    setups, plain, traced = [], [], []
    start = time.monotonic()
    while True:
        if trace:
            plain.append(launch(base))
            traced.append(launch(base + ["--trace"]))
        else:
            setups += [launch(["--setup-only"]) for _ in range(SETUP_LAUNCHES)]
            plain.append(launch(base))
        elapsed = time.monotonic() - start
        # rounds take about equally long; start one only if it can end
        # within the budget
        if elapsed * (1 + 1 / len(plain)) > seconds:
            break
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for rep in reps:
        for message in rep["failures"]:
            print(f"FAILED {workload}: {message}", file=sys.stderr)
    run_s = median([r["run_s"] for r in plain])
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = median([r["layers"][name] for r in traced])
        layers["trace.overhead_frac"] = median([r["run_s"] for r in traced]) / run_s - 1.0
        metrics = layers
    else:
        launched = setups + plain
        metrics = {
            "run_ref_s": median([scaled(r["run_s"], r) for r in plain]),
            "setup_s": median([scaled(r["setup_s"], r) for r in launched]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
    summary = {
        "workload": workload,
        "seed": seed,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "setup_samples": len(setups) + len(plain),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "run_s": run_s,
        "run_s_samples": [r["run_s"] for r in plain],
        "probe_ms_samples": [r["probe_s"] * 1e3 for r in plain if "probe_s" in r],
        "unscaled_setup_s": median([r["setup_s"] for r in setups + plain]),
        "env": environment(plain[0]["numpy"]),
    }
    return summary, metrics


def unit(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _deadline(signum, frame):
    raise BenchError(f"the run did not end within {DEADLINE_S:.0f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bergproj" / "cli.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(int(DEADLINE_S * len(workloads)))
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            summary, found = run_workload(workload, args.seed, args.seconds, args.trace)
            attempted += summary["attempted"]
            failed += summary["failed"]
            print(json.dumps(summary))
            print(f"{workload}: failed_frac = {summary['failed_frac']:.6g} ratio"
                  f" ({summary['failed']} of {summary['attempted']} operations)")
            print(f"{workload}: run_s = {summary['run_s']:.6g} s (unscaled wall time)")
            for name, value in found.items():
                print(f"{workload}: {name} = {value:.6g} {unit(name)}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": unit(name)}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
