"""One repetition of a workload, in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the package sources.
Prints one JSON object as its last line of standard output:
``setup_s`` (interpreter start plus importing ``bergproj.cli``, timed
from the parent's launch stamp) and ``probe_s``, the mean time of the
speed probe (speed.py), and unless ``--setup-only`` also ``run_s``, the
operation counts of the reference check and, with ``--trace``, the
per-layer metrics.  A setup-only launch probes after the imports; an
untraced repetition samples the probe while the workload runs and
leaves the probes' time out of ``run_s``; a traced one does not probe.
It exits non-zero, naming the layer, when the trace cannot see a layer
it measures.

``--write-reference`` runs the workload at the default seed and writes
its operations to reference.json instead.
"""

import sys
import time

import bergproj.cli  # noqa: F401  -- the import is what setup_s measures

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import speed  # noqa: E402
from layertrace import TraceError, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: probes of a setup-only launch
SETUP_PROBES = 8


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() of the parent just before the launch")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args()


def main():
    args = parse_args()
    out = {"setup_s": IMPORTED - args.launched, "numpy": np.__version__}
    src = Path(bergproj.cli.__file__).resolve().parents[1]
    if src != Path(os.environ["BERGBENCH_SRC"]).resolve():
        sys.exit(f"bergproj was imported from {src}, not from the checkout")
    if args.setup_only:
        out["probe_s"] = speed.sample_now(SETUP_PROBES)
        print(json.dumps(out))
        return

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    # imported after the tracer so its package bindings are the wrapped ones
    import workloads

    if args.write_reference:
        results = workloads.run_workload(args.workload, workloads.DEFAULT_SEED)
        raised = {g: r for g, r in results.items() if isinstance(r, Exception)}
        if raised:
            sys.exit(f"cannot write a reference, groups raised: {raised}")
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference[args.workload] = results
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return

    reference = json.loads(REFERENCE.read_text())[args.workload]
    sampler = None if tracer else speed.Sampler()
    if sampler:
        sampler.start()
    start = time.perf_counter()
    try:
        results = workloads.run_workload(args.workload, args.seed)
        out["run_s"] = time.perf_counter() - start
    finally:
        if sampler:
            sampler.stop()
    if sampler:
        out["run_s"] -= sampler.probed_s()
        out["probe_s"] = sampler.mean_s()

    if args.seed == workloads.DEFAULT_SEED:
        numbered = set(reference)
    else:
        numbered = set(reference) - workloads.SEEDED_GROUPS
    attempted, failed, messages = workloads.compare(results, reference, numbered)
    out.update(attempted=attempted, failed=failed, failures=messages[:20])

    if tracer is not None:
        tracer.uninstall()
        tracer.check_fired(args.workload)
        out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    except TraceError as exc:
        sys.exit(f"trace: {exc}")
