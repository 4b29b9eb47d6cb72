"""The benchmark's layer tracer still sees the annihilation check.

``bergbench/layertrace.py`` wraps package functions by name and fails a
traced benchmark run when a wrapped layer never fires.  This runs a small
annihilation check under its ``Tracer`` so that a refactor which hides
the operator, the tensor reduction or the kernel from it fails here.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bergbench"))

import layertrace  # noqa: E402

import bergproj.experiments as experiments  # noqa: E402


def test_annihilation_check_fires_traced_layers():
    rng = np.random.default_rng(3)
    z_samples = 0.5 * rng.random((2, 2)) * np.exp(2j * np.pi * rng.random((2, 2)))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        report = experiments.annihilation_check(2, z_samples=z_samples)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert report.passed
    for name in ("apply_operator", "integrate_polydisc", "KernelSpec.evaluate"):
        assert tracer.fired[name] > 0, name
    assert metrics["kernels.apply_operator_calls"] == 2
    assert metrics["quadrature.reduce_calls"] == 2
    assert metrics["kernels.kernel_points"] > 0
    # the tracer is gone again
    assert not hasattr(experiments.annihilation_check, "__wrapped__")
