"""The benchmark's layer tracer still sees the annihilation check and the
n = 3 blow-up.

``bergbench/layertrace.py`` wraps package functions by name and fails a
traced benchmark run when a wrapped layer never fires.  This runs a small
annihilation check and a small n = 3 blow-up under its ``Tracer``, so that
a refactor which hides the operator, the tensor reduction, the kernel,
the family or the weight from it fails here.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bergbench"))

import layertrace  # noqa: E402

import bergproj.experiments as experiments  # noqa: E402
from bergproj.quadrature import singular_disc_rule  # noqa: E402


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


def test_n3_blowup_fires_traced_layers():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        report = experiments.blowup_experiment(3, 3.0, (0.7, 0.9), rule=(4, 6))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert report.passed
    pinned = (
        "apply_operator",
        "KernelSpec.evaluate",
        "test_function_hs",
        "tilde_shape",
        "integrate_polydisc",
        "WeightSpec.evaluate",
    )
    for name in pinned:
        assert tracer.fired[name] > 0, name
    # one operator call for both calibration points, and one symmetrized
    # kernel value per point and sorted triple of the calibration rule
    assert metrics["kernels.apply_operator_calls"] == 1
    assert metrics["quadrature.reduce_calls"] == 1
    size = singular_disc_rule(experiments.CALIBRATION_S, 5, 8).size
    assert metrics["kernels.kernel_points"] == 2 * math.comb(size + 2, 3)
