"""The benchmark's layer tracer still sees the annihilation check, the
n = 3 blow-up and the exact identity suite.

``bergbench/layertrace.py`` wraps package functions by name and fails a
traced benchmark run when a wrapped layer never fires.  This runs a small
annihilation check, a small n = 3 blow-up and the identity suite up to
n = 3 under its ``Tracer``, so that a refactor which hides the operator,
the tensor reduction, the kernel, the family, the weight or the exact
layer from it fails here.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bergbench"))

import layertrace  # noqa: E402

import bergproj.experiments as experiments  # noqa: E402
import bergproj.symbolic as symbolic  # noqa: E402
from bergproj.quadrature import disc_rule, refine, singular_disc_rule  # noqa: E402


def test_annihilation_check_fires_traced_layers():
    n, rng = 2, np.random.default_rng(3)
    z_samples = 0.5 * rng.random((2, n)) * np.exp(2j * np.pi * rng.random((2, n)))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        report = experiments.annihilation_check(n, z_samples=z_samples)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert report.passed
    for name in ("apply_operator", "integrate_polydisc", "KernelSpec.evaluate"):
        assert tracer.fired[name] > 0, name
    assert metrics["kernels.apply_operator_calls"] == 2
    assert metrics["quadrature.reduce_calls"] == 2
    assert metrics["kernels.kernel_points"] > 0
    # one kernel value per sample point and tensor point of the base rule
    # and of its refinement
    base = disc_rule(*experiments.DEFAULT_ANNIHILATION_RULE_ORDERS[n])
    tensor_points = base.size**n + refine(base, 1.5, 1.5).size**n
    assert metrics["kernels.kernel_points"] == len(z_samples) * tensor_points
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


def test_identity_suite_fires_the_exact_layer():
    # cold caches, so the kernel table and the denominators are built
    # inside the traced run; the work counts are those of the tuple-keyed
    # layer, so packing the keys changed the speed of the work, not its
    # size, less the two products (t1 - t2) * diag that the mutated
    # decomposition controls at n = 2 and 3 no longer form once their
    # numerators have failed (2 calls, 2,565 term products)
    for built in (symbolic.full_denominator, symbolic.diagonal_denominator, symbolic.kernel_numerator):
        built.cache_clear()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        report = experiments.identity_suite(3, negative_controls=True)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert report.passed
    for name in ("MultiPoly.__mul__", "MultiPoly.eval", *layertrace.VERIFIERS):
        assert tracer.fired[name] > 0, name
    assert metrics["symbolic.poly_mul_calls"] == 352
    assert metrics["symbolic.term_products"] == 7797
