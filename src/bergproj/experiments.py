"""Experiment drivers: the norm-ratio blow-up at the critical exponent,
the boundedness scan inside the regular range, the exact-identity suite,
the annihilation check for the symmetric kernel part, the growth-integral
classification and the weight-class table of the Bekolle-Bonami constant.

Every driver returns an :class:`ExperimentReport` whose JSON form is
schema-versioned and reproducible (same inputs and seed give the same
bytes, up to the wall-time field).  All quadrature-based numbers carry a
convergence delta measured by re-running on a refined rule; a delta above
5% aborts the run with :class:`QuadratureNotConverged`.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import permutations

import numpy as np

from . import symbolic
from .errors import AmbiguousFit, NonIntegrable, OverflowInIntegrand, QuadratureNotConverged
from .estimates import (
    CLASSIFICATION_SAMPLES,
    bb_norm_bound,
    bekolle_bonami_estimate,
    classify_forelli_rudin,
)
from .kernels import (
    KernelSpec,
    apply_operator,
    family_factors,
    pair_sums,
    shape_from_sums,
    symmetric_top_from_sums,
    test_function_hs,
    tilde_shape,
)
from .symmetrization import Permutation, jacobian_phi
from .quadrature import (
    PairTable,
    WeightSpec,
    _check_finite,
    _on_circle,
    disc_rule,
    pairwise_sum,
    refine,
    singular_disc_rule,
)

SCHEMA_VERSION = "1"

#: the JSON schema of every report; no driver reads it, the tests validate
#: each command's report against it
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "schema_version",
        "experiment",
        "n",
        "p",
        "s_grid",
        "rows",
        "fit",
        "quadrature",
        "seed",
        "wall_time_s",
        "passed",
        "notes",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {
            "enum": [
                "blowup",
                "scan",
                "identities",
                "annihilation",
                "forelli-rudin",
                "bekolle-bonami",
            ]
        },
        "n": {"type": ["integer", "null"]},
        "p": {"type": ["number", "null"]},
        "s_grid": {
            "type": ["array", "null"],
            "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        },
        "rows": {"type": "array", "items": {"type": "object"}},
        "fit": {"type": ["object", "null"]},
        "quadrature": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
        "wall_time_s": {"type": "number"},
        "passed": {"type": "boolean"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}

DEFAULT_S_GRID = (0.9, 0.99, 0.999, 0.9999)
# the scan compares the ratio spread against an absolute bound, so its
# default grid stops where transient growth of large-but-bounded
# operators (p just inside an endpoint) would blur the verdict; the
# blow-up fit instead benefits from the deepest reachable grid
DEFAULT_SCAN_S_GRID = (0.9, 0.99, 0.999)
# (radial order, angular order) for the per-s singular rules; the triple
# tensor product at n = 3 is the cost driver, so it runs leaner
DEFAULT_NORM_ORDERS = {2: (8, 16), 3: (5, 10)}
REFINE_FACTORS = {2: (1.5, 1.5), 3: (1.4, 1.4)}
CALIBRATION_S = 0.7
CALIBRATION_POINTS = {
    2: ((0.3 + 0.0j, -0.2 + 0.0j), (0.1 + 0.2j, -0.4 + 0.0j)),
    3: ((0.3 + 0.0j, -0.2 + 0.0j, 0.1 + 0.0j), (0.1 + 0.2j, -0.4 + 0.0j, 0.25 + 0.0j)),
}
MAX_NORM_DELTA = 0.05
MAX_CALIBRATION_RESIDUAL = 0.02
FLAT_RATIO_BOUND = 4.0

JACOBIAN_SQUARED = WeightSpec.jacobian_power(2.0)


@dataclass
class ExperimentReport:
    """Schema-versioned result of one experiment run."""

    experiment: str
    rows: list
    quadrature: dict
    wall_time_s: float
    passed: bool
    n: int | None = None
    p: float | None = None
    s_grid: list | None = None
    fit: dict | None = None
    seed: int | None = None
    notes: list = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


def write_ratio_csv(report: ExperimentReport, path) -> None:
    """Plain-text plot data: one line per (p, s) cell of a ratio run."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["s", "h_norm_power", "image_norm_power", "ratio", "neg_log_one_minus_s"]
        )
        for row in report.rows:
            cells = row["cells"] if "cells" in row else [row]
            for cell in cells:
                writer.writerow(
                    [
                        cell["s"],
                        cell["h_norm_power"],
                        cell["image_norm_power"],
                        cell["ratio"],
                        cell["neg_log_one_minus_s"],
                    ]
                )


def _fit_line(x, y):
    """Least-squares fit y = alpha + beta x with stderr(beta) and R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = len(x) - 2
    if dof > 0:
        sigma_sq = ss_res / dof
        covariance = sigma_sq * np.linalg.inv(design.T @ design)
        beta_stderr = float(math.sqrt(covariance[1, 1]))
    else:
        beta_stderr = None
    return {
        "alpha": float(coef[0]),
        "beta": float(coef[1]),
        "beta_stderr": beta_stderr,
        "r_squared": r_squared,
        "residuals": [float(r) for r in residuals],
    }


def _log_log_slope(s_grid, values):
    """Exponent of values ~ (1-s)^e, by a log-log fit."""
    x = np.log1p(-np.asarray(s_grid, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _calibrate_image_constant(n, orders):
    """Fit the constant relating the operator image of the test family to
    its closed shape, by honest quadrature at a moderate parameter.

    The image of the blow-up family under the symmetric-side operator is
    an exact constant multiple of :func:`tilde_shape`; the constant is
    measured (never assumed) here, and its consistency across evaluation
    points is the convergence check for the rest of the run.  Both points
    go through one operator call, so each chunk of the rule is evaluated
    by the family once.
    """
    rule = singular_disc_rule(CALIBRATION_S, orders[0] + 1, orders[1] + 2)
    spec = KernelSpec(family="tilde", n=n)

    def family(pts):
        return test_function_hs(n, CALIBRATION_S, pts)

    points = np.asarray(CALIBRATION_POINTS[n])
    images = apply_operator(spec, family, points, rule, symmetric_f=True)
    ratios = [
        complex(image) / complex(tilde_shape(n, CALIBRATION_S, z))
        for image, z in zip(images, points)
    ]
    constant = sum(ratios) / len(ratios)
    residual = max(abs(r - constant) for r in ratios) / abs(constant)
    if residual > MAX_CALIBRATION_RESIDUAL:
        raise QuadratureNotConverged(
            f"image-constant calibration residual {residual:.1e} "
            f"exceeds {MAX_CALIBRATION_RESIDUAL}"
        )
    return constant, residual


def _norm_sums(n, s, rule, p_list, constant):
    """Weighted L^p sums of h_s and of its image at every p, in one pass.

    These are the sums of |f|^p against the squared-Vandermonde weight that
    :func:`integrate_polydisc` makes over the blocks of ``rule``, with the
    same products and summation tree, from per-node factor tables.  Each
    block is summed by :func:`pairwise_sum` in parts of at most
    ``BLOCK_CHUNK`` tuples, each summed at every p as soon as it is made.
    The rule's one :class:`PairTable` also holds each pair's weight
    |w_j - w_k|^2 and what the last two indices add to the family and its
    image: g_j + g_k, g_j g_k, r_j + r_k, r_j r_k and c_j c_k for the
    factors (g, r, c) of :func:`family_factors`.  Returns ``{"h": [...],
    "image": [...]}``, per p the sum or the :class:`OverflowInIntegrand`
    its integrand raised.
    """
    g, r, c = factors = family_factors(n, s, rule.nodes)

    def pair_values(j, k):
        yield JACOBIAN_SQUARED.evaluate(np.stack([rule.nodes.take(j), rule.nodes.take(k)], axis=1))
        yield from pair_sums(n, g.take(j), g.take(k))
        yield from pair_sums(n, r.take(j), r.take(k))
        yield c.take(j) * c.take(k)

    table = PairTable(rule.weights, n, pair_values)
    out = {"h": [0.0] * len(p_list), "image": [0.0] * len(p_list)}
    # _check_finite raises on a non-finite integrand; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for prefix, length, tuples in table.blocks():
            g_prefix, r_prefix, c_prefix = ([x[i] for i in prefix] for x in factors)

            def part_sums(parts):
                for part in parts:
                    j, k, tensor_weight, pair = tuples(part)
                    weight, g_sum, g_prod, r_sum, r_prod, c_prod = pair
                    if prefix:
                        weight = table.prefix_product(prefix, j, k) * weight
                    # each value is taken in modulus in the expression that makes it,
                    # so that no complex temporary outlives its part; numpy then
                    # reuses the shape's temporary for the product with the
                    # constant, as it always has
                    values = {
                        "h": np.abs(symmetric_top_from_sums(g_prefix, g_sum, g_prod)),
                        "image": np.abs(
                            constant * shape_from_sums(s, r_prefix, c_prefix, r_sum, r_prod, c_prod)
                        ),
                    }
                    sums = np.zeros((2, len(p_list)))
                    for row, (kind, absolute) in enumerate(values.items()):
                        for index, p in enumerate(p_list):
                            if isinstance(out[kind][index], Exception):
                                continue
                            integrand = absolute**p * weight
                            where = f"symmetric n={n}, prefix={prefix}, from {part.start}"
                            try:
                                _check_finite(integrand, where)
                            except OverflowInIntegrand as exc:
                                out[kind][index] = exc
                                continue
                            integrand *= tensor_weight
                            sums[row, index] = np.sum(integrand)
                    yield sums

            total = pairwise_sum(length, part_sums)
            for row, kind in enumerate(out):
                for index, value in enumerate(total[row]):
                    if not isinstance(out[kind][index], Exception):
                        out[kind][index] += value
    return out


def _norm_power(total, p):
    """The p-th power of the norm from its sum, rounded through the norm:
    (total^(1/p))^p."""
    if isinstance(total, Exception):
        raise total
    return (float(total) ** (1.0 / p)) ** p


def _ratio_cell(s, sums, index, p):
    """The ratio cell at s for the p at ``index`` of the fused sums of the
    coarse and the refined rule; raises if either norm has not converged."""
    powers, deltas = {}, {}
    for kind in ("h", "image"):
        coarse, value = (_norm_power(rule[kind][index], p) for rule in sums)
        delta = abs(value - coarse) / abs(value)
        if delta > MAX_NORM_DELTA:
            raise QuadratureNotConverged(
                f"norm at s={s} moved by {delta:.1%} under rule refinement"
            )
        powers[kind], deltas[kind] = value, delta
    return {
        "s": float(s),
        "h_norm_power": powers["h"],
        "h_delta": deltas["h"],
        "image_norm_power": powers["image"],
        "image_delta": deltas["image"],
        "ratio": powers["image"] / powers["h"],
        "neg_log_one_minus_s": -math.log1p(-s),
    }


def _ratio_cells(n, p_list, s_grid, orders, factors, constant):
    """Ratio cells for every p: one list of cells per p, in order.

    Each rule is built and summed once for all p and both functions;
    errors are raised in the order of separate runs: p, then s, then the
    family before its image.  The first p is checked as soon as each s is
    summed, since none of its errors can follow another, so a run that
    fails there stops before summing the deeper s.
    """
    sums, first = {}, []
    for s in s_grid:
        base = singular_disc_rule(s, *orders)
        fine = refine(base, *factors)
        sums[s] = [_norm_sums(n, s, rule, p_list, constant) for rule in (base, fine)]
        first.append(_ratio_cell(s, sums[s], 0, p_list[0]))
    out = [first]
    for index, p in enumerate(p_list[1:], start=1):
        out.append([_ratio_cell(s, sums[s], index, p) for s in s_grid])
    return out


def _check_ratio_inputs(n, s_grid):
    if n not in (2, 3):
        raise ValueError("ratio experiments run at n = 2 or n = 3")
    s_grid = tuple(float(s) for s in s_grid)
    if any(not 0.0 < s < 1.0 for s in s_grid):
        raise ValueError("the s grid must lie strictly inside (0, 1)")
    if len(s_grid) < 2:
        # a line through one point fits it exactly with any slope, and
        # least squares then reports a positive one
        raise ValueError("the s grid needs at least two points for the ratio fit")
    if list(s_grid) != sorted(set(s_grid)):
        raise ValueError("the s grid must be strictly increasing")
    return s_grid


def _quadrature_descriptor(orders, factors, calibration_residual):
    return {
        "family": "polar-graded-at-1/s",
        "radial_order": orders[0],
        "angular_order": orders[1],
        "refinement_factors": list(factors),
        "calibration_s": CALIBRATION_S,
        "calibration_residual": calibration_residual,
    }


def blowup_experiment(n, p, s_grid=None, rule=None) -> ExperimentReport:
    """Ratio r(s) of the weighted p-norm powers of the operator image of
    the blow-up family against the family itself, with the linear fit of
    r(s) on -log(1-s).

    ``rule`` is a (radial_order, angular_order) pair for the singular
    per-s rules; defaults are dimension-tuned.
    """
    start = time.time()
    s_grid = _check_ratio_inputs(n, DEFAULT_S_GRID if s_grid is None else s_grid)
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    orders = tuple(rule) if rule is not None else DEFAULT_NORM_ORDERS[n]
    factors = REFINE_FACTORS[n]

    constant, residual = _calibrate_image_constant(n, orders)
    (cells,) = _ratio_cells(n, [p], s_grid, orders, factors, constant)

    ratios = [c["ratio"] for c in cells]
    fit = _fit_line([c["neg_log_one_minus_s"] for c in cells], ratios)
    fit["strictly_increasing"] = all(a < b for a, b in zip(ratios, ratios[1:]))
    fit["h_norm_exponent"] = _log_log_slope(s_grid, [c["h_norm_power"] for c in cells])
    fit["image_norm_exponent"] = _log_log_slope(
        s_grid, [c["image_norm_power"] for c in cells]
    )
    fit["image_constant"] = {"re": constant.real, "im": constant.imag}

    critical = 2.0 * n / (n - 1.0)
    notes = [
        "fit is over the computed grid only; no extrapolation past max(s)",
    ]
    if math.isclose(p, critical):
        notes.append("p equals the critical exponent 2n/(n-1)")
    return ExperimentReport(
        experiment="blowup",
        n=n,
        p=float(p),
        s_grid=list(s_grid),
        rows=cells,
        fit=fit,
        quadrature=_quadrature_descriptor(orders, factors, residual),
        wall_time_s=time.time() - start,
        passed=bool(fit["strictly_increasing"] and fit["beta"] > 0.0),
        notes=notes,
    )


def boundedness_scan(n, p_list, s_grid=None, rule=None) -> ExperimentReport:
    """Flat-or-growing verdict of the norm ratio r(s) for each p.

    A finite grid cannot prove boundedness; the verdicts are consistency
    checks.  Expected verdicts come from the open interval
    (2n/(n+1), 2n/(n-1)): strictly inside means flat, at or beyond an
    endpoint means growing.
    """
    start = time.time()
    s_grid = _check_ratio_inputs(n, DEFAULT_SCAN_S_GRID if s_grid is None else s_grid)
    p_list = [float(p) for p in p_list]
    if not p_list or any(p <= 1.0 for p in p_list):
        raise ValueError("every scanned p must exceed 1")
    orders = tuple(rule) if rule is not None else DEFAULT_NORM_ORDERS[n]
    factors = REFINE_FACTORS[n]

    constant, residual = _calibrate_image_constant(n, orders)
    lower = 2.0 * n / (n + 1.0)
    upper = 2.0 * n / (n - 1.0)

    rows = []
    all_consistent = True
    per_p = _ratio_cells(n, p_list, s_grid, orders, factors, constant)
    for p, cells in zip(p_list, per_p):
        ratios = [c["ratio"] for c in cells]
        spread = max(ratios) / min(ratios)
        verdict = "flat" if spread < FLAT_RATIO_BOUND else "growing"
        inside = lower < p < upper and not (
            math.isclose(p, lower) or math.isclose(p, upper)
        )
        # the ratio diagnostic witnesses the failure at and beyond the
        # upper endpoint; below the lower endpoint the failure lives on
        # the dual side, where this symmetric family stays flat
        expected = (
            "growing" if p > upper or math.isclose(p, upper) else "flat"
        )
        consistent = verdict == expected
        all_consistent = all_consistent and consistent
        rows.append(
            {
                "p": p,
                "cells": cells,
                "ratio_max_over_min": spread,
                "verdict": verdict,
                "expected": expected,
                "consistent": consistent,
                "theory_bounded": inside,
                "at_or_beyond_endpoint": not inside,
            }
        )

    return ExperimentReport(
        experiment="scan",
        n=n,
        s_grid=list(s_grid),
        rows=rows,
        quadrature=_quadrature_descriptor(orders, factors, residual),
        wall_time_s=time.time() - start,
        passed=all_consistent,
        notes=[
            "verdicts are consistent-with statements over a finite grid,"
            " not boundedness proofs",
            f"flat means max/min of r(s) below {FLAT_RATIO_BOUND}",
            "a flat ratio at or below the lower endpoint is expected:"
            " that failure is dual-sided and invisible to this family"
            " (see theory_bounded per row)",
        ],
    )


_VERIFIER_TABLE = (
    ("ab_identity", symbolic.verify_ab_identity, 2, 4),
    ("kernel_decomposition", symbolic.verify_kernel_decomposition, 2, 4),
    ("pI_expansion", symbolic.verify_pI_expansion, 1, 3),
    ("vandermonde_expansion", symbolic.verify_vandermonde_expansion, 2, 5),
    ("partial_fraction", symbolic.verify_partial_fraction, 3, 5),
)


def identity_suite(max_n, negative_controls=False) -> ExperimentReport:
    """Run every exact-identity verifier up to its index cap (bounded by
    ``max_n``), optionally with mutated negative controls that must fail.
    """
    start = time.time()
    if not 2 <= max_n <= 5:
        raise ValueError("the identity suite runs for max_n between 2 and 5")

    rows = []
    all_passed = True
    for name, verifier, low, cap in _VERIFIER_TABLE:
        for index in range(low, min(cap, max_n) + 1):
            variants = [(False, True)]
            if negative_controls:
                variants.append((True, False))
            for mutate, expected in variants:
                details = {}
                outcome = bool(verifier(index, mutate=mutate, collect=details))
                passed = outcome == expected
                all_passed = all_passed and passed
                rows.append(
                    {
                        "verifier": name,
                        "index": index,
                        "mutated": mutate,
                        "outcome": outcome,
                        "expected": expected,
                        "passed": passed,
                        "details": details,
                    }
                )

    return ExperimentReport(
        experiment="identities",
        n=max_n,
        rows=rows,
        quadrature={"family": "exact-rational"},
        wall_time_s=time.time() - start,
        passed=all_passed,
        notes=["all checks run in exact Gaussian-rational arithmetic"],
    )


# annihilation is a pointwise cancellation, so modest orders suffice; the
# full-tensor triple product at n = 3 makes large rules expensive
DEFAULT_ANNIHILATION_RULE_ORDERS = {2: (8, 16), 3: (4, 8)}
ANNIHILATION_SAMPLES = 20
ANNIHILATION_FLOOR = 1e-12
CONTROL_THRESHOLD = 1e-3


def _alternating_monomial(exponents):
    """Antisymmetrization of a coordinate monomial over all permutations.

    The permutations of the len(exponents) coordinates and their signs
    are listed once, and each call raises each coordinate to each
    exponent once; every permutation multiplies those powers in its own
    order.
    """
    slots = range(len(exponents))
    signed = [(perm, Permutation(perm).sign) for perm in permutations(slots)]

    def evaluate(pts):
        pts = np.asarray(pts)
        powers = {(slot, e): pts[:, slot] ** e for slot in slots for e in exponents}
        out = np.zeros(pts.shape[0], dtype=complex)
        for perm, sign in signed:
            term = np.ones(pts.shape[0], dtype=complex)
            for slot, exponent in zip(perm, exponents):
                term *= powers[slot, exponent]
            out += sign * term
        return out

    return evaluate


def default_annihilation_samples(n, seed=7):
    """``ANNIHILATION_SAMPLES`` seeded interior sample points for the annihilation check."""
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.0, 0.75, (ANNIHILATION_SAMPLES, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, (ANNIHILATION_SAMPLES, n))
    return radius * np.exp(1j * angle)


def annihilation_check(n, z_samples=None, seed=7) -> ExperimentReport:
    """Maximum modulus of the antisymmetric-annihilating kernel part
    applied to alternating test functions, with a non-alternating control.

    A test function passes when the maximum stays below ten times the
    rule-refinement delta (plus a roundoff floor); the control passes when
    its maximum is macroscopic.  The operator runs twice, once on the base
    rule and once on the refined one, each time on all sample points and
    all functions at once, so each kernel value serves every function.
    """
    start = time.time()
    if n not in (2, 3):
        raise ValueError("the annihilation check runs at n = 2 or n = 3")
    if z_samples is None:
        z_samples = default_annihilation_samples(n, seed=seed)
    z_samples = np.asarray(z_samples)
    rule = disc_rule(*DEFAULT_ANNIHILATION_RULE_ORDERS[n])
    fine = refine(rule, 1.5, 1.5)
    spec = KernelSpec(family="t1", n=n)

    monomial = {2: (2, 0), 3: (3, 1, 0)}[n]
    functions = [
        ("vandermonde", jacobian_phi, "zero"),
        ("alternating_monomial", _alternating_monomial(monomial), "zero"),
        ("first_coordinate_control", lambda pts: np.asarray(pts)[:, 0], "nonzero"),
    ]

    def stacked(pts):
        return np.stack([function(pts) for _, function, _ in functions])

    # one call per rule: every function at every sample point, shape (Z, F)
    base_values = apply_operator(spec, stacked, z_samples, rule)
    fine_values = apply_operator(spec, stacked, z_samples, fine)
    rows = []
    all_passed = True
    columns = zip(functions, base_values.T, fine_values.T)
    for (name, _, expected), base_col, fine_col in columns:
        max_abs = float(np.max(np.abs(fine_col)))
        delta = float(np.max(np.abs(fine_col - base_col)))
        if expected == "zero":
            threshold = 10.0 * delta + ANNIHILATION_FLOOR
            passed = max_abs < threshold
        else:
            threshold = CONTROL_THRESHOLD
            passed = max_abs > threshold
        all_passed = all_passed and passed
        rows.append(
            {
                "function": name,
                "expected": expected,
                "max_abs": max_abs,
                "delta": delta,
                "threshold": threshold,
                "passed": passed,
            }
        )

    return ExperimentReport(
        experiment="annihilation",
        n=n,
        rows=rows,
        quadrature={
            "base": dict(rule.descriptor),
            "refinement_factors": [1.5, 1.5],
            "sample_count": int(len(z_samples)),
        },
        seed=seed,
        wall_time_s=time.time() - start,
        passed=all_passed,
        notes=["alternating inputs must be annihilated; the control must not be"],
    )


def growth_class_check(eps, s_exp, samples=None) -> ExperimentReport:
    """Growth class of the Forelli-Rudin integral against the three-case
    theory: Bounded for s_exp > 0, Log at s_exp = 0, Power below.

    ``samples`` are the radii of the fit (``CLASSIFICATION_SAMPLES`` by
    default); each row holds the integral at one of them.  An ambiguous
    fit gives a failed report with no fit and the reason in its notes.
    """
    start = time.time()
    radii = CLASSIFICATION_SAMPLES if samples is None else samples
    radii = tuple(float(r) for r in radii)
    try:
        outcome = classify_forelli_rudin(eps, s_exp, samples=radii)
    except AmbiguousFit as exc:
        rows, fit, notes = [], None, [f"ambiguous: {exc}"]
    else:
        rows = [{"r": r, "value": value} for r, value in zip(radii, outcome.values)]
        fit = {
            "label": outcome.label,
            "fitted_exponent": outcome.fitted_exponent,
            "residuals": outcome.residuals,
            "matches_theory": outcome.matches_theory,
        }
        notes = ["the label is the model with the smallest relative residual"]
    return ExperimentReport(
        experiment="forelli-rudin",
        rows=rows,
        fit=fit,
        quadrature={"family": "growth-adapted", "eps": float(eps), "s_exp": float(s_exp)},
        wall_time_s=time.time() - start,
        passed=fit is not None and fit["matches_theory"],
        notes=notes,
    )


def _leaves_weight_class(points, p):
    """Whether the weight prod_a |w - a|^(2-p) leaves the class at p.

    Near a point a of the closed disc that occurs c times, the weight is
    of the order |w - a|^e with e = c(2-p), and its dual power
    u^(-1/(p-1)) of the order |w - a|^(-e/(p-1)).  A power of |w - a| is
    integrable near a, on a disc or a half disc, exactly when its exponent
    exceeds -2.  Points outside the closed disc keep both bounded on it.
    A point within 1e-9 of the circle counts as on it, as the polar rule
    that integrates the weight about it takes it to be.
    """
    for a, count in Counter(points).items():
        if abs(a) <= 1.0 or _on_circle(abs(a)):
            e = count * (2.0 - p)
            worst = min(e, -e / (p - 1.0))
            if worst < -2.0 or math.isclose(worst, -2.0):
                return True
    return False


def weight_class_check(weight, p_list, points) -> ExperimentReport:
    """Bekolle-Bonami constant of prod_a |w - a|^(2-p) at each p, with a
    verdict: the estimate is divergent exactly where the weight leaves the
    class by the exponent count of :func:`_leaves_weight_class`.

    ``weight`` names the family: ``up`` takes one reference point, ``vp``
    several.  For one point the weight stays in the class for p in
    (4/3, 4).
    """
    start = time.time()
    if weight not in ("up", "vp"):
        raise ValueError(f"unknown weight family {weight!r}")
    points = [complex(a) for a in points]
    if weight == "up" and len(points) != 1:
        raise ValueError(f"the weight up takes one reference point, not {len(points)}")
    p_list = [float(p) for p in p_list]
    if not p_list or any(p <= 1.0 for p in p_list):
        raise ValueError("the p list must be non-empty and every p must exceed 1")

    rows = []
    for p in p_list:
        try:
            estimate = bekolle_bonami_estimate(WeightSpec.point_product(points, 2.0 - p), p)
            norm_bound, reason = bb_norm_bound(estimate, p), None
        except NonIntegrable as exc:
            estimate, norm_bound, reason = None, None, str(exc)
        expected = _leaves_weight_class(points, p)
        rows.append(
            {
                "p": p,
                "estimate": estimate,
                "norm_bound": norm_bound,
                "divergent": estimate is None,
                "reason": reason,
                "expected_divergent": expected,
                "consistent": (estimate is None) == expected,
            }
        )

    return ExperimentReport(
        experiment="bekolle-bonami",
        rows=rows,
        quadrature={
            "family": "carleson-tent",
            "weight": weight,
            "points": [[a.real, a.imag] for a in points],
        },
        wall_time_s=time.time() - start,
        passed=all(row["consistent"] for row in rows),
        notes=[
            "divergent means a weight power moved by more than 50% under"
            " refinement (NonIntegrable)",
            "a point of the closed disc occurring c times makes the weight"
            " leave the class where c(p-2) >= 2 or c(2-p) >= 2(p-1)",
        ],
    )
