"""Slow reference implementations kept as test oracles.

These are the code paths the package used before faster ones replaced
them, and the tests hold the new paths to them bit for bit:

* the hand-written n = 2 and n = 3 symmetric reductions, replaced by
  ``symmetric_blocks``, one reduction for any n;
* the per-ring loop of ``polar_rule_at``, replaced by one block of full
  rings and one of arcs;
* the apex loop of ``bekolle_bonami_estimate`` that took each tent's two
  averages through two ``tent_average`` calls, each building the tent's
  rule and evaluating the weight on it, and the whole-disc tent's two
  averages a second time after the integrability check;
* the full-tensor ``apply_operator`` for one sample point and one
  function, which evaluated the kernel again for every function and
  every point, in chunks of 2^18 tensor points; one point and one
  function must match it bit for bit, batches to 1e-13 of their scale.
"""

import math

import numpy as np

from bergproj.errors import NonIntegrable, OverflowInIntegrand
from bergproj.estimates import (
    INTEGRABILITY_CUTOFFS,
    TentRegion,
    default_apex_grid,
    tent_average,
)
from bergproj.quadrature import (
    INNER_CUTOFF,
    TWO_PI,
    QuadratureRule,
    _check_finite,
    _radial_panels,
)


def _integrate_symmetric_2(f, nodes, weights):
    size = len(nodes)
    j_idx, k_idx = np.triu_indices(size)
    pts = np.stack([nodes[j_idx], nodes[k_idx]], axis=1)
    w = weights[j_idx] * weights[k_idx]
    mult = np.where(j_idx == k_idx, 1.0, 2.0)
    vals = np.asarray(f(pts))
    _check_finite(vals, "symmetric n=2")
    return complex(np.sum(mult * w * vals))


def _integrate_symmetric_3(f, nodes, weights, chunk):
    size = len(nodes)
    acc = 0.0 + 0.0j
    for i in range(size):
        sub = size - i
        j_rel, k_rel = np.triu_indices(sub)
        j_idx, k_idx = j_rel + i, k_rel + i
        for start in range(0, len(j_idx), chunk):
            j_c = j_idx[start : start + chunk]
            k_c = k_idx[start : start + chunk]
            pts = np.stack(
                [np.full(len(j_c), nodes[i]), nodes[j_c], nodes[k_c]], axis=1
            )
            w = weights[i] * weights[j_c] * weights[k_c]
            mult = np.where(
                (i == j_c) & (j_c == k_c),
                1.0,
                np.where((i == j_c) | (j_c == k_c), 3.0, 6.0),
            )
            vals = np.asarray(f(pts))
            _check_finite(vals, f"symmetric n=3, i={i}")
            acc += np.sum(mult * w * vals)
    return complex(acc)


def polar_rule_at(center, radial_order, angular_order, inner_cutoff=INNER_CUTOFF):
    center = complex(center)
    d = abs(center)
    if abs(d - 1.0) < 1e-9:
        raise ValueError("polar rule center may not sit on the boundary circle")
    beta = math.atan2(center.imag, center.real)
    rho, rho_w = _radial_panels(d, radial_order, inner_cutoff)

    m = int(angular_order)
    gl_x, gl_w = np.polynomial.legendre.leggauss(m)
    nodes, weights, dists, log_weights = [], [], [], []
    for rr, ww in zip(rho, rho_w):
        if d < 1e-14:
            gamma = math.inf if rr < 1.0 else -math.inf
        else:
            gamma = (1.0 - d * d - rr * rr) / (2.0 * rr * d)
        if gamma >= 1.0:
            m_full = max(8, 2 * m)
            phi = beta + TWO_PI * (np.arange(m_full) + 0.5) / m_full
            pw = np.full(m_full, TWO_PI / m_full)
        elif gamma <= -1.0:
            continue
        else:
            half = math.pi - math.acos(gamma)
            phi = beta + math.pi + half * gl_x
            pw = half * gl_w
        nodes.append(center + rr * np.exp(1j * phi))
        weights.append(rr * ww * pw)
        dists.append(np.full(len(phi), rr))
        log_weights.append(math.log(rr) + math.log(ww) + np.log(pw))
    return QuadratureRule(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        descriptor={
            "family": "polar",
            "center": center,
            "radial_order": int(radial_order),
            "angular_order": int(angular_order),
            "inner_cutoff": inner_cutoff,
        },
        aux={
            "center": center,
            "center_distance": np.concatenate(dists),
            "log_weight": np.concatenate(log_weights),
        },
    )


def bekolle_bonami_estimate(weight, p, apex_grid=None, rule=48):
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    dual_power = -1.0 / (p - 1.0)
    disc_tent = TentRegion(0j)
    for power in (1.0, dual_power):
        try:
            base = tent_average(
                weight, power, disc_tent, rule, inner_cutoff=INTEGRABILITY_CUTOFFS[0]
            )
            fine = tent_average(
                weight,
                power,
                disc_tent,
                2 * rule,
                inner_cutoff=INTEGRABILITY_CUTOFFS[1],
            )
        except OverflowInIntegrand as exc:
            raise NonIntegrable(
                f"weight power {power:g} overflows under a graded rule"
            ) from exc
        if not math.isfinite(base) or not math.isfinite(fine):
            raise NonIntegrable(f"weight power {power:g} is not integrable")
        if abs(fine - base) > 0.5 * abs(base):
            raise NonIntegrable(
                f"average of weight power {power:g} moved from {base:.3e} to "
                f"{fine:.3e} under refinement"
            )

    if apex_grid is None:
        apex_grid = default_apex_grid()
    best = 0.0
    for apex in apex_grid:
        tent = TentRegion(complex(apex))
        avg_u = tent_average(weight, 1.0, tent, rule)
        avg_dual = tent_average(weight, dual_power, tent, rule)
        best = max(best, avg_u * avg_dual ** (p - 1.0))
    return best


def apply_operator(spec, f, z, rule, n, chunk=1 << 18):
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    size = len(nodes)
    total = size**n
    shape = (size,) * n
    acc = 0.0 + 0.0j
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        multi = np.unravel_index(idx, shape)
        pts = np.stack([nodes[ix] for ix in multi], axis=1)
        w = weights[multi[0]].copy()
        for ix in multi[1:]:
            w *= weights[ix]
        vals = spec.evaluate(z, np.conj(pts)) * np.asarray(f(pts))
        _check_finite(vals, f"chunk at {start}")
        acc += np.sum(w * vals)
    return complex(acc)
