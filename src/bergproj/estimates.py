"""Weighted estimates on the disc: boundary-growth integrals, Carleson
tents with their weight constants, and annular sectors around 1/s.

Three independent pillars support the operator experiments:

* ``forelli_rudin`` evaluates the integral of
  (1-|w|^2)^(-eps) / |1 - z wbar|^(2-eps-s) over the disc and
  ``classify_forelli_rudin`` decides whether it stays bounded, grows
  logarithmically, or grows like a power of (1-|z|^2) as |z| -> 1.
* Carleson tents ``T_z`` (boundary discs of radius 1-|z|) carry the
  two-weight averages whose supremum is the Bekolle-Bonami constant;
  ``bekolle_bonami_estimate`` samples that supremum over an apex grid.
  Its rules -- the tent rules, the whole-disc disc rules and the two
  graded polar rules -- depend on the weight's points but not on p, so
  they are built once per weight table (the weight's points) and
  shared, read-only, by every p of it.  The memo holds one table at a
  time: the rules of a table are dropped before the first rule of
  another is built.  The default rules of the growth integral form one
  more table, so a classification at several exponents builds them once.
* ``sector_annulus_integral`` integrates |1-zs|^(-k) over the annular
  sector around 1/s that drives the lower bounds in the blow-up
  experiments, in closed form and by an independent polar cubature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousFit,
    EmptyRegion,
    NonIntegrable,
    OverflowInIntegrand,
)
from .quadrature import (
    QuadratureRule,
    WeightSpec,
    _gauss_legendre,
    disc_rule,
    legendre_nodes,
    polar_rule_at,
)

#: default radii for growth classification; deep enough that subleading
#: terms no longer bend the log-log slope
CLASSIFICATION_SAMPLES = (0.99, 0.995, 0.999, 0.9995, 0.9999)

#: relative inner cutoffs for the graded rules behind integrability
#: checks; the second, much deeper cutoff is what exposes divergence
INTEGRABILITY_CUTOFFS = (1e-140, 1e-280)


def _rule_sum(values, weights, what):
    if not np.all(np.isfinite(values)):
        raise OverflowInIntegrand(f"non-finite integrand value in {what}")
    return float(np.sum(weights * values))


# ---------------------------------------------------------------------------
# boundary-growth integrals


def _growth_rule(eps, r):
    """Default rule for the growth integral at radius r.

    Without the boundary factor the integrand is a pure power of the
    distance to 1/r, which the polar rule integrates to near machine
    accuracy.  With a boundary factor, a graded disc rule absorbs
    (1-|w|^2)^(-eps) radially while an angular boost resolves the peak
    of width 1-r that forms at angle zero.  The rule depends on neither
    the exponent s_exp nor the point's argument, so it comes from the
    memo's "growth" table (``_table_rule``).
    """
    if eps == 0:
        if r < 1e-12:
            return _table_rule("growth", disc_rule, 8, 8)
        return _table_rule("growth", polar_rule_at, 1.0 / r, 12, 24)
    cluster = max(2, math.ceil(1.0 / (1.0 - eps)))
    halfwidth = min(0.5 * math.pi, 50.0 * (1.0 - r))
    factor = math.ceil(8.0 * math.pi / (64 * (1.0 - r)))
    return _table_rule("growth", disc_rule, 64, 64, cluster, (factor, halfwidth))


def forelli_rudin(eps, s_exp, z, rule=None):
    """Integral of (1-|w|^2)^(-eps) |1 - z wbar|^(-(2-eps-s_exp)) over the disc.

    When no rule is passed, a default adapted to (eps, |z|) is built; the
    integral depends on z only through |z| (rotate w), so the default
    path evaluates at |z| with the angular refinement aimed at the peak.
    """
    if eps >= 1:
        raise ValueError("the boundary exponent must satisfy eps < 1")
    z = complex(z)
    r = abs(z)
    if r >= 1:
        raise ValueError("the evaluation point must lie inside the disc")
    beta = 2.0 - eps - s_exp
    if rule is None:
        rule = _growth_rule(eps, r)
        z_eff = complex(r)
    else:
        z_eff = z
    w = rule.nodes
    with np.errstate(over="ignore"):
        values = np.abs(1.0 - z_eff * np.conj(w)) ** (-beta)
        if eps != 0:
            values = values * (1.0 - np.abs(w) ** 2) ** (-eps)
    return _rule_sum(values, rule.weights, "growth integral")


@dataclass(frozen=True)
class GrowthClassification:
    """Outcome of fitting the growth integral against the three models."""

    label: str  # "Bounded", "Log" or "Power"
    fitted_exponent: float  # free log-log slope against (1 - |z|^2)
    residuals: dict  # relative L2 residual per candidate model
    matches_theory: bool  # label agrees with the sign of s_exp
    values: tuple  # the growth integral at each sample radius, in order


def classify_forelli_rudin(eps, s_exp, samples=None):
    """Classify the boundary growth of the integral as Bounded/Log/Power.

    Fits c * model over the sample radii for each candidate model and
    keeps the smallest relative residual.  The power model uses the
    known exponent s_exp; when s_exp = 0 it degenerates to the constant
    model and is dropped.  Raises AmbiguousFit when the two best models
    are within 10% of each other -- the sample grid is then too coarse
    to separate them.
    """
    radii = np.asarray(CLASSIFICATION_SAMPLES if samples is None else samples, float)
    if len(radii) < 2:
        raise ValueError("need at least two sample radii")
    a = np.array([forelli_rudin(eps, s_exp, r, None) for r in radii])
    t = 1.0 - radii**2

    models = {"Bounded": np.ones_like(t), "Log": -np.log(t)}
    if s_exp != 0:
        models["Power"] = t**s_exp

    residuals = {}
    for label, m in models.items():
        c = float(np.dot(a, m) / np.dot(m, m))
        residuals[label] = float(np.linalg.norm(a - c * m) / np.linalg.norm(a))

    ranked = sorted(residuals, key=residuals.get)
    best, second = ranked[0], ranked[1]
    if residuals[second] < 1.1 * residuals[best]:
        raise AmbiguousFit(
            "growth models are not separated by the sample grid: "
            + ", ".join(f"{k}={v:.3e}" for k, v in residuals.items())
        )

    slope = float(np.polyfit(np.log(t), np.log(a), 1)[0])
    expected = "Bounded" if s_exp > 0 else ("Log" if s_exp == 0 else "Power")
    return GrowthClassification(
        label=best,
        fitted_exponent=slope,
        residuals=residuals,
        matches_theory=best == expected,
        values=tuple(float(v) for v in a),
    )


# ---------------------------------------------------------------------------
# Carleson tents and weight constants


@dataclass(frozen=True)
class TentRegion:
    """Carleson tent: the disc of radius 1-|z| about the boundary point
    z/|z|, intersected with the unit disc; the tent of apex 0 is the
    whole disc."""

    apex: complex

    def __post_init__(self):
        apex = complex(self.apex)
        if abs(apex) >= 1:
            raise ValueError("tent apex must lie inside the disc")
        object.__setattr__(self, "apex", apex)

    @property
    def is_whole_disc(self):
        return self.apex == 0

    @property
    def boundary_center(self):
        if self.is_whole_disc:
            return 0j
        return self.apex / abs(self.apex)

    @property
    def radius(self):
        return 1.0 if self.is_whole_disc else 1.0 - abs(self.apex)

    def contains(self, w):
        w = np.asarray(w, dtype=complex)
        inside = np.abs(w) < 1.0
        if self.is_whole_disc:
            return inside
        return inside & (np.abs(w - self.boundary_center) < self.radius)


def tent_rule(tent, order):
    """Product rule over the tent: its bounding box with rejection.

    The tent of apex 0 is the whole disc and gets the native disc rule.
    Otherwise Gauss-Legendre nodes on the bounding square of the tent
    disc are masked by tent membership; an even order avoids placing a
    node at the exact box center where weights may be singular.
    """
    if tent.is_whole_disc:
        return disc_rule(order, 2 * order)
    order = int(order) + int(order) % 2
    c, r = tent.boundary_center, tent.radius
    gx, gwx = legendre_nodes(order)
    x = c.real + r * gx
    y = c.imag + r * gx
    w2d = np.outer(r * gwx, r * gwx)
    nodes = (x[:, None] + 1j * y[None, :]).ravel()
    weights = w2d.ravel()
    mask = tent.contains(nodes)
    return QuadratureRule(
        nodes=nodes[mask],
        weights=weights[mask],
        descriptor={"family": "tent_box", "apex": tent.apex, "order": order},
    )


#: the rules of the last table, by (table, builder, arguments); see
#: ``_table_rule``
_TABLE_RULES = {}


def _table_rule(table, builder, *args):
    """``builder(*args)``, built once for the table ``table``.

    A weight table is the weight's points, over a run of
    ``bekolle_bonami_estimate`` over p: its tent rules and graded rules
    depend on neither p nor the exponent, so every p of the table shares
    them, and the refined order of the integrability check shares the
    table of the base order.  The table "growth" holds the default rules
    of the growth integral.  The memo holds one table at a time and is
    emptied before the first rule of another table is built.  The rules
    it holds have read-only arrays.  Callers pass the builder as this
    module names it, so a replacement of that name builds, and is keyed
    by, itself.
    """
    key = (table, builder, *args)
    rule = _TABLE_RULES.get(key)
    if rule is None:
        if _TABLE_RULES and next(iter(_TABLE_RULES))[0] != table:
            _TABLE_RULES.clear()
        rule = builder(*args)
        for array in (rule.nodes, rule.weights, *(rule.aux or {}).values()):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        _TABLE_RULES[key] = rule
    return rule


def tent_average(weight, power, tent, order, inner_cutoff=INTEGRABILITY_CUTOFFS[0]):
    """Average of weight^power over the tent.

    Point-product weights raised to a negative total exponent are
    integrated over the whole disc with a polar rule graded at the first
    singular point, and the singular factor is evaluated from the exact
    ring radii (the node coordinates absorb radii below machine epsilon
    relative to the center).  Everything else uses the tent's own rule.
    Either rule comes from the memo of the weight's table, its points
    (``_table_rule``).
    """
    total_exponent = (
        weight.exponent * power if weight.kind == "point_product" else 0.0
    )
    graded = (
        tent.is_whole_disc
        and weight.kind == "point_product"
        and total_exponent < 0
        and len(weight.points) > 0
    )
    if graded:
        center = weight.points[0]
        rule = _table_rule(
            weight.points, polar_rule_at, center, max(4, order // 8), max(16, order), inner_cutoff
        )
        # combine integrand and rule weight in log space: the deepest
        # rings have rho**exponent far outside float range even when
        # the weighted contribution is tiny; the arrays are the size of
        # the rule, so each step works in place
        terms = np.log(rule.aux["center_distance"])
        terms *= total_exponent
        for a in weight.points[1:]:
            factor = np.log(np.abs(a - rule.nodes))
            factor *= total_exponent
            terms += factor
        terms += rule.aux["log_weight"]
        with np.errstate(over="ignore"):
            np.exp(terms, out=terms)
        if not np.all(np.isfinite(terms)):
            raise OverflowInIntegrand(
                "tent average diverges beyond float range"
            )
        return float(np.sum(terms)) / float(np.sum(rule.weights))
    return _box_averages(weight, (power,), tent, order)[0]


def _box_averages(weight, powers, tent, order):
    """Averages of weight^power over the tent for each power, from one
    tent rule of the weight's table and one evaluation of the weight on
    its nodes."""
    rule = _table_rule(weight.points, tent_rule, tent, order)
    values = weight.evaluate(rule.nodes)
    mass = float(np.sum(rule.weights))
    return [
        _rule_sum(values**power, rule.weights, "tent average") / mass
        for power in powers
    ]


def default_apex_grid(levels=8, angles=32):
    """Apex grid clustered toward the boundary: the origin plus circles
    of radius 1 - 2^-k."""
    grid = [0j]
    for k in range(1, levels + 1):
        radius = 1.0 - 2.0**-k
        for m in range(angles):
            grid.append(radius * np.exp(2j * math.pi * m / angles))
    return grid


def bekolle_bonami_estimate(weight, p, apex_grid=None, rule=48):
    """Grid maximum of (avg of u over T_z) (avg of u^(-1/(p-1)) over T_z)^(p-1).

    This samples the supremum defining the weight constant, so it is a
    lower bound for it.  ``rule`` is the per-axis order of the tent
    rules.  Both the weight and its dual power are first integrated over
    the whole disc at two resolutions -- the refinement also deepens the
    graded-rule cutoff -- and a shift above 50% raises NonIntegrable.  The
    coarser pair is the whole-disc tent's (apex 0) pair of averages.
    Every rule comes from the memo of the weight's table, its points, so
    later p of the same table build none.
    """
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    dual_power = -1.0 / (p - 1.0)
    disc_tent = TentRegion(0j)
    whole_disc = []  # the apex-0 averages: same order, same cutoff
    for power in (1.0, dual_power):
        try:
            base = tent_average(weight, power, disc_tent, rule, INTEGRABILITY_CUTOFFS[0])
            fine = tent_average(weight, power, disc_tent, 2 * rule, INTEGRABILITY_CUTOFFS[1])
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
        whole_disc.append(base)

    if apex_grid is None:
        apex_grid = default_apex_grid()
    best = 0.0
    for apex in apex_grid:
        tent = TentRegion(complex(apex))
        if tent.is_whole_disc:
            avg_u, avg_dual = whole_disc
        else:
            avg_u, avg_dual = _box_averages(weight, (1.0, dual_power), tent, rule)
        best = max(best, avg_u * avg_dual ** (p - 1.0))
    return best


def bb_norm_bound(bp, p):
    """Projection-norm bound shape bp^max(1, 1/(p-1)) (reporting only)."""
    if bp < 1.0:
        raise ValueError("the weight constant is never below 1")
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    return bp ** max(1.0, 1.0 / (p - 1.0))


# ---------------------------------------------------------------------------
# annular sectors around 1/s


@dataclass(frozen=True)
class SectorRegion:
    """Sector of points w in the disc with Arg(1 - ws) in an aperture
    around zero; kind "Unj" additionally confines |w - 1/s| to the
    annulus (inner_radius, 1).

    kinds: "U" (aperture pi/6), "Un" (aperture pi/(6(n-1))), "Unj"
    (the "Un" aperture plus the annulus condition).
    """

    kind: str
    s: float
    n: int | None = None
    j: int | None = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie strictly between 0 and 1")
        if self.kind not in ("U", "Un", "Unj"):
            raise ValueError(f"unknown sector kind {self.kind!r}")
        if self.kind in ("Un", "Unj") and (self.n is None or self.n < 2):
            raise ValueError("dimension n >= 2 required for this sector kind")
        if self.kind == "Unj" and (self.j is None or self.j < 1):
            raise ValueError("annulus index j >= 1 required")

    @property
    def half_aperture(self):
        if self.kind == "U":
            return math.pi / 6.0
        return math.pi / (6.0 * (self.n - 1))

    @property
    def inner_radius(self):
        if self.kind != "Unj":
            return None
        return (5.0 * math.factorial(self.n)) ** (2 * self.j) * (1.0 - self.s)


def _sector_cubature(s, inner, half_aperture, k_exp, radial_order=12, angular_order=24):
    """Polar product rule over the annular sector centered at 1/s, and the
    integrand values |1-zs|^(-k) at its nodes."""
    count = max(1, math.ceil(2.0 * math.log10(1.0 / inner)))
    edges = np.geomspace(inner, 1.0, count + 1)
    panels = [_gauss_legendre(radial_order, a, b) for a, b in zip(edges[:-1], edges[1:])]
    rho = np.concatenate([x for x, _ in panels])
    rho_w = np.concatenate([w for _, w in panels])
    phi, phi_w = _gauss_legendre(angular_order, -half_aperture, half_aperture)
    center = 1.0 / s
    nodes = center - rho[:, None] * np.exp(1j * phi[None, :])
    weights = (rho * rho_w)[:, None] * phi_w[None, :]
    values = np.abs(1.0 - nodes * s) ** (-k_exp)
    return nodes.ravel(), weights.ravel(), values.ravel()


def sector_annulus_integral(s, j, k_exp, n, mode="closed"):
    """Integral of |1-zs|^(-k_exp) over the annular sector around 1/s.

    Closed-form mode evaluates the exact antiderivative (a logarithm when
    k_exp = 2); quadrature mode runs an independent polar cubature about
    1/s.  Raises EmptyRegion when the inner radius reaches 1 -- the
    annulus then contains no points.  No CLI command runs it; acceptance
    criterion 9 and the benchmark's ``weights`` workload compare the two
    modes.
    """
    region = SectorRegion("Unj", s, n, j)
    if k_exp < 2:
        raise ValueError("integrand exponent k_exp >= 2 required")
    inner = region.inner_radius
    if inner >= 1.0:
        raise EmptyRegion(
            f"inner radius {inner:.6g} reaches the outer radius 1; "
            "no annulus remains at this (s, j, n)"
        )
    if mode == "closed":
        if abs(k_exp - 2.0) < 1e-12:
            return -math.pi * math.log(inner) / (3.0 * (n - 1) * s**2)
        return (
            math.pi
            * (inner ** (2.0 - k_exp) - 1.0)
            / (3.0 * (n - 1) * (k_exp - 2.0) * s**k_exp)
        )
    if mode == "quadrature":
        _, weights, values = _sector_cubature(s, inner, region.half_aperture, k_exp)
        return _rule_sum(values, weights, "sector cubature")
    raise ValueError(f"unknown mode {mode!r}")
