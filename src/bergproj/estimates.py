"""Weighted estimates on the disc: boundary-growth integrals, Carleson
tents with their weight constants, and annular sectors around 1/s.

Three independent pillars support the operator experiments:

* ``forelli_rudin`` evaluates the integral of
  (1-|w|^2)^(-eps) / |1 - z wbar|^(2-eps-s) over the disc and
  ``classify_forelli_rudin`` decides whether it stays bounded, grows
  logarithmically, or grows like a power of (1-|z|^2) as |z| -> 1.
* Carleson tents ``T_z`` (boundary discs of radius 1-|z|) carry the
  two-weight averages whose supremum is the Bekolle-Bonami constant;
  ``bekolle_bonami_estimate`` samples that supremum at the origin,
  whose tent is the whole disc, and then one circle of apexes at a
  time: a circle's rule is its tent rules joined, so the weight is
  evaluated once per circle and p, and each tent sums its own slice.
  Its rules -- one per apex circle, the whole-disc disc rules and the
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
    angular_grid,
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

#: farthest weight point a graded polar rule is built about.  About a
#: centre at distance d > 1, the ring of radius d + u meets the disc in an
#: arc whose half-angle, and so the place of every node on it, comes from
#: 1 + gamma = (1 - u^2) / (2 d (d + u)), while gamma, a float64 near -1,
#: is rounded by up to eps / 2.  Past d = eps^(-1/2) = 2^26 that rounding
#: is as large as 1 + gamma on every ring, so no node is placed by the
#: disc any more (at 1e8 the nodes fall outside it, at 1e16 none is left)
FAR_WEIGHT_POINT = float(np.finfo(float).eps) ** -0.5

#: the weight constant's apex grid (APEX_LEVELS circles of APEX_ANGLES
#: apexes, besides the origin) and the per-axis order of its tent rules
APEX_LEVELS, APEX_ANGLES, TENT_ORDER = 8, 32, 48

#: Gauss-Legendre orders of the sector cubature: radial per log panel, angular
SECTOR_ORDERS = (12, 24)


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
    memo's "growth" table (``_table_rule``).  An eps so close to 1 that
    the grading would make a weight underflow (fall below the smallest
    normal float, losing digits, and soon reach zero) raises ValueError.
    """
    if eps == 0:
        if r < 1e-12:
            return _table_rule("growth", disc_rule, 8, 8)
        return _table_rule("growth", polar_rule_at, 1.0 / r, 12, 24)
    cluster = max(2, math.ceil(1.0 / (1.0 - eps)))
    boost = (math.ceil(8.0 * math.pi / (64 * (1.0 - r))), min(0.5 * math.pi, 50.0 * (1.0 - r)))
    # log of disc_rule's smallest weight, at its outermost node u = (1 + x) / 2:
    # 0.5 (w / 2) cluster (1 - u)^(cluster - 1) times the smallest angular weight
    x, w = legendre_nodes(64)
    smallest = math.log(0.25 * w[-1] * cluster * np.min(angular_grid(64, boost)[1]))
    smallest += (cluster - 1) * math.log(0.5 * (1.0 - x[-1]))
    if smallest < math.log(np.finfo(float).tiny):
        raise ValueError(f"eps = {eps} makes the growth rule's weights underflow at |z| = {r}")
    return _table_rule("growth", disc_rule, 64, 64, cluster, boost)


def forelli_rudin(eps, s_exp, z):
    """Integral of (1-|w|^2)^(-eps) |1 - z wbar|^(-(2-eps-s_exp)) over the disc.

    The integral depends on z only through |z| (rotate w), so it is
    evaluated at |z|, with the rule of :func:`_growth_rule` adapted to
    (eps, |z|) and its angular refinement aimed at the peak.
    """
    if eps >= 1:
        raise ValueError("the boundary exponent must satisfy eps < 1")
    r = abs(complex(z))
    if r >= 1:
        raise ValueError("the evaluation point must lie inside the disc")
    beta = 2.0 - eps - s_exp
    rule = _growth_rule(eps, r)
    with np.errstate(over="ignore"):
        values = np.abs(1.0 - complex(r) * np.conj(rule.nodes)) ** (-beta)
        if eps != 0:
            # the graded disc rule keeps the exact 1 - |w|^2 of its nodes
            values = values * rule.aux["boundary_distance"] ** (-eps)
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
    if len(set(np.abs(radii))) < 2:
        # the integral depends on |r| alone, and a fit through one |r| has no slope
        raise ValueError("need at least two distinct sample radii")
    a = np.array([forelli_rudin(eps, s_exp, r) for r in radii])
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


def tent_rule(tent, order):
    """Product rule over the tent: its bounding box with rejection.

    The tent of apex 0 is the whole disc and gets the native disc rule.
    Otherwise Gauss-Legendre nodes on the bounding square of the tent
    disc are kept where they lie strictly inside both the tent disc and
    the unit disc; an even order avoids placing a node at the exact box
    center where weights may be singular.
    """
    if tent.apex == 0:
        return disc_rule(order, 2 * order)
    order = int(order) + int(order) % 2
    c, r = tent.apex / abs(tent.apex), 1.0 - abs(tent.apex)
    gx, gwx = legendre_nodes(order)
    x = c.real + r * gx
    y = c.imag + r * gx
    w2d = np.outer(r * gwx, r * gwx)
    nodes = (x[:, None] + 1j * y[None, :]).ravel()
    weights = w2d.ravel()
    mask = (np.abs(nodes) < 1.0) & (np.abs(nodes - c) < r)
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


def tent_average(weight, power, order, inner_cutoff):
    """Average of weight^power over the whole disc, the tent of apex 0.

    Point-product weights raised to a negative total exponent are
    integrated with a polar rule graded at the first singular point down
    to the relative cutoff ``inner_cutoff`` (see :func:`polar_rule_at`),
    and the singular factor is evaluated from the exact ring radii (the
    node coordinates absorb radii below machine epsilon relative to the
    center).  Everything else uses the disc rule of :func:`tent_rule`.
    Either rule comes from the memo of the weight's table, its points
    (``_table_rule``).  A graded rule about a point farther than
    ``FAR_WEIGHT_POINT`` from the origin is refused with ValueError.
    """
    total_exponent = (
        weight.exponent * power if weight.kind == "point_product" else 0.0
    )
    if weight.kind == "point_product" and total_exponent < 0 and len(weight.points) > 0:
        center = weight.points[0]
        if not abs(center) <= FAR_WEIGHT_POINT:
            raise ValueError(
                f"weight point {center} lies farther than {FAR_WEIGHT_POINT:.4g} from the"
                " origin, where float64 cannot place the nodes of a polar rule about it"
            )
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
    rule = _table_rule(weight.points, tent_rule, TentRegion(0j), order)
    total = _rule_sum(weight.evaluate(rule.nodes) ** power, rule.weights, "tent average")
    return total / float(np.sum(rule.weights))


def tent_group_rule(apexes, order):
    """The tent rules of the apexes, in order, joined into one rule.

    ``aux["start"]`` holds the offset of each tent's nodes and
    ``aux["mass"]`` each tent's mass, ``np.sum`` of its own weights.  A
    tent rule has at least one node, so every mass is positive.
    """
    rules = [tent_rule(TentRegion(apex), order) for apex in apexes]
    sizes = [rule.size for rule in rules]
    return QuadratureRule(
        nodes=np.concatenate([rule.nodes for rule in rules]),
        weights=np.concatenate([rule.weights for rule in rules]),
        descriptor={"family": "tent_group", "apexes": apexes, "order": order},
        aux={
            "start": np.cumsum([0] + sizes[:-1]),
            "mass": np.array([np.sum(rule.weights) for rule in rules]),
        },
    )


def default_apex_grid():
    """Apex grid clustered toward the boundary, as lists of apexes: one
    list of APEX_ANGLES apexes per circle of radius 1 - 2^-k, k = 1, ...,
    APEX_LEVELS.  The origin is not on it: its tent is the whole disc."""
    grid = []
    for k in range(1, APEX_LEVELS + 1):
        radius = 1.0 - 2.0**-k
        grid.append(
            [complex(radius * np.exp(2j * math.pi * m / APEX_ANGLES)) for m in range(APEX_ANGLES)]
        )
    return grid


def bekolle_bonami_estimate(weight, p):
    """Grid maximum of (avg of u over T_z) (avg of u^(-1/(p-1)) over T_z)^(p-1).

    This samples the supremum defining the weight constant at the origin
    and over :func:`default_apex_grid`, so it is a lower bound for it,
    with tent rules of order ``TENT_ORDER``.  Both the weight and its
    dual power are first averaged over the whole disc, the origin's tent,
    at two resolutions -- the refinement also deepens the graded-rule
    cutoff -- and a shift above 50% raises NonIntegrable; the coarser
    pair is the origin's.  The circles go one at a time: the memo holds
    one rule per circle, the tent rules of its apexes joined, the weight
    is evaluated once per circle and p, and each tent sums its own slice,
    bit for bit the tent's own rule; a non-finite value raises
    OverflowInIntegrand at the first tent that holds one.  Every rule
    comes from the memo of the weight's table, its points, so later p of
    the same table build none.
    """
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    dual_power = -1.0 / (p - 1.0)
    whole_disc = []  # the origin's averages: same order, same cutoff
    for power in (1.0, dual_power):
        try:
            base = tent_average(weight, power, TENT_ORDER, INTEGRABILITY_CUTOFFS[0])
            fine = tent_average(weight, power, 2 * TENT_ORDER, INTEGRABILITY_CUTOFFS[1])
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

    avg_u, avg_dual = whole_disc
    best = max(0.0, avg_u * avg_dual ** (p - 1.0))
    for circle in default_apex_grid():
        rule = _table_rule(weight.points, tent_group_rule, tuple(circle), TENT_ORDER)
        u = weight.evaluate(rule.nodes)
        dual = u**dual_power
        starts = rule.aux["start"]
        finite = np.logical_and.reduceat(np.isfinite(u) & np.isfinite(dual), starts).tolist()
        u *= rule.weights
        dual *= rule.weights
        bounds = starts.tolist() + [rule.size]
        for t, mass in enumerate(rule.aux["mass"].tolist()):
            if not finite[t]:
                raise OverflowInIntegrand("non-finite integrand value in tent average")
            tent = slice(bounds[t], bounds[t + 1])
            avg_u = float(u[tent].sum()) / mass
            avg_dual = float(dual[tent].sum()) / mass
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


def _sector_cubature(s, inner, half_aperture, k_exp):
    """Polar product rule over the annular sector centered at 1/s, and the
    integrand values |1-zs|^(-k) at its nodes."""
    radial_order, angular_order = SECTOR_ORDERS
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
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly between 0 and 1")
    if n < 2:
        raise ValueError("dimension n >= 2 required")
    if j < 1:
        raise ValueError("annulus index j >= 1 required")
    if k_exp < 2:
        raise ValueError("integrand exponent k_exp >= 2 required")
    inner = (5.0 * math.factorial(n)) ** (2 * j) * (1.0 - s)
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
        _, weights, values = _sector_cubature(s, inner, math.pi / (6.0 * (n - 1)), k_exp)
        return _rule_sum(values, weights, "sector cubature")
    raise ValueError(f"unknown mode {mode!r}")
