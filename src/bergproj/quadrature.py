"""Quadrature rules on the unit disc and tensor integration on the polydisc.

Two rule families:

* ``disc_rule`` -- Gauss-Legendre in the squared radius times a uniform
  midpoint angular grid, optionally graded toward the boundary circle and
  locally refined in an angular sector.  Weights sum to pi exactly (up to
  roundoff) because both one-dimensional pieces integrate constants
  exactly.
* ``polar_rule_at`` -- polar coordinates about an arbitrary center (inside
  the disc, on its boundary circle or outside), with log-graded radial
  panels and per-ring angular rules on the arcs that meet the disc.  This
  is the rule of choice when the integrand blows up at one point: rings
  are level sets of the distance to the singularity.

Polydisc integrals are tensor products of a single disc rule, evaluated
in chunks.  The integrand gets rows of node indices, one row per tensor
point, so that one whose factors depend on a single coordinate can
tabulate them once per node and gather them.  For integrands symmetric
under coordinate permutations the sum runs over sorted index n-tuples
only, each with its multiset multiplicity n!/prod(c!), for any n, by
one ``PairTable``: one block per sorted prefix of the first n - 2
indices, any slice of it built on its own with functions of its last two
nodes, which are tabulated once where several blocks read them (n >= 3)
and made slice by slice where one block does (n = 2).  ``pairwise_sum``
sums a block one part per call, cut where numpy's pairwise summation
splits it, and equals the whole block's ``np.sum`` bit for bit.

Every rule, here and in ``estimates``, takes its Gauss-Legendre nodes from
``legendre_nodes``, which computes them once per order on first use and
hands out the same read-only arrays after that.  A ``QuadratureRule``
checks its nodes and weights when it is made.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations_with_replacement
from operator import mul

import numpy as np

from .errors import InvalidRule, OverflowInIntegrand

TWO_PI = 2.0 * math.pi

#: relative inner cutoff for polar rules centered inside the disc; the
#: omitted disc around the center has radius cutoff * (outer radius), so
#: for any integrable power singularity the lost mass is a few percent at
#: worst and far below quadrature error for exponents above -1.9
INNER_CUTOFF = 1e-13

#: a polar rule puts at least this many Gauss-Legendre nodes on each
#: radial panel, and at least this many nodes on each full ring
MIN_PANEL_NODES = 4
MIN_RING_NODES = 8


@dataclass
class QuadratureRule:
    """Nodes, positive weights and a descriptor sufficient to rebuild.

    ``aux`` carries rule-family extras; polar rules store the exact
    distance of each node to the rule center there, because for strongly
    graded rules that distance underflows when recomputed from the node
    coordinates themselves.

    A rule checks its invariants when it is made, and raises InvalidRule
    if one fails: it has at least one node, its nodes are finite and lie
    in the closed unit disc, and its weights are positive.  Where ``aux``
    carries ``log_weight``, a weight whose logarithm is at most -700 may
    also be zero: the weights of the deepest rings of a graded rule
    underflow by design.
    """

    nodes: np.ndarray
    weights: np.ndarray
    descriptor: dict
    aux: dict | None = None

    def __post_init__(self):
        family = self.descriptor["family"]
        if len(self.nodes) == 0:
            raise InvalidRule(f"{family} rule has no nodes")
        # a modulus that is NaN or infinite fails the comparison as well
        if not np.all(np.abs(self.nodes) <= 1.0):
            if not np.all(np.isfinite(self.nodes)):
                raise InvalidRule(f"{family} rule has a non-finite node")
            raise InvalidRule(f"{family} rule has a node outside the closed unit disc")
        positive = self.weights > 0
        if not np.all(positive):
            log_weight = (self.aux or {}).get("log_weight")
            if log_weight is None or not np.all(
                positive | ((self.weights == 0) & (log_weight <= -700.0))
            ):
                raise InvalidRule(f"{family} rule has a weight that is not positive")

    @property
    def size(self) -> int:
        return len(self.nodes)


#: Gauss-Legendre nodes and weights on [-1, 1] by order, filled on first
#: use; the arrays are read-only because every caller shares them
_LEGENDRE = {}


def legendre_nodes(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    Returns the same two read-only arrays on every call with this order.
    """
    order = int(order)
    cached = _LEGENDRE.get(order)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(order)
        for array in cached:
            array.flags.writeable = False
        _LEGENDRE[order] = cached
    return cached


def _gauss_legendre(order, lo, hi):
    x, w = legendre_nodes(order)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + half * x, half * w


def disc_rule(radial_order, angular_order, cluster=None, boost=None) -> QuadratureRule:
    """Product rule on the unit disc with weights summing to pi.

    ``cluster`` (integer >= 1) grades radial nodes toward the boundary by
    substituting u -> 1 - (1 - u)^cluster in the squared radius, which
    integrates (1 - |w|^2)^(1/cluster - 1) type boundary growth exactly.
    A graded rule keeps each node's exact 1 - |w|^2, that is (1 - u)^cluster,
    in ``aux["boundary_distance"]``: its outermost radii round to 1, where
    the distance recomputed from the node is 0 or loses its digits, and a
    node that rounds past the circle is pulled to just inside it.
    ``boost = (factor, halfwidth)`` refines the angular grid inside the
    sector |arg w| < halfwidth by roughly ``factor`` while keeping the
    total angular weight exactly 2 pi.
    """
    u, uw = _gauss_legendre(radial_order, 0.0, 1.0)
    boundary_distance = None
    if cluster is not None:
        gamma = int(cluster)
        if gamma < 1:
            raise ValueError("cluster exponent must be a positive integer")
        uw = uw * gamma * (1.0 - u) ** (gamma - 1)
        boundary_distance = (1.0 - u) ** gamma
        u = 1.0 - boundary_distance
    r = np.sqrt(u)
    theta, tw = angular_grid(angular_order, boost)
    nodes = (r[:, None] * np.exp(1j * theta[None, :])).ravel()
    weights = (0.5 * uw[:, None] * tw[None, :]).ravel()
    aux = None
    if boundary_distance is not None:
        aux = {"boundary_distance": np.repeat(boundary_distance, len(theta))}
        out = np.abs(nodes) > 1.0
        nodes[out] *= (1.0 - 4.0 * np.finfo(float).eps) / np.abs(nodes[out])
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        descriptor={
            "family": "disc",
            "radial_order": int(radial_order),
            "angular_order": int(angular_order),
            "cluster": cluster,
            "boost": tuple(boost) if boost is not None else None,
        },
        aux=aux,
    )


def angular_grid(angular_order, boost):
    """The angles and angular weights of :func:`disc_rule`: a midpoint grid
    of ``angular_order`` angles, refined by ``boost`` (see there)."""
    m = int(angular_order)
    if boost is None:
        return -math.pi + TWO_PI * (np.arange(m) + 0.5) / m, np.full(m, TWO_PI / m)
    factor, halfwidth = boost
    m_in = max(1, math.ceil(factor * m * halfwidth / math.pi))
    inside = -halfwidth + 2.0 * halfwidth * (np.arange(m_in) + 0.5) / m_in
    span = TWO_PI - 2.0 * halfwidth
    outside = halfwidth + span * (np.arange(m) + 0.5) / m
    outside = np.where(outside > math.pi, outside - TWO_PI, outside)
    theta = np.concatenate([inside, outside])
    tw = np.concatenate([np.full(m_in, 2.0 * halfwidth / m_in), np.full(m, span / m)])
    return theta, tw


def _panel_nodes(a, b, order, sqrt_left, sqrt_right):
    """GL nodes on a radial panel, absorbing square-root edge behavior.

    Where a ring of the polar rule becomes tangent to the boundary circle
    (or switches from full circles to arcs) the arc length vanishes or
    kinks like sqrt(distance to the edge); substituting rho = edge +/-
    eta^2 turns that into a smooth integrand in eta.
    """
    if sqrt_left and sqrt_right:
        mid = 0.5 * (a + b)
        x1, w1 = _panel_nodes(a, mid, order, True, False)
        x2, w2 = _panel_nodes(mid, b, order, False, True)
        return np.concatenate([x1, x2]), np.concatenate([w1, w2])
    if sqrt_left or sqrt_right:
        eta, eta_w = _gauss_legendre(order, 0.0, math.sqrt(b - a))
        if sqrt_left:
            return a + eta**2, 2.0 * eta * eta_w
        return (b - eta**2)[::-1], (2.0 * eta * eta_w)[::-1]
    return _gauss_legendre(order, a, b)


def _panel_order(radial_order):
    return max(MIN_PANEL_NODES, int(radial_order))


def _full_ring_order(angular_order):
    return max(MIN_RING_NODES, 2 * int(angular_order))


def _on_circle(center_dist):
    """Whether a polar rule center at this distance sits on the boundary
    circle, where every ring about it is an arc."""
    return abs(center_dist - 1.0) < 1e-9


def _radial_panels(center_dist, radial_order, inner_cutoff):
    """Radial panel scheme for a polar rule about a point at distance d.

    Exterior centers: half-decade log panels from d-1 to d+1 with sqrt
    substitutions at both tangency radii.  Centers on the boundary circle:
    decade log panels from the inner cutoff out to 2, every ring an arc,
    with a sqrt substitution at the far tangency.  Interior centers:
    log-graded full-circle panels from the inner cutoff out to 1-d, then a
    clipped band up to 1+d with sqrt substitutions at its kink and tangency
    edges.  ``radial_order`` is the Gauss-Legendre order used on each
    panel, so scaling it refines every panel uniformly.
    """
    d = center_dist
    rho_max = d + 1.0
    panels = []
    if _on_circle(d):
        lo = inner_cutoff * 2.0
        count = max(1, math.ceil(math.log10(2.0 / lo)))
        edges = np.geomspace(lo, 2.0, count + 1)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            panels.append((a, b, False, i == count - 1))
    elif d > 1.0:
        lo = d - 1.0
        count = max(1, math.ceil(2.0 * math.log10(rho_max / lo)))
        edges = np.geomspace(lo, rho_max, count + 1)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            panels.append((a, b, i == 0, i == count - 1))
    else:
        lo = inner_cutoff * rho_max
        inner_hi = 1.0 - d
        if inner_hi > 1.01 * lo:
            count = max(1, math.ceil(math.log10(inner_hi / lo)))
            edges = np.geomspace(lo, inner_hi, count + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                panels.append((a, b, False, False))
        else:
            inner_hi = lo
        if d > 1e-14:
            count = 3
            edges = np.geomspace(inner_hi, rho_max, count + 1)
            for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
                panels.append((a, b, i == 0, i == count - 1))
    per_panel = _panel_order(radial_order)
    rho, rho_w = [], []
    for a, b, s_left, s_right in panels:
        x, w = _panel_nodes(a, b, per_panel, s_left, s_right)
        rho.append(x)
        rho_w.append(w)
    return np.concatenate(rho), np.concatenate(rho_w)


def polar_rule_at(center, radial_order, angular_order, inner_cutoff=INNER_CUTOFF):
    """Polar product rule about ``center`` covering the unit disc.

    Rings are circles around the center clipped to the disc: a full circle
    when it lies inside, otherwise the arc facing the disc with its exact
    angular extent.  About a center on the boundary circle every ring is
    such an arc; a center within 1e-9 of the circle is moved onto it, and
    every node of such a rule lies in the closed disc.  Radial nodes are
    log-graded, so integrands singular at the center (any integrable
    power, plus logarithms) are resolved down to ``inner_cutoff`` times
    the outer radius.  ``radial_order`` counts nodes per log panel and
    ``angular_order`` nodes per arc, so both scale accuracy directly.
    """
    given = complex(center)
    d = abs(given)
    on_circle = _on_circle(d)
    # a centre taken as on the circle is moved onto it, so that its arcs
    # end on the circle rather than up to 1e-9 past it
    center = given / d if on_circle else given
    beta = math.atan2(center.imag, center.real)
    rho, rho_w = _radial_panels(d, radial_order, inner_cutoff)

    m = int(angular_order)
    gl_x, gl_w = legendre_nodes(m)
    if d < 1e-14:
        gamma = np.where(rho < 1.0, math.inf, -math.inf)
    elif on_circle:
        # the general formula at d = 1, which it would lose to cancellation
        gamma = -0.5 * rho
    else:
        gamma = (1.0 - d * d - rho * rho) / (2.0 * rho * d)
    # gamma falls as rho grows, so the full rings come first, then the
    # arcs, then the rings that miss the disc (gamma <= -1), dropped here
    full = gamma >= 1.0
    arc = ~full & (gamma > -1.0)
    # full rings: a uniform midpoint grid beats GL on circles
    m_full = _full_ring_order(m)
    full_phi = beta + TWO_PI * (np.arange(m_full) + 0.5) / m_full
    full_pw = np.full(m_full, TWO_PI / m_full)
    half = np.array([math.pi - math.acos(g) for g in gamma[arc]])
    blocks = [
        (rho[full], rho_w[full], full_phi[None, :], full_pw[None, :]),
        (rho[arc], rho_w[arc], beta + math.pi + half[:, None] * gl_x, half[:, None] * gl_w),
    ]
    # each block is written straight into its slice of the rule's arrays,
    # so the rule is never held twice
    size = sum(len(rr) * phi.shape[1] for rr, _, phi, _ in blocks)
    nodes = np.empty(size, dtype=complex)
    weights, dists, log_weights = np.empty(size), np.empty(size), np.empty(size)
    start = 0
    for rr, ww, phi, pw in blocks:
        shape = (len(rr), phi.shape[1])
        part = slice(start, start + shape[0] * shape[1])
        start = part.stop
        node_block = nodes[part].reshape(shape)
        np.multiply(rr[:, None], np.exp(1j * phi), out=node_block)
        np.add(center, node_block, out=node_block)
        np.multiply((rr * ww)[:, None], pw, out=weights[part].reshape(shape))
        dists[part].reshape(shape)[...] = rr[:, None]
        # weights of the deepest rings underflow when multiplied out;
        # keep their logarithms so graded integrands can be summed safely
        ring_log = np.array([math.log(r) + math.log(w) for r, w in zip(rr, ww)])
        np.add(ring_log[:, None], np.log(pw), out=log_weights[part].reshape(shape))
    if on_circle:
        # nodes within about an ulp of the circle round onto or past it;
        # pull those to just inside it
        out = np.abs(nodes) > 1.0
        nodes[out] *= (1.0 - 4.0 * np.finfo(float).eps) / np.abs(nodes[out])
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        descriptor={
            "family": "polar",
            "center": given,
            "radial_order": int(radial_order),
            "angular_order": int(angular_order),
            "inner_cutoff": inner_cutoff,
        },
        aux={"center_distance": dists, "log_weight": log_weights},
    )


def singular_disc_rule(s, radial_order, angular_order) -> QuadratureRule:
    """Disc rule adapted to an integrand singular at the real point 1/s."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly between 0 and 1")
    return polar_rule_at(1.0 / s, radial_order, angular_order)


def refine(rule: QuadratureRule, radial_factor, angular_factor) -> QuadratureRule:
    """Rebuild a rule with scaled orders (for convergence deltas).

    A polar rule whose orders sit below the node floors can scale them
    without gaining a node per panel or per full ring; its delta would
    compare the rule with itself, so that raises ValueError.
    """
    d = rule.descriptor
    radial = max(int(d["radial_order"] * radial_factor), d["radial_order"] + 1)
    angular = max(int(d["angular_order"] * angular_factor), d["angular_order"] + 1)
    if d["family"] == "disc":
        return disc_rule(radial, angular, cluster=d["cluster"], boost=d["boost"])
    if d["family"] == "polar":
        has_full_rings = abs(d["center"]) < 1.0 and not _on_circle(abs(d["center"]))
        if _panel_order(radial) <= _panel_order(d["radial_order"]) or (
            has_full_rings
            and _full_ring_order(angular) <= _full_ring_order(d["angular_order"])
        ):
            raise ValueError(
                f"refining polar orders ({d['radial_order']}, {d['angular_order']})"
                f" to ({radial}, {angular}) adds no node per radial panel"
                f" (at least {MIN_PANEL_NODES}) or per full ring"
                f" (at least {MIN_RING_NODES})"
            )
        return polar_rule_at(d["center"], radial, angular, d["inner_cutoff"])
    raise ValueError(f"unknown rule family {d['family']!r}")


def _non_finite(node, where):
    return OverflowInIntegrand(f"non-finite integrand value near node #{node} ({where})")


def _check_finite(values, where):
    finite = np.isfinite(values)
    if not np.all(finite):
        # a node is bad when any of its batched values is
        bad = int(np.argmin(np.all(finite, axis=tuple(range(finite.ndim - 1)))))
        raise _non_finite(bad, where)


#: values per integrand call: a full-tensor chunk holds this many points
#: of a one-valued integrand, fewer when each point carries a batch of values
INTEGRAND_CHUNK = 1 << 18

#: tuples per part when a symmetric block or a pair table is evaluated
#: piecewise.  A block that is cut has no part shorter than 2^15 tuples,
#: half of this, whether it is cut by :func:`chunk_slices` or by
#: :func:`pairwise_sum`, one part per call, so that the parts round as the
#: whole block does (see :func:`chunk_slices`); the norm pass halves a part
#: of 2^15 tuples or more, into halves of at least 2^14
BLOCK_CHUNK = 1 << 16


def _triangle_start(size, row):
    """Offset of ``row`` in the packed upper triangle ``np.triu_indices(size)``."""
    return row * size - row * (row - 1) // 2


def triangle_indices(size, start, stop):
    """The pairs at offsets ``start`` to ``stop`` of the packed upper
    triangle ``np.triu_indices(size)``, as int32 arrays built without
    int64 temporaries of their length: the row j and column k of every
    pair j <= k, row by row.

    Gather with them through ``take``: indexing converts int32 indices to
    intp first, which made a gather about three times slower.
    """
    starts = _triangle_start(size, np.arange(size + 1))
    total = int(starts[-1])
    if total > np.iinfo(np.int32).max:
        raise ValueError(f"{size} nodes have too many pairs for int32 indices")
    # the rows that hold offsets start to stop - 1, and how many each holds
    rows = np.arange(np.searchsorted(starts, start, "right") - 1, np.searchsorted(starts, stop))
    counts = np.minimum(starts[rows + 1], stop) - np.maximum(starts[rows], start)
    j = np.repeat(rows.astype(np.int32), counts)
    # the pair at offset t of row j has column t - (start(j) - j)
    k = np.arange(start, stop, dtype=np.int32)
    k -= np.repeat((starts[rows] - rows).astype(np.int32), counts)
    return j, k


def chunk_slices(length, chunk):
    """Slices covering range(length) in near-equal parts of at most ``chunk``.

    A block that is cut has no part shorter than half a chunk.  With chunks
    of 2^15 points or more every part of a cut block then holds at least
    256 KiB of complex values, as the whole block does, so numpy treats
    each part as it treats the whole block and the parts get the same
    floating-point results: numpy reuses temporaries of that size as
    outputs, which swaps the operands of a complex product with a scalar
    and can change its last bit.
    """
    count = max(1, -(-length // chunk))
    step = max(1, -(-length // count))
    return [slice(lo, min(lo + step, length)) for lo in range(0, length, step)]


def _pairwise_half(length):
    """Where numpy's float64 pairwise summation splits ``length`` values:
    the length of its first half, a multiple of 8."""
    half = length // 2
    return half - half % 8


def pairwise_sum(start, stop, part_sum):
    """``np.sum`` of the float64 values at range(start, stop), made in parts.

    ``part_sum(part)`` returns the sum of the values in the slice ``part``.
    It is called once per part, from left to right, on parts of at most
    ``BLOCK_CHUNK`` values: the range is cut where numpy's pairwise
    summation splits it, and cut again in each half.  Their sums are added
    along the same tree.  numpy sums more than 128 contiguous float64
    values as the sum of its two halves, so the result is ``np.sum`` of the
    whole, bit for bit.  The sums may be arrays of several sums each, added
    elementwise.
    """
    if stop - start <= BLOCK_CHUNK:
        return part_sum(slice(start, stop))
    middle = start + _pairwise_half(stop - start)
    return pairwise_sum(start, middle, part_sum) + pairwise_sum(middle, stop, part_sum)


class PairTable:
    """The sorted index n-tuples of a rule with these weights, in blocks,
    with the values of ``f`` at their last two indices.

    ``f`` maps int32 index arrays j and k to an iterable of arrays of
    values at the pairs (j, k).  At n >= 3 every block reads the pairs at
    or above its prefix, so j, k and ``f`` are made once per rule, in parts
    of at most ``BLOCK_CHUNK`` pairs, each array stored in a packed table
    as soon as it is yielded.  At n = 2 the one block reads each pair once,
    so they are made slice by slice and nothing of the triangle's length
    is held (``tables`` is None).
    """

    def __init__(self, weights, n, f=None):
        if n < 2:
            raise ValueError("symmetric blocks need n >= 2")
        self.weights = np.asarray(weights)
        self.n = n
        self.size = len(self.weights)
        self.starts = _triangle_start(self.size, np.arange(self.size + 1))
        self.f = f or (lambda j, k: ())
        self.tables = None
        if n > 2:
            total = int(self.starts[-1])
            self.tables = []
            for part in chunk_slices(total, BLOCK_CHUNK):
                j, k = triangle_indices(self.size, part.start, part.stop)
                for index, value in enumerate(chain((j, k), self.f(j, k))):
                    if index == len(self.tables):
                        self.tables.append(np.empty(total, dtype=value.dtype))
                    self.tables[index][part] = value

    def blocks(self):
        """Yields ``(prefix, length, tuples)`` per sorted prefix of the first
        n - 2 indices, in lexicographic order; the last two, j <= k, run over
        the ``length`` pairs of the upper triangle at or above the prefix's
        last index, in ``np.triu_indices`` order.  ``tuples(part)`` returns
        ``(j, k, weight, values)`` for a slice of them: ``weight`` is the
        multiset multiplicity n!/prod(c!) times the tensor weight, as
        ``mult * (prod(prefix weights) * w_j * w_k)``, and ``values`` the
        arrays of ``f``.  With unit weights the multiplicities sum to size**n.
        """
        for prefix in combinations_with_replacement(range(self.size), self.n - 2):
            yield (prefix, *self._block(prefix))

    def _block(self, prefix):
        n, size, weights, starts = self.n, self.size, self.weights, self.starts
        low = prefix[-1] if prefix else 0
        first = int(starts[low])
        fact = [math.factorial(c) for c in range(n + 1)]
        counts = Counter(prefix)
        at_low = counts.pop(low, 0)
        others = math.prod(fact[c] for c in counts.values())
        # below the first row j > low, so only a doubled last pair adds a
        # count; the first row (j = low) holds one more copy of low, and its
        # first tuple (low, low) two more
        mult = fact[n] / (others * fact[at_low])
        mult_diagonal = fact[n] / (others * fact[at_low] * 2.0)
        mult_first_row = fact[n] / (others * fact[at_low + 1])
        mult_first = fact[n] / (others * fact[at_low + 2])
        prefix_weight = math.prod(weights[i] for i in prefix)

        def tuples(part):
            lo, hi = first + part.start, first + part.stop
            if self.tables is None:
                j, k = triangle_indices(size, lo, hi)
                values = list(self.f(j, k))
            else:
                j, k, *values = [table[lo:hi] for table in self.tables]
            out = np.full(hi - lo, mult)
            # every row opens with its diagonal pair (j, j); the first row
            # (j = low) is set after
            rows = slice(np.searchsorted(starts, lo), np.searchsorted(starts, hi))
            out[starts[rows] - lo] = mult_diagonal
            out[: max(0, size - low - part.start)] = mult_first_row
            if part.start == 0 and hi > lo:
                out[0] = mult_first
            out *= prefix_weight * weights.take(j) * weights.take(k)
            return j, k, out, values

        return int(starts[size]) - first, tuples

    def prefix_product(self, prefix, j, k):
        """The first array of ``f`` at the pairs that ``prefix`` adds to
        the tuples ending in (j, k), n >= 3: for each prefix index i, its
        pairs with every later prefix index and with j and k, multiplied
        in the order ``WeightSpec.evaluate`` multiplies them."""
        first = self.tables[2]
        factors = []
        for a, i in enumerate(prefix):
            # the pair (i, column) for every column >= i
            row = first[_triangle_start(self.size, i) - i :]
            factors += [row[later] for later in prefix[a + 1 :]]
            factors += [row.take(j), row.take(k)]
        # from the first factor on, where math.prod adds a whole-array 1 * x
        return reduce(mul, factors)


def _batch_total(acc):
    return complex(acc) if np.ndim(acc) == 0 else np.asarray(acc, dtype=complex)


def integrate_polydisc(f, rule, n, symmetric=False, chunk=INTEGRAND_CHUNK):
    """Tensor-product integral of f over the polydisc D^n.

    ``f`` maps an (m, n) integer array of node-index rows to an (m,)
    array, or to an array of shape (..., m) whose leading axes index a
    batch of integrands that share the points; the row (i_1, ..., i_n)
    stands for the tensor point (nodes[i_1], ..., nodes[i_n]), which an
    integrand that needs it gathers as ``rule.nodes.take(index)``.  The
    last axis is summed against the rule weights and the result has the
    batch shape (a complex number for an (m,) integrand).  ``chunk`` is
    the number of rows per call of ``f``.  With ``symmetric=True`` (the
    integrand must be invariant under coordinate permutations) the tensor
    sum is restricted to sorted index tuples with multiset multiplicities,
    an exact reduction by up to n! in work.  ``f`` sees at most ``chunk``
    rows of a block of :class:`PairTable` at a time, but the block's values
    and weights are held whole and summed once, so memory grows with the
    largest block: the size^2/2 pairs of the whole rule at n = 2, the pairs
    at or above one index at n = 3.
    At n = 1 there is nothing to reduce and ``symmetric`` is ignored.

    Each chunk's or block's values are checked for a non-finite value
    (``OverflowInIntegrand``) only when their weighted sum is not finite:
    an inf or nan value makes that sum inf or nan whatever its weight, so
    a finite sum clears every value without a second pass over them.
    Finite values whose weighted sum overflows raise nothing.
    """
    weights = np.asarray(rule.weights)
    size = len(weights)
    if symmetric and n > 1:
        acc = 0.0 + 0.0j
        for prefix, length, tuples in PairTable(weights, n).blocks():
            j, k, weight, _ = tuples(slice(0, length))
            parts = []
            for part in chunk_slices(len(j), chunk):
                # rows as the transpose of stacked columns, so that each
                # column an integrand gathers with is contiguous
                columns = [np.full(len(j[part]), i, dtype=j.dtype) for i in prefix]
                parts.append(np.asarray(f(np.stack(columns + [j[part], k[part]]).T)))
            vals = np.concatenate(parts, axis=-1)
            block_sum = np.sum(weight * vals, axis=-1)
            if not np.all(np.isfinite(block_sum)):
                _check_finite(vals, f"symmetric n={n}, prefix={prefix}")
            acc += block_sum
        return _batch_total(acc)
    total = size**n
    shape = (size,) * n
    acc = 0.0 + 0.0j
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        multi = np.unravel_index(idx, shape)
        w = weights[multi[0]].copy()
        for ix in multi[1:]:
            w *= weights[ix]
        vals = np.asarray(f(np.stack(multi).T))
        chunk_sum = np.sum(w * vals, axis=-1)
        if not np.all(np.isfinite(chunk_sum)):
            _check_finite(vals, f"chunk at {start}")
        acc += chunk_sum
    return _batch_total(acc)


@dataclass(frozen=True)
class WeightSpec:
    """A positive weight on the polydisc (or the disc, for n = 1).

    kinds: ``jacobian_power`` (modulus of the coordinate Vandermonde raised
    to ``exponent``; exponent 0 is the weight 1), ``point_product``
    (product over reference points a of |a - w|^exponent, one variable).
    """

    kind: str
    exponent: float = 0.0
    points: tuple = ()

    @classmethod
    def jacobian_power(cls, exponent):
        return cls(kind="jacobian_power", exponent=float(exponent))

    @classmethod
    def point_product(cls, points, exponent):
        return cls(
            kind="point_product",
            exponent=float(exponent),
            points=tuple(complex(a) for a in points),
        )

    def evaluate(self, pts):
        pts = np.asarray(pts)
        if pts.ndim == 1:
            pts = pts[:, None]
        m, n = pts.shape
        if self.kind == "jacobian_power":
            out = np.ones(m)
            for j in range(n):
                for k in range(j + 1, n):
                    out *= np.abs(pts[:, j] - pts[:, k]) ** self.exponent
            return out
        if self.kind == "point_product":
            if n != 1:
                raise ValueError("point_product weights are one-variable weights")
            w = pts[:, 0]
            out = np.ones(m)
            for a in self.points:
                out *= np.abs(a - w) ** self.exponent
            return out
        raise ValueError(f"unknown weight kind {self.kind!r}")
