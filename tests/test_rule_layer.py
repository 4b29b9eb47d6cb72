"""The rule layer: the Gauss-Legendre cache, rule invariants, the memo
of one weight table's rules, and the vectorised polar rule and tent loop
against the code they replaced.

Oracles (``oracles.py``):
* the per-ring ``polar_rule_at``, which the block-wise rule must match
  bit for bit in nodes, weights and both ``aux`` arrays;
* the apex loop of ``bekolle_bonami_estimate`` with two ``tent_average``
  calls per tent, the origin first, which the estimate -- the
  integrability check's whole-disc averages for the origin, then one
  rule per apex circle -- must match exactly, also with the rules of its
  table already held and on the origin alone (and the same NonIntegrable
  or OverflowInIntegrand message where the weight diverges).

A circle's rule is its tent rules joined: each tent's slice equals the
tent's own rule bit for bit, and the weight is evaluated once per circle.

Invariants: finite nodes and positive weights for every rule family, a
mass of pi for disc rules, polar nodes inside the disc (in the closed
disc about a centre on or within 1e-9 of the circle).  Polar weights of the deepest rings
underflow to zero by design (``aux["log_weight"]`` keeps them), so they
are checked positive wherever their logarithm is above -700 and equal to
its exponential there.  A ``QuadratureRule`` that breaks one of these
cannot be made.
"""

import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bergproj.quadrature as quadrature
from bergproj.errors import InvalidRule, NonIntegrable, OverflowInIntegrand
import bergproj.estimates as estimates
from bergproj.estimates import (
    APEX_LEVELS,
    CLASSIFICATION_SAMPLES,
    TENT_ORDER,
    TentRegion,
    _sector_cubature,
    bekolle_bonami_estimate,
    classify_forelli_rudin,
    default_apex_grid,
    tent_group_rule,
    tent_rule,
)
from bergproj.experiments import REFINE_FACTORS
from bergproj.quadrature import (
    MIN_PANEL_NODES,
    MIN_RING_NODES,
    QuadratureRule,
    WeightSpec,
    disc_rule,
    legendre_nodes,
    polar_rule_at,
    refine,
)
import oracles

ORDERS = st.integers(min_value=2, max_value=16)
#: polar inner cutoffs, 1e-5 down to 1e-280, log-uniform
CUTOFFS = st.floats(min_value=5.0, max_value=280.0).map(lambda e: 10.0**-e)
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def centers(draw, on_circle=True):
    """Polar rule centres at the origin, inside the disc, outside it or,
    with ``on_circle``, on the boundary circle."""
    where = draw(st.sampled_from(["origin", "inside", "outside"] + ["circle"] * on_circle))
    if where == "origin":
        return 0j
    if where == "inside":
        modulus = draw(st.floats(min_value=1e-6, max_value=0.999))
    elif where == "outside":
        modulus = draw(st.floats(min_value=1.001, max_value=3.0))
    else:
        # on the circle, or as near it as the rule still takes for on it
        modulus = draw(st.sampled_from([1.0, 1.0 - 5e-10, 1.0 + 5e-10]))
    return complex(modulus * np.exp(1j * draw(ANGLES)))


def assert_finite_positive(rule):
    assert rule.size > 0
    assert np.all(np.isfinite(rule.nodes))
    assert np.all(np.isfinite(rule.weights))
    assert np.all(rule.weights > 0)


class TestLegendreCache:
    def test_arrays_are_read_only(self):
        x, w = legendre_nodes(7)
        for array in (x, w):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_repeated_call_returns_the_same_objects(self):
        first = legendre_nodes(9)
        again = legendre_nodes(9.0)
        assert again[0] is first[0] and again[1] is first[1]

    def test_matches_numpy(self):
        x, w = legendre_nodes(12)
        ref_x, ref_w = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)

    def test_filled_on_first_use_through_the_module_attribute(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(order):
            calls.append(order)
            return real(order)

        monkeypatch.setattr(quadrature, "_LEGENDRE", {})
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        disc_rule(10, 10)
        disc_rule(10, 20)
        polar_rule_at(0.5, 10, 6)
        assert sorted(calls) == [6, 10]

    def test_empty_after_import(self):
        code = "import bergproj.cli, bergproj.quadrature as q; print(len(q._LEGENDRE))"
        src = str(Path(quadrature.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "0"


class TestRuleInvariants:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"cluster": 3}, {"boost": (8, math.pi / 8)}, {"cluster": 2, "boost": (4, 0.5)}],
    )
    @settings(max_examples=15, deadline=None)
    @given(radial=ORDERS, angular=ORDERS)
    def test_disc_rule(self, kwargs, radial, angular):
        rule = disc_rule(radial, angular, **kwargs)
        assert_finite_positive(rule)
        assert abs(np.sum(rule.weights) - math.pi) <= 1e-12
        assert np.max(np.abs(rule.nodes)) < 1.0

    @settings(max_examples=40, deadline=None)
    @given(center=centers(), radial=ORDERS, angular=ORDERS, cutoff=CUTOFFS)
    @example(center=1.0 + 5e-10, radial=8, angular=8, cutoff=1e-12)
    @example(center=1.0 - 5e-10, radial=8, angular=8, cutoff=1e-12)
    @example(center=complex(np.exp(0.7j) * (1.0 + 5e-10)), radial=8, angular=8, cutoff=1e-12)
    def test_polar_rule(self, center, radial, angular, cutoff):
        rule = polar_rule_at(center, radial, angular, cutoff)
        assert np.all(np.isfinite(rule.nodes))
        if abs(abs(center) - 1.0) < 1e-9:
            assert np.max(np.abs(rule.nodes)) <= 1.0
        else:
            assert np.max(np.abs(rule.nodes)) < 1.0
        log_weight = rule.aux["log_weight"]
        assert np.all(np.isfinite(log_weight))
        assert np.all(rule.weights >= 0)
        normal = log_weight > -700.0
        assert np.all(rule.weights[normal] > 0)
        assert np.allclose(np.log(rule.weights[normal]), log_weight[normal], rtol=0, atol=1e-12)
        assert np.all(rule.aux["center_distance"] > 0)

    @settings(max_examples=30, deadline=None)
    @given(
        modulus=st.floats(min_value=0.0, max_value=0.999),
        angle=ANGLES,
        order=st.integers(min_value=2, max_value=64),
    )
    def test_tent_rule(self, modulus, angle, order):
        tent = TentRegion(complex(modulus * np.exp(1j * angle)))
        rule = tent_rule(tent, order)
        assert_finite_positive(rule)

    @settings(max_examples=20, deadline=None)
    @given(
        s=st.floats(min_value=0.9, max_value=0.9999),
        inner=st.floats(min_value=1e-6, max_value=0.5),
        half_aperture=st.floats(min_value=0.01, max_value=math.pi / 6),
        k_exp=st.floats(min_value=2.0, max_value=6.0),
    )
    def test_sector_cubature(self, s, inner, half_aperture, k_exp):
        nodes, weights, values = _sector_cubature(s, inner, half_aperture, k_exp)
        assert np.all(np.isfinite(nodes))
        assert np.all(np.isfinite(weights)) and np.all(weights > 0)
        assert np.all(np.isfinite(values))


class TestRuleCheckedWhenMade:
    """A rule that breaks an invariant cannot be made."""

    @staticmethod
    def make(nodes, weights, log_weight=None):
        aux = None if log_weight is None else {"log_weight": np.array(log_weight)}
        return QuadratureRule(
            np.array(nodes, dtype=complex), np.array(weights, dtype=float), {"family": "test"}, aux
        )

    @pytest.mark.parametrize(
        "nodes, weights, log_weight, broken",
        [
            ([0.5, complex(math.nan, 0.0)], [1.0, 1.0], None, "a non-finite node"),
            ([0.5, 1.0 + 1e-7j], [1.0, 1.0], None, "a node outside the closed unit disc"),
            ([0.5, -0.5], [1.0, 0.0], None, "a weight that is not positive"),
            ([0.5, -0.5], [1.0, -1.0], [0.0, -800.0], "a weight that is not positive"),
            ([0.5, -0.5], [1.0, 0.0], [0.0, -699.0], "a weight that is not positive"),
            ([], [], None, "no nodes"),
        ],
    )
    def test_broken_rule_refused(self, nodes, weights, log_weight, broken):
        with pytest.raises(InvalidRule, match=f"test rule has {broken}"):
            self.make(nodes, weights, log_weight)

    def test_underflowed_weights_of_deep_rings_kept(self):
        rule = self.make([0.5, 1.0], [1.0, 0.0], [0.0, -800.0])
        assert rule.size == 2


#: tent apexes: the origin (the whole disc) or a point of modulus up to 0.999
APEXES = st.one_of(
    st.just(0j),
    st.builds(
        lambda modulus, angle: complex(modulus * np.exp(1j * angle)),
        st.floats(min_value=1e-3, max_value=0.999),
        ANGLES,
    ),
)


class TestTentGroupRule:
    @settings(max_examples=40, deadline=None)
    @given(apexes=st.lists(APEXES, min_size=1, max_size=6), order=ORDERS)
    def test_slices_equal_tent_rules(self, apexes, order):
        group = tent_group_rule(tuple(apexes), order)
        starts = list(group.aux["start"]) + [group.size]
        assert len(group.aux["mass"]) == len(apexes)
        for t, apex in enumerate(apexes):
            own = tent_rule(TentRegion(apex), order)
            part = slice(starts[t], starts[t + 1])
            assert np.array_equal(group.nodes[part], own.nodes)
            assert np.array_equal(group.weights[part], own.weights)
            assert group.aux["mass"][t] == np.sum(own.weights)


class TestPolarRuleOracle:
    # the per-ring loop refuses centres on the circle, which came later
    @settings(max_examples=60, deadline=None)
    @given(center=centers(on_circle=False), radial=ORDERS, angular=ORDERS, cutoff=CUTOFFS)
    def test_bit_equal_to_per_ring_loop(self, center, radial, angular, cutoff):
        new = polar_rule_at(center, radial, angular, cutoff)
        old = oracles.polar_rule_at(center, radial, angular, cutoff)
        assert np.array_equal(new.nodes, old.nodes)
        assert np.array_equal(new.weights, old.weights)
        for key in ("center_distance", "log_weight"):
            assert np.array_equal(new.aux[key], old.aux[key])
        assert new.descriptor == old.descriptor


class TestEstimateOracle:
    @pytest.mark.parametrize(
        "points, p",
        [
            ((0.5,), 1.5),
            ((0.5,), 3.0),
            ((0.5,), 3.9),
            ((0.3, 0.3 + 0.02j), 1.6),
            ((0.3, 0.3 + 0.02j), 2.5),
        ],
    )
    def test_equal_to_two_average_loop(self, points, p):
        weight = WeightSpec.point_product(points, 2.0 - p)
        assert bekolle_bonami_estimate(weight, p) == oracles.bekolle_bonami_estimate(weight, p)

    def test_equal_on_the_origin_alone(self, monkeypatch):
        weight = WeightSpec.point_product((0.5,), 2.0 - 3.0)
        monkeypatch.setattr(estimates, "default_apex_grid", lambda: [])
        got = bekolle_bonami_estimate(weight, 3.0)
        assert got == oracles.bekolle_bonami_estimate(weight, 3.0, apex_grid=[0j])

    def test_point_on_a_tent_node_overflows_in_both(self):
        # the weight's point is a node of the sixth tent of the first
        # circle, where |a - w|^-0.5 is infinite; the whole disc and the
        # tents before it are finite
        apex = default_apex_grid()[0][5]
        node = tent_rule(TentRegion(apex), TENT_ORDER).nodes[100]
        weight = WeightSpec.point_product((node,), -0.5)
        with np.errstate(divide="ignore"):
            with pytest.raises(OverflowInIntegrand) as new:
                bekolle_bonami_estimate(weight, 2.5)
            with pytest.raises(OverflowInIntegrand) as old:
                oracles.bekolle_bonami_estimate(weight, 2.5)
        assert str(new.value) == str(old.value)

    def test_weight_evaluated_once_per_circle(self, monkeypatch):
        # at most one evaluation per circle and one per whole-disc
        # average (two powers at two orders); one per tent would be 256
        calls = []
        evaluate = WeightSpec.evaluate

        def counting(self, pts):
            calls.append(len(pts))
            return evaluate(self, pts)

        monkeypatch.setattr(WeightSpec, "evaluate", counting)
        bekolle_bonami_estimate(WeightSpec.point_product((0.5,), -1.0), 3.0)
        assert 0 < len(calls) <= APEX_LEVELS + 4

    def test_whole_disc_averages_taken_once(self, monkeypatch):
        # at a = 0.5, p = 3 only the weight itself is graded: on an empty
        # memo the integrability check builds its polar rule at two
        # orders, and the apex-0 tent reuses the coarser one instead of
        # building it again; a second p of the same table builds none
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return polar_rule_at(*args, **kwargs)

        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        monkeypatch.setattr(estimates, "polar_rule_at", counting)
        for p, graded_builds in ((3.0, 2), (3.5, 0)):
            weight = WeightSpec.point_product((0.5,), 2.0 - p)
            got = bekolle_bonami_estimate(weight, p)
            assert len(builds) == graded_builds
            builds.clear()
            assert got == oracles.bekolle_bonami_estimate(weight, p)
            assert not builds

    def test_whole_disc_maximum_kept(self, monkeypatch):
        # at a = 0.5, p = 3.9 the graded whole-disc tent gives the maximum
        weight = WeightSpec.point_product((0.5,), 2.0 - 3.9)
        got = bekolle_bonami_estimate(weight, 3.9)
        assert got == oracles.bekolle_bonami_estimate(weight, 3.9)
        monkeypatch.setattr(estimates, "default_apex_grid", lambda: [])
        assert got == bekolle_bonami_estimate(weight, 3.9)

    def test_non_integrable_in_both(self):
        weight = WeightSpec.point_product((0.5,), 2.0 - 4.0)
        with pytest.raises(NonIntegrable) as new:
            bekolle_bonami_estimate(weight, 4.0)
        with pytest.raises(NonIntegrable) as old:
            oracles.bekolle_bonami_estimate(weight, 4.0)
        assert str(new.value) == str(old.value)


def outcome(estimate, points, p):
    """The estimate of the table's weight at p, or the NonIntegrable
    message it raised."""
    try:
        return estimate(WeightSpec.point_product(points, 2.0 - p), p)
    except NonIntegrable as exc:
        return str(exc)


#: the two weight tables of scripts/run_weight_estimates.py
TABLES = ((0.5,), (0.3, 0.3 + 0.02j))


class TestTableMemo:
    """The rules of one weight table are built once for all its p, and
    the default growth rules once for all exponents."""

    def held_rules(self):
        return list(estimates._TABLE_RULES.values())

    def test_held_arrays_are_read_only(self):
        bekolle_bonami_estimate(WeightSpec.point_product((0.5,), -1.0), 3.0)
        rules = self.held_rules()
        families = {rule.descriptor["family"] for rule in rules}
        assert families == {"polar", "disc", "tent_group"}
        for rule in rules:
            for array in [rule.nodes, rule.weights, *(rule.aux or {}).values()]:
                assert isinstance(array, np.ndarray)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_origin_averaged_on_the_whole_disc_only(self, monkeypatch):
        # at a = 0.5, p = 3 the weight power is graded and the dual power
        # is not: the memo holds the two graded polar rules, one disc rule
        # per order for the dual power, and one tent group per apex circle,
        # none of which holds the origin
        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        bekolle_bonami_estimate(WeightSpec.point_product((0.5,), 2.0 - 3.0), 3.0)
        by_family = {}
        for rule in self.held_rules():
            by_family.setdefault(rule.descriptor["family"], []).append(rule)
        assert sorted(by_family) == ["disc", "polar", "tent_group"]
        assert len(by_family["polar"]) == 2
        orders = sorted(rule.descriptor["radial_order"] for rule in by_family["disc"])
        assert orders == [TENT_ORDER, 2 * TENT_ORDER]
        groups = by_family["tent_group"]
        assert len(groups) == APEX_LEVELS
        assert not any(0j in rule.descriptor["apexes"] for rule in groups)

    def test_one_table_held_at_a_time(self):
        bekolle_bonami_estimate(WeightSpec.point_product(TABLES[0], -1.0), 3.0)
        graded = [r for r in self.held_rules() if r.descriptor["family"] == "polar"]
        assert [r.descriptor["center"] for r in graded] == [0.5, 0.5]
        refs = [weakref.ref(rule) for rule in graded]
        del graded
        bekolle_bonami_estimate(WeightSpec.point_product(TABLES[1], -0.5), 2.5)
        assert all(ref() is None for ref in refs)
        assert {key[0] for key in estimates._TABLE_RULES} == {TABLES[1]}

    def test_growth_rules_built_once_per_radius(self, monkeypatch):
        # without a boundary factor the default growth rule depends on the
        # radius alone, so classifying three exponents builds one polar
        # rule per sample radius
        built = []

        def counting(*args):
            built.append(args)
            return polar_rule_at(*args)

        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        monkeypatch.setattr(estimates, "polar_rule_at", counting)
        for s_exp in (0.5, 0.0, -0.5):
            classify_forelli_rudin(0.0, s_exp)
        assert len(built) == len(set(built)) == len(CLASSIFICATION_SAMPLES)

    @settings(max_examples=10, deadline=None)
    @given(points=st.sampled_from(TABLES), p=st.floats(min_value=1.05, max_value=5.0))
    @example(points=TABLES[0], p=4.0)
    def test_warm_memo_equal_to_oracle(self, points, p):
        # an estimate at p = 3 builds every rule of the table
        outcome(bekolle_bonami_estimate, points, 3.0)
        got = outcome(bekolle_bonami_estimate, points, p)
        assert got == outcome(oracles.bekolle_bonami_estimate, points, p)


def ring_count(rule):
    return len(np.unique(rule.aux["center_distance"]))


def disc_radii_and_angles(rule):
    """The counts of distinct radii and of angles per ring of a disc rule,
    whose nodes are a radius-major product grid."""
    radii = np.sort(np.abs(rule.nodes))
    radial = 1 + int(np.count_nonzero(np.diff(radii) > 1e-12))
    assert rule.size % radial == 0
    return radial, rule.size // radial


def innermost_ring_nodes(rule):
    dist = rule.aux["center_distance"]
    return int(np.sum(dist == dist.min()))


class TestRefineAddsNodes:
    """A refined polar rule has more nodes on each radial panel and on each
    full ring than its base, or ``refine`` refuses it; it refuses only
    below a floor.  Centres inside the disc start with full rings; about a
    centre on the circle every ring is an arc."""

    @settings(max_examples=80, deadline=None)
    @given(
        centers(),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.sampled_from(sorted(REFINE_FACTORS.values())),
    )
    def test_richer_or_refused(self, center, radial, angular, factors):
        base = polar_rule_at(center, radial, angular)
        has_full_rings = abs(center) < 1.0 - 1e-9
        try:
            fine = refine(base, *factors)
        except ValueError:
            assert radial < MIN_PANEL_NODES or (
                has_full_rings and 2 * angular < MIN_RING_NODES
            )
            return
        # the panels are fixed by the centre, so more rings means more
        # nodes per panel
        assert ring_count(fine) > ring_count(base)
        if has_full_rings:
            assert innermost_ring_nodes(fine) > innermost_ring_nodes(base)

    def test_floored_orders_refused(self):
        with pytest.raises(ValueError, match="adds no node"):
            refine(polar_rule_at(1.0 / 0.9, 3, 16), 1.5, 1.5)
        with pytest.raises(ValueError, match="adds no node"):
            refine(polar_rule_at(0.5, 8, 3), 1.4, 1.4)
        # outside the disc every ring is an arc, whose nodes do grow
        fine = refine(polar_rule_at(1.0 / 0.9, 8, 3), 1.4, 1.4)
        assert fine.descriptor["angular_order"] == 4


class TestRefineDiscAddsNodes:
    """A refined disc rule has strictly more radii and strictly more nodes
    per ring than its base, plain, graded or with a boosted sector."""

    KWARGS = [
        {},
        {"cluster": 2},
        {"cluster": 3},
        {"boost": (8, math.pi / 8)},
        {"boost": (4, 0.5)},
        {"cluster": 2, "boost": (3, 1.0)},
    ]
    FACTORS = sorted(REFINE_FACTORS.values()) + [(1.1, 1.1), (1.5, 1.5), (2.0, 2.0)]

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(KWARGS),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.sampled_from(FACTORS),
    )
    def test_strictly_richer(self, kwargs, radial, angular, factors):
        base = disc_rule(radial, angular, **kwargs)
        fine = refine(base, *factors)
        base_radii, base_angles = disc_radii_and_angles(base)
        fine_radii, fine_angles = disc_radii_and_angles(fine)
        assert base_radii == radial
        assert fine_radii > base_radii
        assert fine_angles > base_angles
