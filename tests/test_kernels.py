"""Tests for the kernel evaluators and the blow-up family.

Expected values come from independent routes: explicit closed forms,
mpmath recomputation at high precision and exact sympy calculus for the
n = 3 operator.
"""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergproj.errors import PoleProximity
from bergproj.kernels import (
    KernelSpec,
    apply_operator,
    tilde_shape,
)
from bergproj.kernels import test_function_hs as hs_family
from bergproj.quadrature import disc_rule, singular_disc_rule
from bergproj.symbolic import KERNEL_TABLE, full_denominator, kernel_numerator
from oracles import tildeT2_closed_form


def random_interior(rng, count, n, radius=0.7):
    r = radius * np.sqrt(rng.random((count, n)))
    theta = 2 * np.pi * rng.random((count, n))
    return r * np.exp(1j * theta)


def vandermonde(values):
    out = 1.0 + 0.0j
    values = list(values)
    for j in range(len(values)):
        for k in range(j + 1, len(values)):
            out *= values[j] - values[k]
    return out


class TestDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parts_sum_to_product_kernel(self, n):
        rng = np.random.default_rng(11 + n)
        z = random_interior(rng, 1, n)[0]
        wbar = random_interior(rng, 40, n)
        total = KernelSpec("t1", n).evaluate(z, wbar) + KernelSpec("t2", n).evaluate(z, wbar)
        full = KernelSpec("bergman_polydisc", n).evaluate(z, wbar)
        assert np.allclose(total, full, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_interpolating_family_endpoints(self, n):
        rng = np.random.default_rng(23 + n)
        z = random_interior(rng, 1, n)[0]
        wbar = random_interior(rng, 25, n)
        t2 = KernelSpec("t2", n).evaluate(z, wbar)
        full = KernelSpec("bergman_polydisc", n).evaluate(z, wbar)
        assert np.allclose(KernelSpec("pl", n, l=1).evaluate(z, wbar), t2, rtol=1e-13)
        assert np.allclose(KernelSpec("pl", n, l=n).evaluate(z, wbar), full, rtol=1e-13)

    def test_interpolating_family_index_bounds(self):
        with pytest.raises(ValueError):
            KernelSpec("pl", 3, l=0).evaluate((0.1, 0.2, 0.3), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            KernelSpec("pl", 3, l=4).evaluate((0.1, 0.2, 0.3), np.zeros((1, 3)))

    def test_two_variable_annihilating_part_factors(self):
        # for n = 2 the cross product minus the Vandermonde product
        # collapses, leaving 1 / (pi^2 prod_{j,k} (1 - z_j wbar_k))
        rng = np.random.default_rng(5)
        z = random_interior(rng, 1, 2)[0]
        wbar = random_interior(rng, 30, 2)
        expected = 1.0 / (
            math.pi**2
            * (1 - z[0] * wbar[:, 0])
            * (1 - z[0] * wbar[:, 1])
            * (1 - z[1] * wbar[:, 0])
            * (1 - z[1] * wbar[:, 1])
        )
        assert np.allclose(KernelSpec("t1", 2).evaluate(z, wbar), expected, rtol=1e-13)

    def test_pole_guard_on_cross_factor(self):
        with pytest.raises(PoleProximity):
            KernelSpec("t1", 2).evaluate((0.5, 0.1), np.array([[0.3, 2.0]]))

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=0.65, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_decomposition_property(self, values):
        z = np.array(values[:2])
        wbar = np.array(values[2:])[None, :]
        total = KernelSpec("t1", 2).evaluate(z, wbar) + KernelSpec("t2", 2).evaluate(z, wbar)
        assert np.allclose(total, KernelSpec("bergman_polydisc", 2).evaluate(z, wbar), rtol=1e-11)

    def test_single_row_returns_scalar(self):
        value = KernelSpec("t2", 2).evaluate((0.1, 0.2), np.array([0.3, 0.1j]))
        assert np.ndim(value) == 0


class TestBlowupFamily:
    def test_two_variable_closed_form(self):
        pts = np.array([[0.3 + 0.2j, -0.4], [0.1j, 0.5]])
        s = 0.8
        expected = (1 - pts[:, 0] * s) ** -2.0 + (1 - pts[:, 1] * s) ** -2.0
        assert np.allclose(hs_family(2, s, pts), expected, rtol=1e-14)

    def test_symmetric_under_coordinate_swap(self):
        pts = np.array([[0.5, 0.5j, -0.5]])
        s = 0.9
        for tau in permutations(range(3)):
            assert hs_family(3, s, pts[:, tau])[0] == pytest.approx(
                hs_family(3, s, pts)[0], rel=1e-14
            )

    def test_three_variable_frozen_value(self):
        # recomputed with 40-digit mpmath arithmetic
        value = hs_family(3, 0.9, np.array([0.5, 0.5j, -0.5]))
        assert value == pytest.approx(
            6.8046641201129325355 + 9.1779619227517453877j, rel=1e-14
        )


class TestConjugateVandermondeTransport:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pointwise_transport_identity(self, n):
        # multiplying the reproducing part by the conjugated Jacobian
        # equals the coordinate Vandermonde times the transported kernel
        rng = np.random.default_rng(41 + n)
        z = random_interior(rng, 1, n)[0]
        w = random_interior(rng, 30, n)
        wbar = np.conj(w)
        left = KernelSpec("t2", n).evaluate(z, wbar) * np.conj(
            np.array([vandermonde(row) for row in w])
        )
        right = vandermonde(z) * KernelSpec("tilde", n).evaluate(z, wbar)
        assert np.allclose(left, right, rtol=1e-12)

    def test_operator_level_transport(self):
        # same identity through quadrature: identical integrands must give
        # identical sums up to roundoff
        s, z = 0.7, (0.2, -0.3 + 0.1j)
        rule = disc_rule(10, 12)
        f = lambda pts: hs_family(2, s, pts)
        f_weighted = lambda pts: f(pts) * np.conj(pts[:, 0] - pts[:, 1])
        left = apply_operator(KernelSpec("t2", 2), f_weighted, z, rule)
        right = vandermonde(z) * apply_operator(KernelSpec("tilde", 2), f, z, rule)
        assert left == pytest.approx(right, rel=1e-12)

    def test_closed_form_matches_quadrature(self):
        s, z = 0.7, (0.2, -0.3 + 0.1j)
        rule = singular_disc_rule(s, 12, 16)
        f = lambda pts: hs_family(2, s, pts)
        quad = apply_operator(KernelSpec("tilde", 2), f, z, rule, symmetric_f=True)
        assert quad / math.pi == pytest.approx(tildeT2_closed_form(s, z), rel=1e-8)

    def test_symmetrized_and_full_paths_agree(self):
        s, z = 0.7, (0.2, -0.3 + 0.1j)
        rule = singular_disc_rule(s, 12, 16)
        f = lambda pts: hs_family(2, s, pts)
        spec = KernelSpec("tilde", 2)
        a = apply_operator(spec, f, z, rule, symmetric_f=True)
        b = apply_operator(spec, f, z, rule, symmetric_f=False)
        assert a == pytest.approx(b, rel=1e-12)

    def test_shape_model_reduces_to_closed_form(self):
        s = 0.85
        for z in [(0.2, -0.3 + 0.1j), (0.5j, 0.1)]:
            assert tilde_shape(2, s, np.array(z)) == pytest.approx(
                math.pi * tildeT2_closed_form(s, z), rel=1e-13
            )

    def _exact_three_variable(self, z_rational, s_rational):
        # exact calculus oracle: expand each kernel slot in powers,
        # pair against the blow-up family term by term.  Pairing against
        # a cubed factor scales coefficient m by (m+2)(m+1)/2 . 1/(m+1),
        # i.e. applies (1 + w d/dw / 2) before evaluating at s; the slot
        # the family omits evaluates at 0.
        import sympy as sp

        w = sp.symbols("w1 w2 w3")
        num = (w[0] - w[1]) ** 2 * (w[0] - w[2]) ** 2 * (w[1] - w[2]) ** 2
        den = sp.Integer(1)
        for j in range(3):
            for k in range(j, 3):
                den *= (1 - z_rational[k] * w[j]) * (1 - z_rational[j] * w[k])
        base = num / den
        total = sp.Integer(0)
        for i in range(3):
            g = base
            for j in range(3):
                if j != i:
                    g = g + w[j] * sp.diff(g, w[j]) / 2
            subs = {w[i]: 0}
            for j in range(3):
                if j != i:
                    subs[w[j]] = s_rational
            total += g.subs(subs)
        return complex((2 * total).evalf(25))

    def test_three_variable_exact_oracle(self):
        import sympy as sp

        s_exact = sp.Rational(7, 10)
        z_exact = [sp.Rational(1, 5), sp.Rational(-1, 10), sp.Rational(3, 20) * sp.I]
        exact = self._exact_three_variable(z_exact, s_exact)
        # frozen from a previous run of the same exact computation
        assert exact == pytest.approx(
            -0.41873443519365616 - 0.11951588978314823j, rel=1e-12
        )

        z = (0.2, -0.1, 0.15j)
        rule = singular_disc_rule(0.7, 8, 16)
        f = lambda pts: hs_family(3, 0.7, pts)
        quad = apply_operator(KernelSpec("tilde", 3), f, z, rule, symmetric_f=True)
        assert quad == pytest.approx(exact, rel=1e-4)

    def test_three_variable_shape_constant(self):
        # the exact operator output is a universal constant times the
        # shape model; two unrelated points must give the same constant
        import sympy as sp

        s_exact = sp.Rational(7, 10)
        z_sets = [
            [sp.Rational(1, 5), sp.Rational(-1, 10), sp.Rational(3, 20) * sp.I],
            [sp.Rational(1, 4) * sp.I, sp.Rational(3, 10), sp.Rational(-1, 5)],
        ]
        constants = []
        for z_exact in z_sets:
            exact = self._exact_three_variable(z_exact, s_exact)
            z = np.array([complex(c) for c in z_exact])
            constants.append(exact / tilde_shape(3, 0.7, z))
        assert constants[0] == pytest.approx(constants[1], rel=1e-10)
        assert constants[0] == pytest.approx(-0.5, rel=1e-10)


class TestKernelSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("mystery", 2).evaluate((0.1, 0.2), np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "family, n, l",
        [
            ("mystery", 2, None),
            ("pl", 3, None),
            ("pl", 3, 0),
            ("pl", 3, 4),
            ("pl", 3, 1.5),
            ("t1", 3, 2),
            ("tilde", 2, 1),
        ],
    )
    def test_bad_fields_rejected_when_built(self, family, n, l):
        with pytest.raises(ValueError):
            KernelSpec(family, n, l=l)

    @pytest.mark.parametrize(
        "z, wbar",
        [
            ((0.1,), np.zeros((1, 2))),
            ((0.1, 0.2, 0.3), np.zeros((1, 2))),
            ((0.1, 0.2), np.zeros(3)),
        ],
    )
    def test_point_of_wrong_length_rejected(self, z, wbar):
        with pytest.raises(ValueError):
            KernelSpec("t2", 2).evaluate(z, wbar)


class TestNumericAgainstExact:
    """Every family of the kernel table through two kinds of arithmetic:
    ``KernelSpec.evaluate`` in floats against pi^(-n) times the exact
    ``kernel_numerator`` over ``full_denominator``, evaluated at the same
    points in complex floats."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_family_and_level(self, n):
        rng = np.random.default_rng(97 + n)
        z = random_interior(rng, 1, n)[0]
        wbar = random_interior(rng, 4, n)
        specs = [KernelSpec(family, n) for family in KERNEL_TABLE if family != "pl"]
        specs += [KernelSpec("pl", n, l=l) for l in range(1, n + 1)]
        for spec in specs:
            num = kernel_numerator(spec.family, n, spec.l)
            points = [tuple(complex(x) for x in (*z, *row)) for row in wbar]
            want = np.array(
                [num.eval(point) / full_denominator(n).eval(point) for point in points]
            ) / math.pi**n
            got = spec.evaluate(z, wbar)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), spec
