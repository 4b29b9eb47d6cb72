"""The batched full-tensor integral: ``integrate_polydisc`` summing the
last axis of batched integrands, and ``apply_operator`` on a stack of
sample points and a stack of functions at once.

Oracle (``oracles.py``): the full-tensor ``apply_operator`` for one point
and one function, which the batched call must match to 1e-13 of the
largest modulus for every (point, function) pair, and bit for bit when
there is one of each.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergproj.kernels as kernels
from bergproj.errors import OverflowInIntegrand, PoleProximity
from bergproj.kernels import KernelSpec, apply_operator
from bergproj.kernels import test_function_hs as hs_family
from bergproj.quadrature import INTEGRAND_CHUNK, disc_rule, integrate_polydisc
import oracles

FAMILIES = ("bergman_polydisc", "t1", "t2", "tilde", "pl")


def interior_points(seed, count, n, radius=0.7):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random((count, n)))
    return r * np.exp(2j * np.pi * rng.random((count, n)))


def monomial(exponents, conjugate):
    """w^exponents, times conj(w_0) when ``conjugate``."""

    def f(pts):
        out = np.ones(len(pts), dtype=complex)
        for j, e in enumerate(exponents):
            out = out * pts[:, j] ** e
        return out * np.conj(pts[:, 0]) if conjugate else out

    return f


def stack_of(functions):
    return lambda pts: np.stack([f(pts) for f in functions])


@st.composite
def operator_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    family = draw(st.sampled_from(FAMILIES))
    l = draw(st.integers(1, n)) if family == "pl" else None
    spec = KernelSpec(family, n, l=l)
    if n == 2:
        rule = disc_rule(draw(st.integers(2, 6)), draw(st.integers(4, 12)))
    else:
        rule = disc_rule(draw(st.integers(2, 3)), draw(st.integers(4, 6)))
    z = interior_points(draw(st.integers(0, 2**16)), draw(st.integers(1, 5)), n)
    functions = [
        monomial(
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), draw(st.booleans())
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return spec, rule, z, functions


class TestApplyOperatorBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        case=operator_cases(),
        budget=st.sampled_from([INTEGRAND_CHUNK, 4096, 500]),
        symmetric=st.booleans(),
    )
    def test_equal_to_per_pair_oracle(self, case, budget, symmetric):
        spec, rule, z, functions = case
        n = spec.n
        with mock.patch.object(kernels, "INTEGRAND_CHUNK", budget):
            got = apply_operator(spec, stack_of(functions), z, rule)
            # one point is a stack of one, bit for bit, with either reduction
            for f in (functions[0], stack_of(functions)):
                one = apply_operator(spec, f, z[0], rule, symmetric_f=symmetric)
                stacked = apply_operator(spec, f, z[:1], rule, symmetric_f=symmetric)
                assert np.array_equal(one, stacked[0])
        want = np.array(
            [[oracles.apply_operator(spec, f, point, rule, n) for f in functions] for point in z]
        )
        assert got.shape == want.shape == (len(z), len(functions))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "family, n, orders",
        [
            ("t1", 2, (8, 16)),
            ("tilde", 2, (5, 9)),
            ("pl", 3, (3, 6)),
            ("bergman_polydisc", 3, (3, 5)),
            # 373,248 tensor points: two chunks
            ("t1", 3, (6, 12)),
        ],
    )
    def test_one_point_one_function_bit_equal(self, family, n, orders):
        spec = KernelSpec(family, n, l=2 if family == "pl" else None)
        rule = disc_rule(*orders)
        f = monomial((2, 1, 0)[:n], True)
        z = interior_points(11, 1, n)[0]
        got = apply_operator(spec, f, z, rule)
        assert isinstance(got, complex)
        assert got == oracles.apply_operator(spec, f, z, rule, n)

    def test_chunk_holds_at_most_the_value_budget(self):
        # 3 points x 2 functions: 166 integration points per call of f,
        # after the one-point call that reads the number of functions
        rule, seen = disc_rule(3, 6), []

        def functions(pts):
            seen.append(len(pts))
            return np.stack([pts[:, 0], pts[:, 1] ** 2])

        with mock.patch.object(kernels, "INTEGRAND_CHUNK", 1000):
            apply_operator(KernelSpec("t1", 2), functions, interior_points(4, 3, 2), rule)
        assert seen[0] == 1
        assert max(seen[1:]) == 1000 // 6
        assert sum(seen[1:]) == rule.size**2

    def test_result_shapes(self):
        spec, rule = KernelSpec("t2", 2), disc_rule(3, 6)
        z = interior_points(3, 4, 2)
        f, g = monomial((1, 0), False), monomial((0, 2), True)
        assert apply_operator(spec, f, z, rule).shape == (4,)
        assert apply_operator(spec, stack_of([f, g]), z[0], rule).shape == (2,)
        assert apply_operator(spec, stack_of([f]), z, rule).shape == (4, 1)

    @pytest.mark.parametrize("z", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2))])
    def test_wrong_point_shape_rejected(self, z):
        with pytest.raises(ValueError):
            apply_operator(KernelSpec("t1", 2), monomial((1, 0), False), z, disc_rule(3, 6))

    def test_symmetric_batch_equal_to_single_calls(self):
        n, rule = 3, disc_rule(3, 6)
        spec = KernelSpec("tilde", n)
        functions = [lambda pts: hs_family(n, 0.5, pts), lambda pts: np.sum(pts, axis=1) ** 2]
        z = interior_points(5, 3, n)
        got = apply_operator(spec, stack_of(functions), z, rule, symmetric_f=True)
        want = np.array(
            [[apply_operator(spec, f, point, rule, symmetric_f=True) for f in functions] for point in z]
        )
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_pole_in_any_sample_point_raises(self):
        rule = disc_rule(3, 6)
        z = interior_points(9, 3, 2)
        # the second point sits on the kernel's pole at the first node
        z[1, 0] = 1.0 / np.conj(rule.nodes[0])
        functions = stack_of([monomial((1, 0), False), monomial((0, 1), False)])
        with pytest.raises(PoleProximity):
            apply_operator(KernelSpec("t1", 2), functions, z, rule)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_infinite_value_in_any_function_raises(self, bad):
        rule = disc_rule(3, 6)

        def functions(pts):
            out = np.ones((3, len(pts)), dtype=complex)
            out[bad, pts[:, 1] == rule.nodes[4]] = np.inf
            return out

        with pytest.raises(OverflowInIntegrand), np.errstate(invalid="ignore"):
            apply_operator(KernelSpec("t2", 2), functions, interior_points(2, 2, 2), rule)


class TestIntegrateBatch:
    @staticmethod
    def batch(pts):
        s = np.sum(pts, axis=1)
        return np.stack([np.exp(s), np.prod(1.0 + 0.3 * pts, axis=1), np.abs(s) ** 1.5])

    @pytest.mark.parametrize(
        "n, symmetric, chunk",
        [
            (1, False, INTEGRAND_CHUNK),
            (1, True, INTEGRAND_CHUNK),
            (2, False, INTEGRAND_CHUNK),
            (2, False, 97),
            (3, False, 1000),
            (2, True, INTEGRAND_CHUNK),
            (3, True, 97),
        ],
    )
    def test_rows_bit_equal_to_scalar_calls(self, n, symmetric, chunk):
        rule = disc_rule(4, 9)
        batch = oracles.at_points(self.batch, rule)
        got = integrate_polydisc(batch, rule, n, symmetric=symmetric, chunk=chunk)
        assert got.shape == (3,) and got.dtype == complex
        for row in range(3):
            one = integrate_polydisc(
                lambda index: batch(index)[row], rule, n, symmetric=symmetric, chunk=chunk
            )
            assert isinstance(one, complex)
            assert got[row] == one
        if n == 1:
            # nothing to reduce at n = 1: symmetric is ignored
            assert np.array_equal(got, integrate_polydisc(batch, rule, n, chunk=chunk))

    def test_two_batch_axes(self):
        rule = disc_rule(3, 6)
        batch = oracles.at_points(self.batch, rule)
        got = integrate_polydisc(lambda index: batch(index).reshape(3, 1, -1), rule, 2)
        assert got.shape == (3, 1)
        assert np.array_equal(got[:, 0], integrate_polydisc(batch, rule, 2))

    def test_non_finite_row_names_its_node(self):
        rule = disc_rule(3, 6)

        def f(pts):
            out = np.ones((2, len(pts)))
            out[1, 7] = np.nan
            return out

        with pytest.raises(OverflowInIntegrand, match="node #7 "):
            integrate_polydisc(f, rule, 2)
