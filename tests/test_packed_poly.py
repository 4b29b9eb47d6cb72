"""The packed exact layer against the tuple-keyed one it replaced.

``MultiPoly`` keys each monomial by one int with exponent i in digit i.
The oracle is ``tests/oracles.TupleMultiPoly``, the class as it was when
monomials were exponent tuples: every ring operation, block helper and
kernel build must give the same terms after unpacking, ``eval`` must
agree to 1e-12 of the size of the terms, and a product whose exponents
could pass a digit must raise rather than carry into the next one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bergproj.symbolic import (
    DIGIT_MAX,
    GaussianRational,
    MultiPoly,
    diagonal_denominator,
    full_denominator,
    kernel_numerator,
    mul_truncate_block,
    permute_block,
    rational_kernel,
    truncate_block_degree,
    unpack,
)
from bergproj.symmetrization import Permutation

COEFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)),
)


def terms(nvars, max_exp=3, max_terms=6):
    exponents = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exponents, COEFFS, max_size=max_terms)


@st.composite
def poly_pairs(draw, count=2, min_vars=1):
    """``count`` polynomials in one number of variables, each as a
    (packed, oracle) pair built from the same terms."""
    nvars = draw(st.integers(min_vars, 10))
    out = []
    for _ in range(count):
        t = draw(terms(nvars))
        out.append((MultiPoly(nvars, t), oracles.TupleMultiPoly(nvars, t)))
    return nvars, out


def same(packed, oracle):
    """Term for term, after unpacking the keys."""
    unpacked = {unpack(key, packed.nvars): c for key, c in packed.terms.items()}
    return packed.nvars == oracle.nvars and unpacked == oracle.terms


def points(nvars, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.9, 0.9, (count, nvars)) + 1j * rng.uniform(-0.9, 0.9, (count, nvars))


def assert_eval_close(packed, oracle, pts):
    """Values at a stack of points, and at each point alone, within 1e-12
    of the sum of the terms' absolute values."""
    stacked = packed.eval(pts)
    for value, point in zip(stacked, pts):
        expected = oracle.eval(tuple(point))
        exps = np.array(list(oracle.terms))
        coeffs = np.array([abs(complex(c)) for c in oracle.terms.values()])
        scale = coeffs @ np.prod(np.abs(point) ** exps, axis=1) if len(exps) else 0.0
        for got in (value, packed.eval(point)):
            assert abs(got - expected) <= 1e-12 * max(scale, 1e-300)


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(poly_pairs(count=2), COEFFS, st.integers(0, 3))
    def test_ring_operations(self, pair, c, k):
        _, ((f, of), (g, og)) = pair
        assert same(f + g, of + og)
        assert same(f - g, of - og)
        assert same(f * g, of * og)
        assert same(f**k, of**k)
        assert same(f.scale(c), of.scale(c))
        assert same(f + c, of + c) and same(c - f, c - of)
        assert (f == g) == (of == og)
        assert (f == c) == (of == c)
        assert (f * g == g * f) and (f - f).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(poly_pairs(count=2, min_vars=2), st.data())
    def test_block_helpers(self, pair, data):
        nvars, ((f, of), (g, og)) = pair
        start = data.draw(st.integers(0, nvars - 1))
        length = data.draw(st.integers(1, nvars - start))
        mapping = data.draw(st.permutations(range(length)))
        perm = Permutation(tuple(mapping))
        max_deg = data.draw(st.integers(0, 3 * length))
        assert same(permute_block(f, start, length, perm), oracles.permute_block(of, start, length, perm))
        assert same(
            truncate_block_degree(f, start, length, max_deg),
            oracles.truncate_block_degree(of, start, length, max_deg),
        )
        assert same(
            mul_truncate_block(f, g, start, length, max_deg),
            oracles.mul_truncate_block(of, og, start, length, max_deg),
        )
        assert f.sorted_terms() == of.sorted_terms()
        assert repr(f) == repr(of).replace("TupleMultiPoly", "MultiPoly")

    @settings(max_examples=60, deadline=None)
    @given(poly_pairs(count=1), st.integers(0, 2**16))
    def test_eval(self, pair, seed):
        nvars, ((f, of),) = pair
        assert_eval_close(f, of, points(nvars, seed=seed))

    def test_eval_shapes(self):
        f = MultiPoly(2, {(1, 2): 3, (0, 0): 1})
        assert f.eval((0.5, 2)) == 7.0 and isinstance(f.eval((0.5, 2)), complex)
        assert MultiPoly.zero(2).eval((0.5, 2)) == 0j
        assert f.eval([(0.5, 2), (1, 1)]).tolist() == [7.0, 4.0]
        for bad in [(0.5,), (0.5, 2, 1), [[[0.5, 2]]]]:
            with pytest.raises(ValueError):
                f.eval(bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_builds(n):
    assert same(full_denominator(n), oracles.tuple_full_denominator(n))
    assert same(diagonal_denominator(n), oracles.tuple_diagonal_denominator(n))
    levels = [("bergman_polydisc", None), ("t1", None), ("t2", None), ("tilde", None)]
    for family, l in levels + [("pl", l) for l in range(1, n + 1)]:
        kernel = rational_kernel(family, n, l)
        assert same(kernel.num, oracles.tuple_kernel_numerator(family, n, l)), (family, l)
        assert kernel.den is full_denominator(n)


def test_kernel_builds_in_ten_variables():
    # the shared denominator at n = 5 has 5.55 M terms, so the numerators
    # are compared without it; the oracle builds each distinct product of
    # pair factors once, P_1..P_5 and the squared differences, and the
    # other rows are checked through the table's relations between them
    assert same(diagonal_denominator(5), oracles.tuple_diagonal_denominator(5))
    oracle = {l: oracles.tuple_kernel_numerator("pl", 5, l) for l in range(1, 6)}
    packed = {l: kernel_numerator("pl", 5, l) for l in range(1, 6)}
    for l, built in oracle.items():
        assert same(packed[l], built), l
    assert same(kernel_numerator("tilde", 5), oracles.tuple_kernel_numerator("tilde", 5))
    assert kernel_numerator("bergman_polydisc", 5) == packed[5]
    assert kernel_numerator("t2", 5) == packed[1]
    t1 = kernel_numerator("t1", 5)
    assert t1 == packed[5] - packed[1]
    assert t1.n_terms == 239185 and t1.nvars == 10
    assert_eval_close(t1, oracle[5] - oracle[1], points(10, count=2, seed=5) * 0.6)


class TestDigitGuard:
    def test_largest_exponent_round_trips(self):
        f = MultiPoly(3, {(DIGIT_MAX, 0, 1): 1})
        assert f.deg_bound == DIGIT_MAX
        assert f.sorted_terms() == [((DIGIT_MAX, 0, 1), 1)]
        top = MultiPoly(2, {(200, 1): 1}) * MultiPoly(2, {(DIGIT_MAX - 200, 0): 1})
        assert top.sorted_terms() == [((DIGIT_MAX, 1), 1)]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MultiPoly(2, {(200, 0): 1}) * MultiPoly(2, {(DIGIT_MAX - 199, 0): 1}),
            lambda: MultiPoly(2, {(0, 128): 1}) ** 2,
            lambda: MultiPoly(3, {(1, 100, 0): 2}) ** 3,
            lambda: mul_truncate_block(
                MultiPoly(2, {(200, 0): 1}), MultiPoly(2, {(56, 0): 1}), 1, 1, 5
            ),
        ],
    )
    def test_product_past_the_digit_raises(self, make):
        # without the guard x^200 * x^56 would carry into the next digit
        # and come out as the monomial of the next variable
        with pytest.raises(OverflowError):
            make()

    def test_bound_is_the_sum_of_the_operands(self):
        f = MultiPoly(2, {(3, 1): 1, (0, 0): 1})
        g = MultiPoly(2, {(0, 2): 1})
        assert (f * g).deg_bound == 5 and (f + g).deg_bound == 3
        assert (f**4).deg_bound == 12


@pytest.mark.parametrize(
    "key",
    [(1, 2, 3), (1,), (-1, 0), (0, 1.5), (1.0, 0), (0, DIGIT_MAX + 1), ("1", 0)],
    ids=["long", "short", "negative", "fraction", "float", "past-digit", "string"],
)
def test_malformed_exponents_refused(key):
    with pytest.raises(ValueError):
        MultiPoly(2, {key: 1})

