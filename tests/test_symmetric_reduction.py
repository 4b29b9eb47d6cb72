"""The one symmetric reduction and the fused norm pass against the code
they replaced.

Oracles:
* the hand-written n = 2 and n = 3 reductions (``oracles.py``), which the
  block reduction must match bit for bit;
* the full tensor sum, which it must match to roundoff for n = 2, 3, 4;
* ``oracles.weighted_lp_norm`` on point integrands, which the fused norm pass of
  the ratio experiments must match exactly at n = 2 and to 1e-13 at n = 3;
* separate per-p runs, whose first convergence failure the fused scan
  must raise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergproj.errors import QuadratureNotConverged
from bergproj.experiments import (
    DEFAULT_NORM_ORDERS,
    JACOBIAN_SQUARED,
    REFINE_FACTORS,
    _norm_power,
    _norm_sums,
    blowup_experiment,
    boundedness_scan,
)
from bergproj.kernels import test_function_hs as hs_family
from bergproj.kernels import tilde_shape
from bergproj.quadrature import (
    BLOCK_CHUNK,
    chunk_slices,
    disc_rule,
    integrate_polydisc,
    refine,
    singular_disc_rule,
    symmetric_blocks,
)
from oracles import _integrate_symmetric_2, _integrate_symmetric_3, weighted_lp_norm


def symmetric_integrand(seed, n, complex_valued):
    """A smooth integrand symmetric in its n coordinates, with random
    coefficients: power sums and the squared Vandermonde modulus."""
    coef = np.random.default_rng(seed).normal(size=4)

    def f(pts):
        power1 = np.sum(pts, axis=1)
        power2 = np.sum(pts**2, axis=1)
        vand = np.ones(len(pts))
        for j in range(n):
            for k in range(j + 1, n):
                vand = vand * np.abs(pts[:, j] - pts[:, k]) ** 2
        out = coef[0] + coef[1] * np.abs(power1) ** 2 + coef[2] * vand
        if complex_valued:
            return out + coef[3] * power2 * np.conj(power1)
        return out

    return f


def small_rule(radial, angular, s):
    """A plain disc rule, or one graded toward the singularity at 1/s."""
    if s is None:
        return disc_rule(radial, angular)
    return singular_disc_rule(s, radial, angular)


rules = st.builds(
    small_rule,
    st.integers(2, 5),
    st.integers(2, 6),
    st.one_of(st.none(), st.sampled_from([0.6, 0.9])),
)


class TestSymmetricBlocks:
    @pytest.mark.parametrize("size,n", [(1, 2), (5, 2), (4, 3), (6, 3), (3, 4), (5, 4), (4, 5)])
    def test_multiplicities_sum_to_full_count(self, size, n):
        blocks = symmetric_blocks(np.ones(size), n)
        total = sum(np.sum(tuples(slice(0, length))[2]) for _, length, tuples in blocks)
        assert total == size**n

    @pytest.mark.parametrize("size,n", [(5, 2), (4, 3), (4, 4)])
    def test_blocks_cover_each_sorted_tuple_once(self, size, n):
        seen = []
        for prefix, length, tuples in symmetric_blocks(np.ones(size), n):
            j, k, mult = tuples(slice(0, length))
            for jj, kk, m in zip(j, k, mult):
                key = prefix + (int(jj), int(kk))
                assert list(key) == sorted(key)
                counts = np.bincount(key)
                expected = math.factorial(n) / np.prod(
                    [math.factorial(c) for c in counts]
                )
                assert m == expected
                seen.append(key)
        assert len(seen) == len(set(seen)) == math.comb(size + n - 1, n)

    def test_rejects_one_variable(self):
        with pytest.raises(ValueError):
            next(symmetric_blocks(np.ones(4), 1))


class TestReductionAgainstOracles:
    @settings(max_examples=25, deadline=None)
    @given(rule=rules, seed=st.integers(0, 2**16), complex_valued=st.booleans())
    def test_bitwise_equal_to_old_two_variable_path(self, rule, seed, complex_valued):
        f = symmetric_integrand(seed, 2, complex_valued)
        new = integrate_polydisc(f, rule, 2, symmetric=True)
        old = _integrate_symmetric_2(f, rule.nodes, rule.weights)
        assert new == old

    @settings(max_examples=15, deadline=None)
    @given(
        rule=rules,
        seed=st.integers(0, 2**16),
        complex_valued=st.booleans(),
        chunk=st.sampled_from([1 << 18, 7]),
    )
    def test_bitwise_equal_to_old_three_variable_path(
        self, rule, seed, complex_valued, chunk
    ):
        # the old path cut blocks at fixed chunk boundaries and the new one
        # cuts them evenly, so the two agree bit for bit when no block is
        # cut; with a tiny chunk they agree to roundoff
        f = symmetric_integrand(seed, 3, complex_valued)
        new = integrate_polydisc(f, rule, 3, symmetric=True, chunk=chunk)
        old = _integrate_symmetric_3(f, rule.nodes, rule.weights, chunk)
        if chunk >= rule.size * (rule.size + 1) // 2:
            assert new == old
        else:
            assert new == pytest.approx(old, rel=1e-13, abs=1e-13)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 4),
        radial=st.integers(2, 3),
        angular=st.integers(2, 4),
        seed=st.integers(0, 2**16),
        complex_valued=st.booleans(),
    )
    def test_matches_full_tensor_sum(self, n, radial, angular, seed, complex_valued):
        rule = disc_rule(radial, angular)
        assert n < 4 or rule.size <= 12
        f = symmetric_integrand(seed, n, complex_valued)
        full = integrate_polydisc(f, rule, n, symmetric=False)
        reduced = integrate_polydisc(f, rule, n, symmetric=True)
        scale = integrate_polydisc(lambda pts: np.abs(f(pts)), rule, n, symmetric=False)
        assert abs(reduced - full) <= 1e-12 * abs(scale)


class TestFusedNormPass:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        s=st.floats(0.5, 0.99),
        p=st.floats(1.2, 4.0),
        radial=st.integers(2, 4),
        angular=st.integers(2, 5),
        constant=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    )
    def test_matches_weighted_lp_norm(self, n, s, p, radial, angular, constant):
        rule = singular_disc_rule(s, radial, angular)
        sums = _norm_sums(n, s, rule, [p, 2.0], constant)

        def image(pts):
            return constant * tilde_shape(n, s, pts)

        def family(pts):
            return hs_family(n, s, pts)

        for kind, f in (("h", family), ("image", image)):
            fused = _norm_power(sums[kind][0], p)
            direct = weighted_lp_norm(f, p, JACOBIAN_SQUARED, rule, n, symmetric=True) ** p
            if n == 2:
                assert fused == direct
            else:
                assert fused == pytest.approx(direct, rel=1e-13)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_returned_per_exponent(self):
        rule = singular_disc_rule(0.9, 3, 4)
        sums = _norm_sums(2, 0.9, rule, [2.0, 1e6], 1.0)
        assert all(isinstance(x, float) for x in (sums["h"][0], sums["image"][0]))
        assert isinstance(sums["h"][1], Exception)
        with pytest.raises(type(sums["h"][1])):
            _norm_power(sums["h"][1], 1e6)


class TestCutBlocks:
    """The refined default n = 2 rule at s = 0.9: 864 nodes, whose one block
    of 373,680 pairs is evaluated in several parts, as in the benchmark."""

    @pytest.fixture(scope="class")
    def rule(self):
        base = singular_disc_rule(0.9, *DEFAULT_NORM_ORDERS[2])
        return refine(base, *REFINE_FACTORS[2])

    @staticmethod
    def part_count(rule, chunk):
        return len(chunk_slices(rule.size * (rule.size + 1) // 2, chunk))

    def test_fused_pass_is_bitwise_equal_to_weighted_lp_norm(self, rule):
        assert rule.size * (rule.size + 1) // 2 > BLOCK_CHUNK
        p_list = [1.5, 4.0]
        constant = 0.37 - 0.81j
        sums = _norm_sums(2, 0.9, rule, p_list, constant)

        def image(pts):
            return constant * tilde_shape(2, 0.9, pts)

        def family(pts):
            return hs_family(2, 0.9, pts)

        for kind, f in (("h", family), ("image", image)):
            for index, p in enumerate(p_list):
                fused = _norm_power(sums[kind][index], p)
                direct = weighted_lp_norm(f, p, JACOBIAN_SQUARED, rule, 2, symmetric=True)
                assert fused == direct**p

    @pytest.mark.parametrize("chunk", [1 << 18, 1 << 15])
    def test_reduction_is_bitwise_equal_to_old_two_variable_path(self, rule, chunk):
        assert self.part_count(rule, chunk) > 1
        integrands = (
            symmetric_integrand(3, 2, True),
            lambda pts: hs_family(2, 0.9, pts),
            lambda pts: (0.37 - 0.81j) * tilde_shape(2, 0.9, pts),
        )
        for f in integrands:
            new = integrate_polydisc(f, rule, 2, symmetric=True, chunk=chunk)
            assert new == _integrate_symmetric_2(f, rule.nodes, rule.weights)


class TestFusedScanErrors:
    def test_first_convergence_failure_matches_per_p_runs(self):
        # with this coarse rule p = 6 converges, p = 8 fails at the second
        # s and p = 16 already at the first; the first failure in p order
        # is p = 8's, as separate runs would report it.  Radial order 4
        # is the lowest whose refinement adds nodes to every panel.
        kwargs = {"s_grid": (0.7, 0.9), "rule": (4, 3)}
        p_list = [6.0, 8.0, 16.0]
        messages = []
        for p in p_list:
            try:
                blowup_experiment(2, p, **kwargs)
            except QuadratureNotConverged as exc:
                messages.append(str(exc))
        assert len(messages) == 2 and messages[0] != messages[1]
        with pytest.raises(QuadratureNotConverged) as scan_error:
            boundedness_scan(2, p_list, **kwargs)
        assert str(scan_error.value) == messages[0]
