"""Quantities computed once and shared, against the code that computed
them again each time (``oracles.py``), bit for bit:

* ``KernelSpec.evaluate`` builds the n^2 denominator factors and the pair
  differences once; with ``symmetrize=True`` it averages the n! column
  permutations from them, where ``apply_operator`` used to evaluate the
  kernel once per permuted copy of the points;
* ``_norm_sums`` tabulates the pair sums of the last two indices once per
  rule at n >= 3, where every block used to gather and multiply them;
* ``triangle_indices`` builds the packed triangle that ``PairTable``
  reads, as int32.
"""

import re
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bergproj.experiments as experiments
from bergproj.errors import OverflowInIntegrand, PoleProximity
from bergproj.experiments import (
    DEFAULT_NORM_ORDERS,
    REFINE_FACTORS,
    _calibrate_image_constant,
    _norm_sums,
)
from bergproj.kernels import KernelSpec, family_factors
from bergproj.quadrature import (
    BLOCK_CHUNK,
    QuadratureRule,
    _pairwise_half,
    refine,
    singular_disc_rule,
    triangle_indices,
)
from bergproj.symbolic import KERNEL_TABLE
from oracles import kernel_evaluate, norm_sums, pairwise_leaves, symmetrized_kernel


def kernel_specs(n):
    specs = []
    for family in KERNEL_TABLE:
        levels = range(1, n + 1) if family == "pl" else [None]
        for l in levels:
            specs.append(KernelSpec(family, n, l=l))
    return specs


def random_points(rng, count, n, radius=0.9):
    r = radius * np.sqrt(rng.random((count, n)))
    return r * np.exp(2j * np.pi * rng.random((count, n)))


@st.composite
def spec_and_points(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    spec = draw(st.sampled_from(kernel_specs(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 40))
    return spec, random_points(rng, 1, n)[0], np.conj(random_points(rng, count, n))


class TestKernelEvaluate:
    @settings(max_examples=150, deadline=None)
    @given(spec_and_points())
    def test_unpermuted_equals_the_old_evaluation(self, drawn):
        spec, z, wbar = drawn
        assert spec.evaluate(z, wbar).tobytes() == kernel_evaluate(spec, z, wbar).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(spec_and_points())
    def test_symmetrized_equals_the_mean_of_permuted_evaluations(self, drawn):
        spec, z, wbar = drawn
        got = spec.evaluate(z, wbar, symmetrize=True)
        assert got.tobytes() == symmetrized_kernel(spec, z, wbar).tobytes()

        def evaluate(spec, z, wbar):
            return spec.evaluate(z, wbar)

        assert got.tobytes() == symmetrized_kernel(spec, z, wbar, evaluate).tobytes()

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("spec", kernel_specs(3), ids=repr)
    def test_chunk_sized_rows(self, spec, symmetrize):
        # arrays large enough for numpy to reuse temporaries in place
        rng = np.random.default_rng(11)
        z = random_points(rng, 1, 3)[0]
        wbar = np.conj(random_points(rng, 40_000, 3))
        got = spec.evaluate(z, wbar, symmetrize=symmetrize)
        oracle = symmetrized_kernel if symmetrize else kernel_evaluate
        assert got.tobytes() == oracle(spec, z, wbar).tobytes()

    def test_one_row(self):
        rng = np.random.default_rng(5)
        spec = KernelSpec("tilde", 3)
        z, row = random_points(rng, 2, 3)
        got = spec.evaluate(z, np.conj(row), symmetrize=True)
        expected = symmetrized_kernel(spec, z, np.conj(row)[None])[0]
        assert np.ndim(got) == 0 and got == expected


class TestPoleMessage:
    """The first factor within the guard, in the order of the unpermuted
    kernel, names the error as it always has."""

    @staticmethod
    def messages(spec, z, wbar):
        out = []
        for evaluate in (
            lambda: spec.evaluate(z, wbar),
            lambda: spec.evaluate(z, wbar, symmetrize=True),
            lambda: kernel_evaluate(spec, z, wbar),
            lambda: symmetrized_kernel(spec, z, wbar),
        ):
            with pytest.raises(PoleProximity) as caught:
                evaluate()
            out.append(str(caught.value))
        return out

    @pytest.mark.parametrize("a", range(3))
    @pytest.mark.parametrize("b", range(3))
    def test_one_pole(self, a, b):
        rng = np.random.default_rng(a * 3 + b)
        z = random_points(rng, 1, 3, radius=0.5)[0] + 0.3
        wbar = np.conj(random_points(rng, 7, 3))
        wbar[4, b] = 1.0 / z[a]
        messages = self.messages(KernelSpec("tilde", 3), z, wbar)
        assert len(set(messages)) == 1
        assert messages[0].startswith("diagonal factor" if a == b else "cross factor")

    @pytest.mark.parametrize("poles", [((1, 1), (2, 0)), ((2, 2), (0, 1)), ((1, 2), (2, 1))])
    def test_first_of_two_poles(self, poles):
        rng = np.random.default_rng(2)
        z = np.array([0.5, 0.6 + 0.2j, -0.7j])
        wbar = np.conj(random_points(rng, 5, 3))
        for row, (a, b) in enumerate(poles):
            wbar[row, b] = 1.0 / z[a]
        messages = self.messages(KernelSpec("t1", 3), z, wbar)
        assert len(set(messages)) == 1


class TestCalibration:
    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_points_equal_separate_calls(self, n, monkeypatch):
        stacked = _calibrate_image_constant(n, DEFAULT_NORM_ORDERS[n])
        real = experiments.apply_operator

        def one_point_at_a_time(spec, f, z, rule, **kwargs):
            return np.array([real(spec, f, point, rule, **kwargs) for point in z])

        monkeypatch.setattr(experiments, "apply_operator", one_point_at_a_time)
        assert _calibrate_image_constant(n, DEFAULT_NORM_ORDERS[n]) == stacked


def same_sums(got, expected):
    for kind in ("h", "image"):
        for a, b in zip(got[kind], expected[kind], strict=True):
            if isinstance(b, Exception):
                assert type(a) is type(b) and str(a) == str(b)
            else:
                assert float(a).hex() == float(b).hex()


class TestNormSums:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        s=st.floats(0.5, 0.99),
        p=st.floats(1.2, 4.0),
        radial=st.integers(1, 5),
        angular=st.integers(1, 6),
        constant=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    )
    def test_small_rules(self, n, s, p, radial, angular, constant):
        rule = singular_disc_rule(s, radial, angular)
        # at n = 4 the blocks have two prefix indices; C(43, 4) tuples at most
        assume(n < 4 or rule.size <= 40)
        p_list = [p, 2.0, 3.0]
        expected = norm_sums(n, s, rule, p_list, constant)
        same_sums(_norm_sums(n, s, rule, p_list, constant), expected)

    @staticmethod
    def cut_rule(n):
        """A rule whose first block is cut: at n = 2 the refined default
        rule at s = 0.99, 1,440 nodes whose one block of 1,037,520 pairs
        is cut four levels deep; at n = 3 a rule of 390 nodes, whose first
        blocks are cut in two."""
        if n == 2:
            return refine(singular_disc_rule(0.99, *DEFAULT_NORM_ORDERS[2]), *REFINE_FACTORS[2])
        return singular_disc_rule(0.99, 6, 13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cut_blocks(self, n):
        rule = self.cut_rule(n)
        parts = pairwise_leaves(rule.size * (rule.size + 1) // 2)
        assert len(parts) >= (8 if n == 2 else 2)
        p_list = [2.0 * n / (n - 1.0), 1.5]
        constant = 0.37 - 0.81j
        expected = norm_sums(n, 0.99, rule, p_list, constant)
        same_sums(_norm_sums(n, 0.99, rule, p_list, constant), expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n,p", [(2, 74.0), (3, 26.0)])
    def test_overflow_in_a_later_part(self, n, p):
        # with the nodes nearest the singularity last, |h|^p overflows in
        # the second part of the first block but not in its first part;
        # the small constant keeps every image finite
        rule = singular_disc_rule(0.99, 6, 13)
        rule = QuadratureRule(rule.nodes[::-1].copy(), rule.weights[::-1].copy(), rule.descriptor)
        p_list = [2.0, p, 3.0]
        got = _norm_sums(n, 0.99, rule, p_list, 1e-6)
        expected = norm_sums(n, 0.99, rule, p_list, 1e-6)
        overflow = got["h"].pop(1)
        old = expected["h"].pop(1)
        assert type(overflow) is type(old) is OverflowInIntegrand
        same_sums(got, expected)
        # the same tuple is named, from the start of the part it lies in
        # (the first block holds every pair at both n)
        where = re.compile(r"node #(\d+) \(symmetric n=(\d), prefix=(.*), from (\d+)\)$")
        node, got_n, prefix, start = where.search(str(overflow)).groups()
        old_node, _, old_prefix, old_start = where.search(str(old)).groups()
        first = "()" if n == 2 else "(0,)"
        assert (int(got_n), prefix, old_prefix) == (n, first, first)
        assert int(start) > 0
        pairs = rule.size * (rule.size + 1) // 2
        assert int(start) in [part.start for part in pairwise_leaves(pairs)]
        assert int(start) + int(node) == int(old_start) + int(old_node)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 3])
    def test_overflow_order(self, n):
        # the integrands overflow only for the huge exponents, each sum
        # keeps the first overflow it meets, and the others still add up
        rule = singular_disc_rule(0.9, 3, 4)
        p_list = [2.0, 1e6, 3.0, 1e5]
        got = _norm_sums(n, 0.9, rule, p_list, 1.0)
        assert [isinstance(x, Exception) for x in got["h"]] == [False, True, False, True]
        same_sums(got, norm_sums(n, 0.9, rule, p_list, 1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_overflow_across_parts_wins_at_n2(self):
        # |h|^72.5 = |g_j + g_k|^72.5 overflows only at pairs of two of the
        # 48 nodes nearest the singularity; with every other one of them
        # after the first 100 nodes and the rest last, the one block of
        # 205,120 pairs overflows in its second part and again in its last
        base = singular_disc_rule(0.99, 8, 16)
        near = np.argsort(np.abs(1 - 0.99 * base.nodes), kind="stable")
        group, rest = near[:48], near[48:]
        order = np.concatenate([rest[:100], group[0::2], rest[100:], group[1::2]])
        rule = QuadratureRule(base.nodes[order].copy(), base.weights[order].copy(), base.descriptor)
        leaves = pairwise_leaves(rule.size * (rule.size + 1) // 2)
        assert len(leaves) == 4
        p = 72.5
        g = family_factors(2, 0.99, rule.nodes)[0]
        finite = []
        for part in leaves:
            j, k = triangle_indices(rule.size, part.start, part.stop)
            integrand = np.abs(g[j] + g[k]) ** p * np.abs(rule.nodes[j] - rule.nodes[k]) ** 2
            finite.append(bool(np.isfinite(integrand).all()))
        assert finite == [True, False, True, False]
        p_list = [2.0, p, 3.0]
        got = _norm_sums(2, 0.99, rule, p_list, 1e-6)
        expected = norm_sums(2, 0.99, rule, p_list, 1e-6)
        assert type(got["h"][1]) is type(expected["h"][1]) is OverflowInIntegrand
        same_sums(got, expected)
        where = re.compile(r"node #(\d+) \(symmetric n=2, prefix=\(\), from (\d+)\)$")
        node, start = map(int, where.search(str(got["h"][1])).groups())
        old_node, old_start = map(int, where.search(str(expected["h"][1])).groups())
        assert start == leaves[1].start
        assert start + node == old_start + old_node

    # a part of at least BLOCK_CHUNK // 2 tuples is summed as the two halves
    # of numpy's pairwise split, the second on a worker thread
    @staticmethod
    def n2_rule(size, singular_last=False):
        """``size`` nodes of a rule at s = 0.99, in their order or with the
        nodes nearest the singularity 1/s last."""
        base = singular_disc_rule(0.99, 6, 13)
        order = np.arange(base.size)
        if singular_last:
            order = np.argsort(-np.abs(1 - 0.99 * base.nodes), kind="stable")
        order = order[-size:] if singular_last else order[:size]
        return QuadratureRule(base.nodes[order].copy(), base.weights[order].copy(), base.descriptor)

    @pytest.mark.parametrize("size,halves", [(255, None), (256, (16448, 16448))])
    def test_one_part_whole_or_halved(self, size, halves):
        # 32,640 pairs are one part below BLOCK_CHUNK // 2, summed whole;
        # 32,896 pairs are one part summed as two halves
        pairs = size * (size + 1) // 2
        assert [(part.start, part.stop) for part in pairwise_leaves(pairs)] == [(0, pairs)]
        assert (pairs >= BLOCK_CHUNK // 2) == (halves is not None)
        if halves:
            assert (_pairwise_half(pairs), pairs - _pairwise_half(pairs)) == halves
        rule = self.n2_rule(size)
        p_list = [4.0, 1.5, 2.0 * 2 / 3]
        constant = 0.37 - 0.81j
        same_sums(_norm_sums(2, 0.99, rule, p_list, constant), norm_sums(2, 0.99, rule, p_list, constant))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_the_second_half(self):
        # |h|^74 overflows only at pairs of the nodes nearest the
        # singularity, which come last; the first such tuple lies in the
        # second half, and is counted from the start of the part
        rule = self.n2_rule(256, singular_last=True)
        p_list = [2.0, 74.0, 3.0]
        got = _norm_sums(2, 0.99, rule, p_list, 1e-6)
        expected = norm_sums(2, 0.99, rule, p_list, 1e-6)
        assert type(got["h"][1]) is type(expected["h"][1]) is OverflowInIntegrand
        same_sums(got, expected)
        node, start = re.search(r"node #(\d+) \(.*, from (\d+)\)$", str(got["h"][1])).groups()
        assert int(node) >= _pairwise_half(256 * 257 // 2) and int(start) == 0

    def test_no_thread_outlives_the_pass(self):
        before = threading.active_count()
        _norm_sums(2, 0.99, self.n2_rule(256), [2.0], 1.0)
        assert threading.active_count() == before


class TestTriangleIndices:
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 300])
    def test_matches_triu_indices(self, size):
        j, k = triangle_indices(size, 0, size * (size + 1) // 2)
        assert j.dtype == k.dtype == np.int32
        expected = np.triu_indices(size)
        assert np.array_equal(j, expected[0]) and np.array_equal(k, expected[1])

    def test_refuses_more_pairs_than_int32_holds(self):
        with pytest.raises(ValueError, match="int32"):
            triangle_indices(1 << 16, 0, 1)
