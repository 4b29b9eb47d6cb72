"""The fused norm pass streamed part by part.

* ``pairwise_sum`` of part sums equals ``np.sum`` of the whole bit for
  bit.  This pins numpy's float64 pairwise summation: a numpy that splits
  its sums elsewhere fails here by name, where the norm pass would only
  drift by about 1e-9 in the scan's refinement deltas.
* ``triangle_indices`` and the ``tuples`` of a ``PairTable`` block,
  built for a slice alone (as at n = 2), equal that slice of the whole.
* The n = 2 pass holds no array as long as its pair triangle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergproj.experiments import _norm_sums
from bergproj.quadrature import (
    BLOCK_CHUNK,
    PairTable,
    pairwise_sum,
    refine,
    singular_disc_rule,
    triangle_indices,
)

LENGTHS = [0, 1, 7, 8, 127, 128, 129, BLOCK_CHUNK - 1, BLOCK_CHUNK, BLOCK_CHUNK + 1]
LENGTHS += [m * BLOCK_CHUNK + d for m in (2, 3, 5, 16) for d in (-1, 0, 1)]


def spread_values(seed, length):
    """Values of both signs with magnitudes spread over 1e-30 to 1e30."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length) * 10.0 ** rng.uniform(-30, 30, length)


def assert_sums_on_numpys_tree(values):
    parts = []

    def part_sums(slices):
        for part in slices:
            parts.append(part)
            yield np.sum(values[part])

    total = pairwise_sum(len(values), part_sums)
    covered = np.concatenate([np.arange(len(values))[part] for part in parts])
    assert np.array_equal(covered, np.arange(len(values)))
    lengths = [part.stop - part.start for part in parts]
    assert max(lengths) <= BLOCK_CHUNK
    if len(parts) > 1:
        assert min(lengths) >= BLOCK_CHUNK // 2
    assert float(total).hex() == float(np.sum(values)).hex()


class TestPairwiseSum:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_edge_lengths(self, length):
        assert_sums_on_numpys_tree(spread_values(length, length))

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(0, 1 << 20), seed=st.integers(0, 2**32 - 1))
    def test_random_lengths(self, length, seed):
        assert_sums_on_numpys_tree(spread_values(seed, length))

    def test_sums_of_several_values_add_elementwise(self):
        values = np.stack([spread_values(seed, 5 * BLOCK_CHUNK + 3) for seed in (1, 2)])
        total = pairwise_sum(
            values.shape[1], lambda parts: (np.sum(values[:, part], axis=1) for part in parts)
        )
        for row, value in zip(values, total, strict=True):
            assert float(value).hex() == float(np.sum(row)).hex()

    def test_part_sums_ends_when_the_sum_returns(self):
        # a suspended part_sums would hold its last part's arrays
        ended = []

        def part_sums(parts):
            try:
                for part in parts:
                    yield float(part.stop - part.start)
            finally:
                ended.append(True)

        assert pairwise_sum(3 * BLOCK_CHUNK + 5, part_sums) == 3 * BLOCK_CHUNK + 5
        assert ended == [True]


class TestTriangleParts:
    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(0, 60), data=st.data())
    def test_slices_of_the_packed_triangle(self, size, data):
        total = size * (size + 1) // 2
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, total))
        j, k = triangle_indices(size, start, stop)
        assert j.dtype == k.dtype == np.int32
        expected = np.triu_indices(size)
        assert np.array_equal(j, expected[0][start:stop])
        assert np.array_equal(k, expected[1][start:stop])


class TestStreamedPairTable:
    @settings(max_examples=30, deadline=None)
    @given(size=st.integers(1, 40), data=st.data())
    def test_reads_equal_the_tabulated_table(self, size, data):
        def f(j, k):
            return [j * 1.5 - k, (j + 1) * (k + 2)]

        total = size * (size + 1) // 2
        start = data.draw(st.integers(0, total))
        part = slice(start, data.draw(st.integers(start, total)))
        streamed = PairTable(np.ones(size), 2, f)
        assert streamed.tables is None
        # the first block at n = 3, of the prefix (0,), reads the whole triangle
        tabulated = PairTable(np.ones(size), 3, f)
        (_, _, read), (_, _, whole) = next(streamed.blocks()), next(tabulated.blocks())
        (j, k, _, got), (jt, kt, _, expected) = read(part), whole(part)
        for got, expected in zip([j, k, *got], [jt, kt, *expected], strict=True):
            assert got.tobytes() == expected.tobytes()


def expected_block(weights, n, prefix):
    """The block of ``prefix`` from ``np.triu_indices``, each tuple's
    multiplicity counted from its own indices."""
    size = len(weights)
    low = prefix[-1] if prefix else 0
    j, k = (x[(size * low - low * (low - 1) // 2) :] for x in np.triu_indices(size))
    fact = np.array([math.factorial(c) for c in range(n + 1)])
    at_low = prefix.count(low) + (j == low) + (k == low)
    others = math.prod(math.factorial(prefix.count(i)) for i in set(prefix) - {low})
    doubled = np.where((j == k) & (j > low), 2, 1)
    mult = math.factorial(n) / (others * fact[at_low] * doubled)
    prefix_weight = math.prod(weights[i] for i in prefix)
    return j, k, mult * (prefix_weight * weights.take(j) * weights.take(k))


@st.composite
def blocks_and_cuts(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    size = draw(st.integers(1, 30 if n < 4 else 10))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = np.random.default_rng(seed).uniform(0.01, 2.0, size)
    cuts = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    return n, weights, cuts


class TestBlockParts:
    @settings(max_examples=60, deadline=None)
    @given(blocks_and_cuts())
    def test_parts_equal_the_whole_block(self, drawn):
        n, weights, cuts = drawn
        for prefix, length, tuples in PairTable(weights, n).blocks():
            whole = tuples(slice(0, length))[:3]
            j, k, weight = expected_block(weights, n, prefix)
            assert np.array_equal(whole[0], j) and np.array_equal(whole[1], k)
            assert whole[2].tobytes() == weight.tobytes()
            bounds = sorted({0, length, *(int(c * length) for c in cuts)})
            parts = [tuples(slice(a, b))[:3] for a, b in zip(bounds, bounds[1:])]
            for index, array in enumerate(whole):
                joined = np.concatenate([part[index] for part in parts])
                assert joined.tobytes() == array.tobytes()


def test_n2_pass_holds_no_array_of_the_triangle_length():
    rule = refine(singular_disc_rule(0.999, 8, 16), 1.5, 1.5)
    pairs = rule.size * (rule.size + 1) // 2
    assert pairs == 2_033_136
    tracemalloc.start()
    try:
        _norm_sums(2, 0.999, rule, [1.5, 2.0, 3.0, 3.9, 4.0], 0.37 - 0.81j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 array over the triangle would take 16.3 MB
    assert peak < 8 * pairs
