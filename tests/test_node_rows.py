"""The kernel at rows of node indices: ``integrate_polydisc`` hands its
integrand rows (i_1, ..., i_n) of indices into the rule's nodes, and
``KernelSpec.evaluate`` gathers the factors 1 - z_a wbar_b of each row
from a table of one value per coordinate of z and node.

Oracles (``oracles.py``): ``kernel_evaluate`` and ``symmetrized_kernel``,
which compute the kernel row by row from conjugated points, and
``row_operator``, the operator on them.  Every value must match bit for
bit, and a pole must raise the same ``PoleProximity``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergproj.kernels as kernels
from bergproj.errors import PoleProximity
from bergproj.kernels import KernelSpec, apply_operator
from bergproj.kernels import test_function_hs as hs_family
from bergproj.quadrature import INTEGRAND_CHUNK, disc_rule
from bergproj.symbolic import KERNEL_TABLE
import oracles


def interior_points(rng, count, n, radius=0.7):
    r = radius * np.sqrt(rng.random((count, n)))
    return r * np.exp(2j * np.pi * rng.random((count, n)))


def specs(n):
    out = []
    for family in KERNEL_TABLE:
        for l in range(1, n + 1) if family == "pl" else [None]:
            out.append(KernelSpec(family, n, l=l))
    return out


def symmetric_functions(n):
    return [lambda pts: hs_family(n, 0.6, pts), lambda pts: np.sum(pts, axis=1) ** 2]


def general_functions(n):
    return [lambda pts: pts[:, 0] ** 2 * np.conj(pts[:, n - 1]), lambda pts: np.prod(pts, axis=1)]


@st.composite
def operator_cases(draw, n):
    if n == 2:
        rule = disc_rule(draw(st.integers(2, 4)), draw(st.integers(4, 8)))
    else:
        rule = disc_rule(draw(st.integers(2, 3)), draw(st.integers(4, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = interior_points(rng, draw(st.integers(1, 3)), n)
    # some sample points with zero coordinates, one of them the origin
    z[rng.random(z.shape) < 0.3] = 0.0
    if draw(st.booleans()):
        z[0] = 0.0
    return rule, z


def stack_of(functions):
    return lambda pts: np.stack([f(pts) for f in functions])


class TestOperatorAgainstRowOracle:
    # every spec runs both a single function and a stack of them, rather
    # than leaving the choice to a handful of drawn examples
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("spec", specs(2) + specs(3), ids=repr)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data(), budget=st.sampled_from([INTEGRAND_CHUNK, 1000, 97]))
    def test_bit_equal(self, spec, symmetric, batched, data, budget):
        rule, z = data.draw(operator_cases(spec.n))
        functions = (symmetric_functions if symmetric else general_functions)(spec.n)
        f = stack_of(functions) if batched else functions[0]
        with mock.patch.object(kernels, "INTEGRAND_CHUNK", budget):
            got = apply_operator(spec, f, z, rule, symmetric_f=symmetric)
        want = oracles.row_operator(spec, f, z, rule, symmetric, budget)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def index_rows(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    spec = draw(st.sampled_from(specs(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 30))
    nodes = np.conj(interior_points(rng, size, 1, radius=0.95)[:, 0])
    index = rng.integers(0, size, (draw(st.integers(1, 40)), n))
    index = index.astype(draw(st.sampled_from([np.int32, np.int64])))
    if draw(st.booleans()):
        # the column-major rows that integrate_polydisc hands out
        index = np.asfortranarray(index)
    z = interior_points(rng, 1, n)[0]
    z[rng.random(n) < 0.3] = 0.0
    return spec, z, nodes, index


class TestEvaluateOnIndexRows:
    @settings(max_examples=150, deadline=None)
    @given(index_rows())
    def test_unpermuted(self, drawn):
        spec, z, nodes, index = drawn
        got = spec.evaluate(z, index, nodes=nodes)
        assert got.tobytes() == oracles.kernel_evaluate(spec, z, nodes.take(index)).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(index_rows())
    def test_symmetrized(self, drawn):
        spec, z, nodes, index = drawn
        got = spec.evaluate(z, index, nodes=nodes, symmetrize=True)
        want = oracles.symmetrized_kernel(spec, z, nodes.take(index))
        assert got.tobytes() == want.tobytes()

    def test_one_row(self):
        rng = np.random.default_rng(4)
        spec, nodes = KernelSpec("t1", 3), np.conj(interior_points(rng, 6, 1)[:, 0])
        z, row = interior_points(rng, 1, 3)[0], np.array([5, 0, 5])
        got = spec.evaluate(z, row, nodes=nodes)
        assert np.ndim(got) == 0
        assert got == oracles.kernel_evaluate(spec, z, nodes.take(row))

    def test_pole_at_a_node_no_row_reads(self):
        # the table holds a factor within the guard, but no row gathers
        # it, so nothing is raised, as row by row
        rng = np.random.default_rng(8)
        spec, nodes = KernelSpec("tilde", 3), np.conj(interior_points(rng, 8, 1)[:, 0])
        z = interior_points(rng, 1, 3)[0]
        z[1] = 1.0 / nodes[7]
        index = rng.integers(0, 7, (20, 3))
        got = spec.evaluate(z, index, nodes=nodes, symmetrize=True)
        assert got.tobytes() == oracles.symmetrized_kernel(spec, z, nodes.take(index)).tobytes()
        index[11, 2] = 7
        with pytest.raises(PoleProximity, match="^cross factor"):
            spec.evaluate(z, index, nodes=nodes)


class TestPoleOnIndexRows:
    """A sample point on the kernel's pole at one node raises, with the
    message of the row-by-row operator."""

    @staticmethod
    def message(operator):
        with pytest.raises(PoleProximity) as caught:
            operator()
        return str(caught.value)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("a", range(3))
    def test_n3(self, symmetric, a):
        rule = disc_rule(2, 5)
        z = interior_points(np.random.default_rng(a), 3, 3)
        # the second sample point sits on the pole of the node 7
        z[1, a] = 1.0 / np.conj(rule.nodes[7])
        spec = KernelSpec("t1", 3)
        functions = stack_of((symmetric_functions if symmetric else general_functions)(3))
        got = self.message(lambda: apply_operator(spec, functions, z, rule, symmetric_f=symmetric))
        want = self.message(lambda: oracles.row_operator(spec, functions, z, rule, symmetric))
        assert got == want
