"""Per-layer spans recorded from outside the package.

The tracer replaces public names with timing wrappers in every
``bergproj`` module that bound them, so a call through
``experiments.test_function_hs`` is seen as well as one through
``kernels.test_function_hs``.  Each call records a span (name, start,
end, parent, work count) in memory; the layer metrics are computed from
the spans when the repetition ends.  A layer's self time is its span's
duration minus the time covered by its child spans.

Install the tracer before importing code that binds package names with
``from ... import``, so that those bindings are wrapped too.

Two failures are loud, so a later rename cannot silently blank a layer:
a name missing from a module that bound it at install time, and a
wrapper that never fired on a workload that exercises it.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter

import numpy as np

BLOWUP, SCAN, WEIGHTS, KERNEL = "blowup_n3", "scan_n2", "weights", "kernel_checks"

RULE_BUILDERS = ("disc_rule", "polar_rule_at", "singular_disc_rule", "refine")
FAMILY = ("test_function_hs", "tilde_shape")
VERIFIERS = (
    "verify_ab_identity",
    "verify_kernel_decomposition",
    "verify_pI_expansion",
    "verify_vandermonde_expansion",
    "verify_partial_fraction",
)
DRIVERS = ("blowup_experiment", "boundedness_scan", "identity_suite", "annihilation_check")
SYMMETRIZATION = (
    "elementary_symmetric",
    "jacobian_phi",
    "local_inverse_roots",
    "local_inverses",
    "in_symmetrized_polydisc",
    "Permutation.group",
)

PKG = "bergproj"
Q, K, E, S, X, Y = (
    f"{PKG}.quadrature",
    f"{PKG}.kernels",
    f"{PKG}.estimates",
    f"{PKG}.symbolic",
    f"{PKG}.experiments",
    f"{PKG}.symmetrization",
)
CLI = f"{PKG}.cli"

#: module-level functions: name -> (home module, other modules that bind
#: the name, workloads on which the wrapper must fire)
FUNCTIONS = {
    "disc_rule": (Q, (E, X), (WEIGHTS, KERNEL)),
    "polar_rule_at": (Q, (E,), (BLOWUP, SCAN, WEIGHTS)),
    "singular_disc_rule": (Q, (X,), (BLOWUP, SCAN)),
    "refine": (Q, (X,), (BLOWUP, SCAN, KERNEL)),
    "integrate_polydisc": (Q, (K,), (BLOWUP, SCAN, KERNEL)),
    "test_function_hs": (K, (X,), (BLOWUP, SCAN)),
    "tilde_shape": (K, (X,), (BLOWUP, SCAN)),
    "apply_operator": (K, (X,), (BLOWUP, SCAN, KERNEL)),
    "tent_average": (E, (), (WEIGHTS,)),
    "tent_rule": (E, (), (WEIGHTS,)),
    "forelli_rudin": (E, (CLI,), (WEIGHTS,)),
    "sector_annulus_integral": (E, (), (WEIGHTS,)),
    **{name: (S, (), (KERNEL,)) for name in VERIFIERS},
    "blowup_experiment": (X, (CLI,), (BLOWUP,)),
    "boundedness_scan": (X, (CLI,), (SCAN,)),
    "identity_suite": (X, (CLI,), (KERNEL,)),
    "annihilation_check": (X, (CLI,), (KERNEL,)),
    "elementary_symmetric": (Y, (PKG,), ()),
    "jacobian_phi": (Y, (PKG, K), ()),
    "local_inverse_roots": (Y, (PKG, K), ()),
    "local_inverses": (Y, (), ()),
    "in_symmetrized_polydisc": (Y, (PKG,), ()),
}

#: class attributes: "Class.attr" -> (home module, workloads that fire it)
METHODS = {
    "WeightSpec.evaluate": (Q, (BLOWUP, SCAN, WEIGHTS)),
    "KernelSpec.evaluate": (K, (BLOWUP, SCAN, KERNEL)),
    "MultiPoly.__mul__": (S, (KERNEL,)),
    "MultiPoly.eval": (S, (KERNEL,)),
    "Permutation.group": (Y, ()),
}

#: numpy's Gauss-Legendre nodes, as the package calls them
LEGGAUSS = ("numpy.polynomial.legendre", "leggauss", (BLOWUP, SCAN, WEIGHTS, KERNEL))

#: the identity suite iterates this table, which holds the verifiers
VERIFIER_TABLE = (X, "_VERIFIER_TABLE")


class TraceError(RuntimeError):
    """A layer the benchmark measures can no longer be seen."""


def _rows(pts):
    """Points in an (m, n) array, or one point given as a 1-D array."""
    shape = np.shape(pts)
    return shape[0] if len(shape) == 2 else 1


def _rule_work(args, kwargs, result):
    key = tuple(sorted((k, repr(v)) for k, v in result.descriptor.items()))
    return (result.size, key)


def _tuples(args, kwargs, result):
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    symmetric = args[3] if len(args) > 3 else kwargs.get("symmetric", False)
    m = rule.size
    return math.comb(m + n - 1, n) if symmetric else m**n


WORK = {
    **{name: _rule_work for name in RULE_BUILDERS},
    "integrate_polydisc": _tuples,
    "test_function_hs": lambda a, kw, r: _rows(a[2] if len(a) > 2 else kw["pts"]),
    "tilde_shape": lambda a, kw, r: _rows(a[2] if len(a) > 2 else kw["pts"]),
    "WeightSpec.evaluate": lambda a, kw, r: np.shape(a[1] if len(a) > 1 else kw["pts"])[0],
    "KernelSpec.evaluate": lambda a, kw, r: _rows(a[2] if len(a) > 2 else kw["wbar"]),
    "tent_rule": lambda a, kw, r: r.size,
    "leggauss": lambda a, kw, r: int(a[0] if a else kw["deg"]),
}


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        # each span is [name, start, end, parent index, work]
        self.spans = []
        self.stack = []
        self.fired = Counter()
        self.term_products = 0
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, fired = self.spans, self.stack, self.fired
        work = WORK.get(name)
        clock = time.perf_counter
        integrand = name == "integrate_polydisc"

        def wrapper(*args, **kwargs):
            fired[name] += 1
            if integrand:
                args, kwargs = self._wrap_integrand(args, kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_integrand(self, args, kwargs):
        if args:
            return (self._wrap("integrand", args[0]),) + args[1:], kwargs
        return args, {**kwargs, "f": self._wrap("integrand", kwargs["f"])}

    def _count_mul(self, cls, fn):
        def wrapper(this, other):
            self.fired["MultiPoly.__mul__"] += 1
            others = len(other.terms) if isinstance(other, cls) else 1
            self.term_products += len(this.terms) * others
            return fn(this, other)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced name; raises TraceError if one is missing."""
        modules = {name: importlib.import_module(name) for name in (Q, K, E, S, X, Y, CLI, PKG)}
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == PKG]
        for name, (home, binders, _) in FUNCTIONS.items():
            original = getattr(modules[home], name, None)
            if original is None:
                raise TraceError(f"{home}.{name} is missing")
            for binder in binders:
                if getattr(modules[binder], name, None) is not original:
                    raise TraceError(f"{binder} no longer binds {home}.{name}")
            wrapped = self._wrap(name, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)
        for label, (home, _) in METHODS.items():
            cls_name, attr = label.split(".")
            cls = getattr(modules[home], cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                raise TraceError(f"{home}.{label} is missing")
            if label == "MultiPoly.__mul__":
                wrapped = self._count_mul(cls, raw)
                self._set(cls, "__mul__", wrapped)
                if cls.__dict__.get("__rmul__") is raw:
                    self._set(cls, "__rmul__", wrapped)
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(label, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(label, raw))
        module_name, attr, _ = LEGGAUSS
        legendre = importlib.import_module(module_name)
        self._set(legendre, attr, self._wrap(attr, legendre.__dict__[attr]))
        home, attr = VERIFIER_TABLE
        table = getattr(modules[home], attr, None)
        if table is None:
            raise TraceError(f"{home}.{attr} is missing")
        wrapped_by_original = {
            value.__wrapped__: value
            for value in vars(modules[S]).values()
            if getattr(value, "__wrapped__", None) is not None
        }
        rows = []
        for row in table:
            verifier = row[1]
            if verifier not in wrapped_by_original:
                raise TraceError(f"{home}.{attr} holds an untraced verifier {verifier!r}")
            rows.append((row[0], wrapped_by_original[verifier], *row[2:]))
        self._set(modules[home], attr, tuple(rows))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- checks and metrics ---------------------------------------------------

    def check_fired(self, workload):
        """Raise TraceError if a wrapper the workload exercises never fired."""
        expected = {name: fire for name, (_, _, fire) in FUNCTIONS.items()}
        expected.update({label: fire for label, (_, fire) in METHODS.items()})
        expected[LEGGAUSS[1]] = LEGGAUSS[2]
        silent = sorted(n for n, fire in expected.items() if workload in fire and not self.fired[n])
        if silent:
            raise TraceError(f"never fired on {workload}: {', '.join(silent)}")

    def metrics(self):
        """Per-layer metrics of the recorded spans (see README.md)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start

        def outer(names):
            names = set(names)
            out = []
            for index, span in enumerate(spans):
                if span[0] not in names:
                    continue
                parent = span[3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    out.append(index)
            return out

        def total(indices):
            return sum(spans[i][2] - spans[i][1] for i in indices)

        def self_time(indices):
            return sum(spans[i][2] - spans[i][1] - covered[i] for i in indices)

        def work(indices):
            return sum(spans[i][4] for i in indices)

        def frac(keys):
            return len(set(keys)) / len(keys) if keys else 0.0

        rules = outer(RULE_BUILDERS)
        legs = outer(["leggauss"])
        reduce = outer(["integrate_polydisc"])
        weight = outer(["WeightSpec.evaluate"])
        family = outer(FAMILY)
        kernel = outer(["KernelSpec.evaluate"])
        apply = outer(["apply_operator"])
        tents = outer(["tent_average"])
        tent_rules = outer(["tent_rule"])
        verify = outer(VERIFIERS)
        drivers = outer(DRIVERS)
        sym = outer(SYMMETRIZATION)
        return {
            "quadrature.rule_build_s": total(rules),
            "quadrature.rules_built": len(rules),
            "quadrature.rule_nodes": sum(spans[i][4][0] for i in rules),
            "quadrature.distinct_rule_frac": frac([spans[i][4][1] for i in rules]),
            "quadrature.leggauss_calls": len(legs),
            "quadrature.leggauss_s": total(legs),
            "quadrature.distinct_leggauss_frac": frac([spans[i][4] for i in legs]),
            "quadrature.reduce_s": self_time(reduce),
            "quadrature.reduce_calls": len(reduce),
            "quadrature.integrand_calls": self.fired["integrand"],
            "quadrature.tuples": work(reduce),
            "quadrature.weight_eval_s": total(weight),
            "quadrature.weight_points": work(weight),
            "kernels.family_s": total(family),
            "kernels.family_points": work(family),
            "kernels.kernel_eval_s": total(kernel),
            "kernels.kernel_points": work(kernel),
            "kernels.apply_operator_calls": len(apply),
            "kernels.apply_operator_s": total(apply),
            "estimates.tent_average_s": total(tents),
            "estimates.tent_average_calls": len(tents),
            "estimates.tent_rule_s": total(tent_rules),
            "estimates.tent_rule_nodes": work(tent_rules),
            "estimates.forelli_rudin_s": total(outer(["forelli_rudin"])),
            "estimates.sector_s": total(outer(["sector_annulus_integral"])),
            "symbolic.verify_s": total(verify),
            "symbolic.verify_calls": len(verify),
            "symbolic.poly_mul_calls": self.fired["MultiPoly.__mul__"],
            "symbolic.term_products": self.term_products,
            "symbolic.poly_eval_s": total(outer(["MultiPoly.eval"])),
            "experiments.driver_s": total(drivers),
            "experiments.self_s": self_time(drivers),
            "symmetrization.calls": len(sym),
            "symmetrization.s": total(sym),
        }
