"""The four benchmark workloads, as groups of checked operations.

Each workload is a list of groups.  A group is one call into a public
entry point, with the CLI's default rule orders, and yields the
operations it produced as ``(op_id, record)`` pairs.  A record holds
every number the entry point reported for that operation (``numbers``),
its verdicts (``verdicts``), and optionally a ``scale`` per number for
numbers that are pure roundoff by construction (an exact two-point
fit's residuals, an annihilated operator output): such a number is
compared relative to that scale instead of to itself.

A group may expect an exception, such as ``NonIntegrable`` for a
divergent weight or ``EmptyRegion`` for a sector with no annulus; the
group then yields a record whose verdict names the exception.
"""

from __future__ import annotations

import math

from bergproj.errors import EmptyRegion, NonIntegrable
from bergproj.estimates import (
    bb_norm_bound,
    bekolle_bonami_estimate,
    classify_forelli_rudin,
    sector_annulus_integral,
)
from bergproj.experiments import (
    annihilation_check,
    blowup_experiment,
    boundedness_scan,
    default_annihilation_samples,
    identity_suite,
)
from bergproj.quadrature import WeightSpec

#: the CLI's default annihilation seed; numbers that depend on the
#: sample points are checked against the references only at this seed
DEFAULT_SEED = 7

WORKLOADS = ("blowup_n3", "scan_n2", "weights", "kernel_checks")


def record(numbers=None, verdicts=None, roundoff=(), scale=None):
    """An operation's record; keys in ``roundoff`` are compared to ``scale``."""
    out = {"numbers": numbers or {}, "verdicts": verdicts or {}}
    if roundoff:
        out["scale"] = {key: scale for key in roundoff}
    return out


def flatten(obj, prefix=""):
    """Split a nested report fragment into (numbers, verdicts) by path."""
    numbers, verdicts = {}, {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            n, v = flatten(obj[key], f"{prefix}{key}.")
            numbers.update(n)
            verdicts.update(v)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            n, v = flatten(item, f"{prefix}{i}.")
            numbers.update(n)
            verdicts.update(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        numbers[prefix[:-1]] = obj
    else:
        verdicts[prefix[:-1]] = obj
    return numbers, verdicts


def _report_ops(report):
    """The report-level numbers and verdicts of a ratio experiment."""
    numbers, verdicts = flatten(
        {"fit": report.fit, "quadrature": report.quadrature}
    )
    verdicts["passed"] = report.passed
    roundoff, scale = (), None
    if report.fit is not None and len(report.rows) == 2:
        # the residuals of a line through two points are roundoff
        roundoff = [key for key in numbers if key.startswith("fit.residuals.")]
        scale = max(abs(c["ratio"]) for c in report.rows)
    return ("report", record(numbers, verdicts, roundoff, scale))


# -- blowup_n3 ----------------------------------------------------------


def _blowup_n3(seed):
    report = blowup_experiment(3, 3.0, s_grid=(0.9, 0.99))
    for cell in report.rows:
        yield (f"cell s={cell['s']}", record(*flatten(cell)))
    yield _report_ops(report)


# -- scan_n2 --------------------------------------------------------------


def _scan_n2(seed):
    report = boundedness_scan(2, [1.5, 2.0, 3.0, 3.9, 4.0])
    for row in report.rows:
        yield (f"p={row['p']}", record(*flatten(row)))
    yield _report_ops(report)


# -- weights ----------------------------------------------------------------

#: the weight-constant tables of scripts/run_weight_estimates.py, with
#: the divergent ends p = 1.3 and p = 4.0 of the one-point family added
WEIGHT_TABLES = (
    ((0.5,), (1.3, 1.5, 2.0, 3.0, 3.5, 3.8, 3.9, 3.95, 4.0)),
    ((0.3, 0.3 + 0.02j), (1.6, 2.0, 2.5, 2.9)),
)
GROWTH_EXPONENTS = (0.5, 0.0, -0.5)


def _weight_estimate(points, p):
    def run(seed):
        weight = WeightSpec.point_product(points, 2.0 - p)
        try:
            estimate = bekolle_bonami_estimate(weight, p)
        except NonIntegrable:
            yield ("estimate", record(verdicts={"outcome": "NonIntegrable"}))
            return
        numbers = {"estimate": estimate, "norm_bound": bb_norm_bound(estimate, p)}
        yield ("estimate", record(numbers, {"outcome": "finite"}))

    return run


def _growth_class(s_exp):
    def run(seed):
        outcome = classify_forelli_rudin(0.0, s_exp)
        numbers, verdicts = flatten(
            {"fitted_exponent": outcome.fitted_exponent, "residuals": outcome.residuals}
        )
        verdicts.update(label=outcome.label, matches_theory=outcome.matches_theory)
        yield ("class", record(numbers, verdicts))

    return run


def _sector_grid(seed):
    """Acceptance criterion 9: closed form against cubature per tuple."""
    for n in (2, 3):
        for j in (1, 2):
            for k in (2, 3, 4):
                for s in (0.99, 0.999):
                    numbers, verdicts = {}, {}
                    for mode in ("closed", "quadrature"):
                        try:
                            numbers[mode] = sector_annulus_integral(s, j, k, n, mode=mode)
                            verdicts[mode] = "value"
                        except EmptyRegion:
                            verdicts[mode] = "EmptyRegion"
                    if len(numbers) == 2:
                        rel = abs(numbers["closed"] - numbers["quadrature"])
                        verdicts["agree_1e-6"] = rel < 1e-6 * abs(numbers["closed"])
                    yield (f"n={n} j={j} k={k} s={s}", record(numbers, verdicts))


def _weights_groups():
    groups = []
    for points, p_list in WEIGHT_TABLES:
        label = ",".join(str(a) for a in points)
        for p in p_list:
            groups.append((f"bb points={label} p={p}", _weight_estimate(points, p)))
    for s_exp in GROWTH_EXPONENTS:
        groups.append((f"growth s_exp={s_exp}", _growth_class(s_exp)))
    groups.append(("sector", _sector_grid))
    return groups


# -- kernel_checks ------------------------------------------------------------


def _identities(seed):
    report = identity_suite(5, negative_controls=True)
    for row in report.rows:
        op_id = f"{row['verifier']} index={row['index']} mutated={row['mutated']}"
        yield (op_id, record(*flatten(row)))
    yield ("report", record(verdicts={"passed": report.passed}))


def _annihilation(seed):
    samples = default_annihilation_samples(3, seed=seed)
    report = annihilation_check(3, z_samples=samples, seed=seed)
    control = max(row["max_abs"] for row in report.rows if row["expected"] == "nonzero")
    for row in report.rows:
        numbers, verdicts = flatten(row)
        # an annihilated output is roundoff, measured against the size of
        # the same operator's output on the control function
        roundoff = ("max_abs", "delta", "threshold") if row["expected"] == "zero" else ()
        yield (row["function"], record(numbers, verdicts, roundoff, control))
    yield ("report", record(verdicts={"passed": report.passed}))


#: groups whose numbers depend on the seed; at another seed than the
#: default only their verdicts are compared
SEEDED_GROUPS = {"annihilation"}


def groups(workload):
    """The (group_id, run) pairs of a workload; run(seed) yields ops."""
    if workload == "blowup_n3":
        return [("blowup", _blowup_n3)]
    if workload == "scan_n2":
        return [("scan", _scan_n2)]
    if workload == "weights":
        return _weights_groups()
    if workload == "kernel_checks":
        return [("identities", _identities), ("annihilation", _annihilation)]
    raise ValueError(f"unknown workload {workload!r}")


def run_workload(workload, seed):
    """Run every group; returns {group_id: ops dict or the exception}."""
    results = {}
    for group_id, run in groups(workload):
        try:
            results[group_id] = dict(run(seed))
        except Exception as exc:  # an unexpected error fails the group's ops
            results[group_id] = exc
    return results


def _close(a, b, scale=0.0):
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), scale)


def compare(results, reference, check_numbers_for):
    """Count (attempted, failed, messages) of results against a reference.

    Every reference operation is attempted.  An operation fails when its
    group raised, when it is missing, or when a verdict differs or a
    number moved by more than 1e-12 relative.  Numbers are compared only
    for groups in ``check_numbers_for``; verdicts always.  Operations the
    reference does not know are attempted and failed too.
    """
    attempted = failed = 0
    messages = []
    for group_id, ref_ops in reference.items():
        got = results.get(group_id)
        if isinstance(got, Exception) or got is None:
            attempted += len(ref_ops)
            failed += len(ref_ops)
            messages.append(f"{group_id}: {type(got).__name__}: {got}")
            continue
        for op_id, ref in ref_ops.items():
            attempted += 1
            op = got.get(op_id)
            problem = None
            if op is None:
                problem = "missing"
            elif op["verdicts"] != ref["verdicts"]:
                problem = f"verdicts {op['verdicts']} != {ref['verdicts']}"
            elif group_id in check_numbers_for:
                if set(op["numbers"]) != set(ref["numbers"]):
                    problem = "reported numbers differ in name"
                else:
                    scales = ref.get("scale", {})
                    for key, value in ref["numbers"].items():
                        if not _close(op["numbers"][key], value, scales.get(key, 0.0)):
                            problem = f"{key}: {op['numbers'][key]!r} != {value!r}"
                            break
            if problem:
                failed += 1
                messages.append(f"{group_id} / {op_id}: {problem}")
        extra = set(got) - set(ref_ops)
        attempted += len(extra)
        failed += len(extra)
        messages.extend(f"{group_id} / {op_id}: not in the reference" for op_id in extra)
    for group_id in set(results) - set(reference):
        attempted += 1
        failed += 1
        messages.append(f"{group_id}: not in the reference")
    return attempted, failed, messages
