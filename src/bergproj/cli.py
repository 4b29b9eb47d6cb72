"""Command line interface for the experiment drivers.

Subcommands map one-to-one onto the experiment and estimate entry
points; JSON reports go to ``--out`` (or stdout summaries), CSV plot
data to ``--csv``.  Exit codes: 0 when the run's checks pass, 2 when a
verification fails or an input is invalid, 3 when quadrature refused to
converge, 4 when any other package error (a ``BergprojError``, such as
an overflowing integrand) ended the run.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AmbiguousFit, BergprojError, NonIntegrable, QuadratureNotConverged
from .estimates import (
    bb_norm_bound,
    bekolle_bonami_estimate,
    classify_forelli_rudin,
    forelli_rudin,
)
from .experiments import (
    annihilation_check,
    blowup_experiment,
    boundedness_scan,
    identity_suite,
    write_ratio_csv,
)
from .quadrature import WeightSpec

PASS, FAIL, NOT_CONVERGED, PACKAGE_ERROR = 0, 2, 3, 4


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _complex_list(text):
    return [complex(tok) for tok in text.split(",") if tok.strip()]


def _add_ratio_options(sub):
    sub.add_argument("--s", type=_float_list, default=None, help="comma-separated s grid")
    sub.add_argument("--radial", type=int, default=None, help="radial rule order")
    sub.add_argument("--angular", type=int, default=None, help="angular rule order")
    sub.add_argument("--out", default=None, help="write the JSON report here")
    sub.add_argument("--csv", default=None, help="write (s, norms, ratio) plot data here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergproj",
        description="Verification experiments for Bergman-projection boundedness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    identities = subs.add_parser("identities", help="run the exact-identity suite")
    identities.add_argument("--max-n", type=int, default=5)
    identities.add_argument("--negative-controls", action="store_true")
    identities.add_argument("--out", default=None)

    blowup = subs.add_parser("blowup", help="norm-ratio growth at one exponent")
    blowup.add_argument("--n", type=int, choices=(2, 3), required=True)
    blowup.add_argument("--p", type=float, required=True)
    _add_ratio_options(blowup)

    scan = subs.add_parser("scan", help="flat-or-growing scan over exponents")
    scan.add_argument("--n", type=int, choices=(2, 3), required=True)
    scan.add_argument("--p-list", type=_float_list, required=True)
    _add_ratio_options(scan)

    forelli = subs.add_parser("forelli-rudin", help="classify the growth integral")
    forelli.add_argument("--eps", type=float, required=True)
    forelli.add_argument("--s-exp", type=float, required=True)
    forelli.add_argument("--grid", type=_float_list, default=None,
                         help="radii used for the model fit")
    forelli.add_argument("--out", default=None)

    bekolle = subs.add_parser("bekolle-bonami", help="weight-constant estimates")
    bekolle.add_argument("--weight", choices=("up", "vp"), required=True)
    bekolle.add_argument("--p-list", type=_float_list, required=True)
    bekolle.add_argument("--points", type=_complex_list, required=True,
                         help="reference points of the weight (one for up)")
    bekolle.add_argument("--out", default=None)

    annihilation = subs.add_parser(
        "annihilation", help="alternating-input annihilation check"
    )
    annihilation.add_argument("--n", type=int, choices=(2, 3), required=True)
    annihilation.add_argument("--out", default=None)

    return parser


def _emit_report(report, out_path):
    if out_path:
        report.write(out_path)


def _rule_orders(args):
    if (args.radial is None) != (args.angular is None):
        raise ValueError("--radial and --angular must be given together")
    if args.radial is None:
        return None
    return (args.radial, args.angular)


def _run_identities(args):
    report = identity_suite(args.max_n, negative_controls=args.negative_controls)
    _emit_report(report, args.out)
    failures = [row for row in report.rows if not row["passed"]]
    print(
        f"identities: {len(report.rows)} checks, "
        f"{len(report.rows) - len(failures)} passed, {len(failures)} failed"
    )
    for row in failures:
        print(f"  FAIL {row['verifier']} index={row['index']} mutated={row['mutated']}")
    return PASS if report.passed else FAIL


def _run_blowup(args):
    report = blowup_experiment(args.n, args.p, s_grid=args.s, rule=_rule_orders(args))
    _emit_report(report, args.out)
    if args.csv:
        write_ratio_csv(report, args.csv)
    fit = report.fit
    for cell in report.rows:
        print(
            f"s={cell['s']}: ratio={cell['ratio']:.6g} "
            f"(norm deltas {cell['h_delta']:.1e}, {cell['image_delta']:.1e})"
        )
    stderr = fit["beta_stderr"]
    print(
        f"fit r = alpha + beta*(-log(1-s)): beta={fit['beta']:.4g}"
        f" (stderr {f'{stderr:.2g}' if stderr is not None else 'n/a'}),"
        f" R^2={fit['r_squared']:.4f},"
        f" strictly increasing: {fit['strictly_increasing']}"
    )
    return PASS if report.passed else FAIL


def _run_scan(args):
    report = boundedness_scan(args.n, args.p_list, s_grid=args.s, rule=_rule_orders(args))
    _emit_report(report, args.out)
    if args.csv:
        write_ratio_csv(report, args.csv)
    for row in report.rows:
        print(
            f"p={row['p']}: ratio spread={row['ratio_max_over_min']:.4g} ->"
            f" {row['verdict']} (expected {row['expected']};"
            f" inside the bounded range: {row['theory_bounded']})"
        )
    return PASS if report.passed else FAIL


def _run_forelli_rudin(args):
    samples = tuple(args.grid) if args.grid else None
    try:
        outcome = classify_forelli_rudin(args.eps, args.s_exp, samples=samples)
    except AmbiguousFit as exc:
        print(f"ambiguous: {exc}")
        return FAIL
    payload = {
        "eps": args.eps,
        "s_exp": args.s_exp,
        "label": outcome.label,
        "fitted_exponent": outcome.fitted_exponent,
        "residuals": outcome.residuals,
        "matches_theory": outcome.matches_theory,
        "values": [
            {"r": r, "value": forelli_rudin(args.eps, args.s_exp, r)}
            for r in (samples or ())
        ],
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    print(
        f"growth class: {outcome.label}"
        + (
            f" (fitted exponent {outcome.fitted_exponent:.4f})"
            if outcome.fitted_exponent is not None
            else ""
        )
    )
    print(f"matches the three-case theory: {outcome.matches_theory}")
    return PASS if outcome.matches_theory else FAIL


def _run_bekolle_bonami(args):
    rows = []
    for p in args.p_list:
        weight = WeightSpec.point_product(args.points, 2.0 - p)
        try:
            estimate = bekolle_bonami_estimate(weight, p)
            rows.append(
                {
                    "p": p,
                    "estimate": estimate,
                    "norm_bound": bb_norm_bound(estimate, p),
                    "divergent": False,
                }
            )
            print(f"p={p}: constant ~ {estimate:.4f}")
        except NonIntegrable as exc:
            rows.append(
                {"p": p, "estimate": None, "norm_bound": None, "divergent": True}
            )
            print(f"p={p}: divergent ({exc})")
    payload = {
        "weight": args.weight,
        "points": [[a.real, a.imag] for a in args.points],
        "p_grid": list(args.p_list),
        "rows": rows,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return PASS


def _run_annihilation(args):
    report = annihilation_check(args.n)
    _emit_report(report, args.out)
    for row in report.rows:
        print(
            f"{row['function']}: max |value| = {row['max_abs']:.3e}"
            f" (expected {row['expected']}, passed: {row['passed']})"
        )
    return PASS if report.passed else FAIL


_DISPATCH = {
    "identities": _run_identities,
    "blowup": _run_blowup,
    "scan": _run_scan,
    "forelli-rudin": _run_forelli_rudin,
    "bekolle-bonami": _run_bekolle_bonami,
    "annihilation": _run_annihilation,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except QuadratureNotConverged as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return NOT_CONVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except BergprojError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return PACKAGE_ERROR
