"""Command line interface for the experiment drivers.

Each subcommand runs one driver of ``bergproj.experiments``, which
returns an ``ExperimentReport``: its JSON goes to ``--out``, CSV plot
data of the ratio commands to ``--csv``, and a summary to stdout.  Exit
codes: 0 when the report passed, 2 when a verification fails (for
``bekolle-bonami``, a p whose estimate is finite or divergent against the
weight-class range) or an input is invalid, 3 when quadrature refused to
converge, 4 when any other package error (a ``BergprojError``, such as
an overflowing integrand) ended the run.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BergprojError, QuadratureNotConverged
from .estimates import forelli_rudin  # noqa: F401  -- bergbench's layer trace wraps it here
from .experiments import (
    annihilation_check,
    blowup_experiment,
    boundedness_scan,
    growth_class_check,
    identity_suite,
    weight_class_check,
    write_ratio_csv,
)

PASS, FAIL, NOT_CONVERGED, PACKAGE_ERROR = 0, 2, 3, 4


def _tokens(text):
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError(f"no value in {text!r}")
    return tokens


def _float_list(text):
    return [float(tok) for tok in _tokens(text)]


def _complex_list(text):
    return [complex(tok) for tok in _tokens(text)]


def _add_command(subs, name, driver, summary, help):
    """A subcommand whose flags (other than the output files and the rule
    orders) are the keyword arguments of ``driver``, named in this module."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(driver=driver, summary=summary)
    sub.add_argument("--out", default=None, help="write the JSON report here")
    return sub


def _add_ratio_options(sub):
    sub.add_argument("--s", dest="s_grid", type=_float_list, default=None,
                     help="comma-separated s grid")
    sub.add_argument("--radial", type=int, default=None, help="radial rule order")
    sub.add_argument("--angular", type=int, default=None, help="angular rule order")
    sub.add_argument("--csv", default=None, help="write (s, norms, ratio) plot data here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergproj",
        description="Verification experiments for Bergman-projection boundedness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    identities = _add_command(subs, "identities", "identity_suite", _identity_lines,
                              help="run the exact-identity suite")
    identities.add_argument("--max-n", type=int, default=5)
    identities.add_argument("--negative-controls", action="store_true")

    blowup = _add_command(subs, "blowup", "blowup_experiment", _blowup_lines,
                          help="norm-ratio growth at one exponent")
    blowup.add_argument("--n", type=int, choices=(2, 3), required=True)
    blowup.add_argument("--p", type=float, required=True)
    _add_ratio_options(blowup)

    scan = _add_command(subs, "scan", "boundedness_scan", _scan_lines,
                        help="flat-or-growing scan over exponents")
    scan.add_argument("--n", type=int, choices=(2, 3), required=True)
    scan.add_argument("--p-list", type=_float_list, required=True)
    _add_ratio_options(scan)

    forelli = _add_command(subs, "forelli-rudin", "growth_class_check", _growth_lines,
                           help="classify the growth integral")
    forelli.add_argument("--eps", type=float, required=True)
    forelli.add_argument("--s-exp", type=float, required=True)
    forelli.add_argument("--grid", dest="samples", type=_float_list, default=None,
                         help="radii used for the model fit")

    bekolle = _add_command(subs, "bekolle-bonami", "weight_class_check", _weight_lines,
                           help="weight-constant estimates")
    bekolle.add_argument("--weight", choices=("up", "vp"), required=True)
    bekolle.add_argument("--p-list", type=_float_list, required=True)
    bekolle.add_argument("--points", type=_complex_list, required=True,
                         help="reference points of the weight (one for up)")

    annihilation = _add_command(subs, "annihilation", "annihilation_check",
                                _annihilation_lines,
                                help="alternating-input annihilation check")
    annihilation.add_argument("--n", type=int, choices=(2, 3), required=True)

    return parser


def _identity_lines(report):
    failures = [row for row in report.rows if not row["passed"]]
    yield (
        f"identities: {len(report.rows)} checks, "
        f"{len(report.rows) - len(failures)} passed, {len(failures)} failed"
    )
    for row in failures:
        yield f"  FAIL {row['verifier']} index={row['index']} mutated={row['mutated']}"


def _blowup_lines(report):
    for cell in report.rows:
        yield (
            f"s={cell['s']}: ratio={cell['ratio']:.6g} "
            f"(norm deltas {cell['h_delta']:.1e}, {cell['image_delta']:.1e})"
        )
    fit = report.fit
    stderr = fit["beta_stderr"]
    yield (
        f"fit r = alpha + beta*(-log(1-s)): beta={fit['beta']:.4g}"
        f" (stderr {f'{stderr:.2g}' if stderr is not None else 'n/a'}),"
        f" R^2={fit['r_squared']:.4f},"
        f" strictly increasing: {fit['strictly_increasing']}"
    )


def _scan_lines(report):
    for row in report.rows:
        yield (
            f"p={row['p']}: ratio spread={row['ratio_max_over_min']:.4g} ->"
            f" {row['verdict']} (expected {row['expected']};"
            f" inside the bounded range: {row['theory_bounded']})"
        )


def _growth_lines(report):
    fit = report.fit
    if fit is None:
        yield from report.notes
        return
    yield f"growth class: {fit['label']} (fitted exponent {fit['fitted_exponent']:.4f})"
    yield f"matches the three-case theory: {fit['matches_theory']}"


def _weight_lines(report):
    for row in report.rows:
        found = "divergent" if row["divergent"] else f"constant ~ {row['estimate']:.4f}"
        expected = "divergent" if row["expected_divergent"] else "finite"
        yield f"p={row['p']}: {found} (expected {expected})"


def _annihilation_lines(report):
    for row in report.rows:
        yield (
            f"{row['function']}: max |value| = {row['max_abs']:.3e}"
            f" (expected {row['expected']}, passed: {row['passed']})"
        )


#: parsed flags that the run path reads itself instead of passing them on
_RUN_FLAGS = ("command", "driver", "summary", "out", "csv", "radial", "angular")


def _run(args):
    """Run the command's driver, write its report, print its summary and
    return the exit code of its verdict."""
    flags = vars(args)
    arguments = {k: v for k, v in flags.items() if k not in _RUN_FLAGS}
    if "radial" in flags:
        if (args.radial is None) != (args.angular is None):
            raise ValueError("--radial and --angular must be given together")
        if args.radial is not None:
            arguments["rule"] = (args.radial, args.angular)
    # looked up by name at run time, so a rebound driver is the one called
    report = globals()[args.driver](**arguments)
    if args.out:
        report.write(args.out)
    if flags.get("csv"):
        write_ratio_csv(report, args.csv)
    for line in args.summary(report):
        print(line)
    return PASS if report.passed else FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except QuadratureNotConverged as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return NOT_CONVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except BergprojError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return PACKAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
