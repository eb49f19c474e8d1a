"""Command-line front-end: profile, classify, expand, verify, reduce, find-eta.

Every command produces a JSON report (printed with --json) and a text
rendering (the default).  Exit codes: 0 success, 1 a mathematical check
failed (congruence counterexample, Weierstrass gap, residual), 2 usage or
input error, 3 internal inconsistency (a bug, never bad input).

All numbers in JSON output that can exceed 53 bits (series and
representation coefficients, scales) are emitted as strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .curves import curve_profile
from .errors import (
    CatalogError,
    CuspLedgerError,
    GapError,
    InternalInconsistencyError,
    ReductionError,
)
from .eta import (
    EtaQuotient,
    cusp_order_vector,
    expand_at_infinity,
    expand_at_zero,
    order_at_cusp,
    parse_constraints,
    search_eta_quotients,
)
from .families import (
    Catalog,
    catalog_load,
    certified_identity_chart,
    classify,
    shipped_catalog_path,
    verify_congruence,
)
from .reduction import DEFAULT_GUARD, localize_reduce, reduce_module, valuation_table
from .series import QSeries

SCHEMA_VERSION = 1
CATALOG_ENV = "CUSP_LEDGER_CATALOG"

# Work caps of the size options, checked when the command line is parsed,
# before anything is allocated: time and memory grow faster than linearly in
# each size, so a much larger value would run for hours or end in a
# MemoryError.  Each cap sits well above every benchmark op.
MAX_VERIFY_NMAX = 100_000   # verify --nmax
MAX_EXPAND_TERMS = 100_000  # expand --terms
MAX_REDUCE_TERMS = 10_000   # reduce --terms
# sum |r| over an eta spec (--eta, or an eta: target): the expansion costs
# about one pass over the series per unit of |r|.  Catalog quotients reach 60.
MAX_ETA_WEIGHT = 1_000
# an integer option without a work cap refuses more digits as too large
MAX_INT_DIGITS = 4_300  # what int() reads (sys.set_int_max_str_digits)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def __getattr__(name):
    # No command starts a process pool, so none imports one.  The benchmark's
    # tracer (perfbench/spans.py) still wraps cli.ProcessPoolExecutor; this
    # hook serves only that lookup, binding the class on first access.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _load_catalog(args) -> Catalog:
    path = args.catalog or os.environ.get(CATALOG_ENV) or shipped_catalog_path()
    return catalog_load(path)


def _parse_eta_spec(text: str) -> EtaQuotient:
    """Parse "5:6,1:-6" into an eta quotient; the level is the lcm of the keys."""
    exponents = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            delta, r = (int(part) for part in chunk.split(":"))
        except ValueError:
            raise CatalogError(
                f"bad eta spec component {chunk!r}: want delta:exponent"
            ) from None
        if delta in exponents:
            raise CatalogError(f"bad eta spec {text!r}: divisor {delta} "
                               f"given twice")
        exponents[delta] = r
    weight = sum(abs(r) for r in exponents.values())
    if weight > MAX_ETA_WEIGHT:
        raise CatalogError(
            f"bad eta spec {text!r}: exponents of absolute sum {weight}, "
            f"want at most {MAX_ETA_WEIGHT} (the work cap)")
    level = lcm(*exponents.keys()) if exponents else 1
    return EtaQuotient(level, exponents)


def _emit(args, report: dict, text: str) -> None:
    if args.json:
        report = {"schema_version": SCHEMA_VERSION, **report}
        print(json.dumps(report, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_profile(args) -> int:
    profile = curve_profile(args.level)
    lines = [
        f"X_0({profile.level}): index {profile.index}, "
        f"cusp count {profile.cusp_count}, nu2 {profile.nu2}, "
        f"nu3 {profile.nu3}, genus {profile.genus}"
    ]
    for c in profile.cusp_classes:
        lines.append(
            f"  class c={c.denominator}: count {c.count}, width {c.width}")
    if profile.cusp_count % 2 == 1:
        lines.append("  note: odd cusp count (sporadic level)")
    _emit(args, {"command": "profile", **profile.to_json_obj()},
          "\n".join(lines))
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.family is not None:
        spec = _load_catalog(args).family(args.family)
        if args.prime not in (None, spec.prime):
            raise CatalogError(f"--prime {args.prime} is not the prime "
                               f"{spec.prime} of family {spec.name}")
        level, prime = spec.level, spec.prime
    else:
        level, prime = args.level, args.prime
    report = classify(level, prime)
    flags = f" flags: {', '.join(report.sporadic_flags)}" \
        if report.sporadic_flags else ""
    text = (f"level {report.level}: cusp count {report.cusp_count}, genus "
            f"{report.genus} -> {report.difficulty_class} "
            f"(tedium {report.tedium_score}){flags}")
    _emit(args, {"command": "classify", **report.to_json_obj()}, text)
    return EXIT_OK


def cmd_expand(args) -> int:
    if args.level is not None and args.at_cusp != "zero":
        raise CatalogError("--level applies only to --at-cusp zero")
    if args.family is not None:
        quotient = _load_catalog(args).family(args.family).generator
    else:
        quotient = _parse_eta_spec(args.eta)
    level = quotient.level if args.level is None else args.level
    if args.at_cusp == "zero":
        lead24 = 24 * order_at_cusp(quotient, level, 1)
        trunc24 = 24 * args.terms
        if lead24.denominator == 1:
            trunc24 += int(lead24)
        scale, series = expand_at_zero(quotient, level, trunc24)
        report = {"command": "expand", "cusp": "zero",
                  "quotient": quotient.to_json_obj(), "level": level,
                  "scale": str(scale), "series": series.to_json_obj()}
        text = f"scale {scale}\n{series.format(max_terms=args.terms)}"
    else:
        trunc24 = quotient.degree24 + 24 * args.terms
        series = expand_at_infinity(quotient, trunc24)
        report = {"command": "expand", "cusp": "infinity",
                  "quotient": quotient.to_json_obj(),
                  "series": series.to_json_obj()}
        text = series.format(max_terms=args.terms)
    _emit(args, report, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    catalog = _load_catalog(args)
    spec = catalog.family(args.family)
    rep = verify_congruence(spec, args.alpha, args.nmax,
                            beta_override=args.beta)
    min_s = "infinity" if rep.min_valuation is None else str(rep.min_valuation)
    text = (f"family {rep.family}, depth {rep.alpha} "
            f"(modulus {spec.prime}^{rep.modulus_exponent}): "
            f"{rep.qualifying_count} qualifying n <= {rep.n_max}, "
            f"min {spec.prime}-adic valuation {min_s}, "
            f"demanded {rep.beta}: {'PASS' if rep.passed else 'FAIL'}")
    if rep.counterexample:
        n, c, v = rep.counterexample
        text += f"\n  counterexample: a({n}) = {c} has valuation {v}"
    _emit(args, {"command": "verify", **rep.to_json_obj()}, text)
    return EXIT_OK if rep.passed else EXIT_MATH_FAIL


def _reduce_target(args, catalog, basis, trunc24):
    """Build (chart series, cusp orders or None, prime or None) for --target."""
    target = args.target
    if target.startswith("family:"):
        try:
            _, name, label = target.split(":")
            if not label.startswith("L"):
                raise ValueError
            depth = int(label[1:])
        except ValueError:
            raise CatalogError(
                f"bad family target {target!r}: want family:NAME:L<depth>"
            ) from None
        spec = catalog.family(name)
        if spec.level != basis.level:
            raise CatalogError(f"family {name} lives on X_0({spec.level}), "
                               f"not on the curve of basis {basis.label}")
        chart, orders = certified_identity_chart(spec, depth, trunc24 // 24)
        return chart, orders, spec.prime
    if target.startswith("eta:"):
        quotient = _parse_eta_spec(target[4:])
        level = basis.level
        if level is None:
            raise CatalogError(
                "eta targets need a basis with a level (orders live on a curve)")
        scale, series = expand_at_zero(quotient, level, trunc24)
        return series.scaled(scale), cusp_order_vector(quotient, level), None
    if target.startswith("poly:"):
        try:
            coeffs = [Fraction(c) for c in target[5:].split(",")]
        except (ValueError, ZeroDivisionError):
            raise CatalogError(
                f"bad poly target {target!r}: want poly:c0,c1,...") from None
        poly = {(0, m): c for m, c in enumerate(coeffs)}
        return basis.combine(poly, trunc24), None, None
    if target.startswith("pole:"):
        try:
            order = int(target[5:])
            if order < 0:
                raise ValueError
        except ValueError:
            raise CatalogError(f"bad pole target {target!r}: want pole:P with "
                               f"P >= 0") from None
        return QSeries.monomial(-24 * order, trunc24), None, None
    raise CatalogError(
        f"unknown target {target!r}: want family:NAME:L<d>, eta:SPEC, "
        f"poly:c0,c1,..., or pole:P")


def cmd_reduce(args) -> int:
    catalog = _load_catalog(args)
    basis_entry = catalog.basis(args.basis)
    trunc24 = 24 * args.terms
    basis = basis_entry.build(trunc24)
    chart, orders, prime = _reduce_target(args, catalog, basis, trunc24)
    if orders is not None and basis.z is not None:
        rep = localize_reduce(chart, basis, orders, guard=args.guard)
    else:
        rep = reduce_module(chart, basis, guard=args.guard)
    report = {"command": "reduce", "basis": basis_entry.name,
              "target": args.target, **rep.to_json_obj()}
    lines = [f"target reduced over basis {basis_entry.name!r} "
             f"(localizer exponent {rep.localizer_exponent})"]
    for (k, m), c in sorted(rep.coeffs.items()):
        mon = f"x^{m}" if k == 0 else f"y_{k} x^{m}"
        lines.append(f"  {mon}: {c}")
    if not rep.coeffs:
        lines.append("  (zero)")
    prime = args.prime or prime
    if prime:
        tab = valuation_table(rep, prime)
        report["valuations"] = tab.to_json_obj()
        lines.append(f"min {prime}-adic valuation over coefficients: "
                     f"{tab.min_valuation()}")
    _emit(args, report, "\n".join(lines))
    return EXIT_OK


def cmd_find_eta(args) -> int:
    constraints = parse_constraints(args.constraints) if args.constraints else []
    found = search_eta_quotients(args.level, constraints, args.bound)
    entries = []
    lines = [f"{len(found)} quotient(s) on Gamma_0({args.level}) with "
             f"|r| <= {args.bound}"
             + (f" subject to {args.constraints}" if args.constraints else "")]
    for f in found:
        vec = cusp_order_vector(f, args.level)
        entries.append({"quotient": f.to_json_obj(),
                        "orders": vec.to_json_obj()["orders"]})
        orders = ", ".join(f"ord[c={c}]={o}" for c, o in vec.orders)
        lines.append(f"  {f}   {orders}")
    _emit(args, {"command": "find-eta", "level": args.level,
                 "bound": args.bound, "results": entries}, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CatalogError(message)


def _int_at_least(low: int, cap: int | None = None):
    """argparse type: an integer no smaller than `low`, and no larger than
    `cap` when one is given."""
    def parse(text: str) -> int:
        # a digit string is judged by its length before int() reads it
        digits = len(text.lstrip("0")) if text.isascii() and text.isdigit() \
            else 0
        if cap is None and digits > MAX_INT_DIGITS:
            raise argparse.ArgumentTypeError(
                f"too large: want an integer >= {low} of at most "
                f"{MAX_INT_DIGITS} digits, got {digits} digits")
        if cap is not None and digits > len(str(cap)):
            value = cap + 1
        else:
            try:
                value = int(text)
            except ValueError:
                value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"want an integer >= {low}, got {text!r}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(
                f"want at most {cap} (the work cap), got {text!r}")
        return value
    return parse


@lru_cache(maxsize=1)  # one parser per process, built by the first main call
def build_parser() -> argparse.ArgumentParser:
    # global flags accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", default=argparse.SUPPRESS,
                        help=f"catalog path (or ${CATALOG_ENV})")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit the JSON report instead of text")
    common.add_argument("--jobs", type=_int_at_least(1),
                        default=argparse.SUPPRESS,
                        help="accepted for compatibility and ignored; "
                             "every command runs in one process")
    parser = _Parser(
        prog="cusp-ledger",
        parents=[common],
        description="Exact workbench for modular congruence families: "
                    "curve topology, eta quotients, tower slices, reductions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("profile", help="topological profile of X_0(N)")
    p.add_argument("level", type=int)

    p = add_parser("classify", help="difficulty class from the cusp count")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--level", type=int)
    which.add_argument("--family")
    p.add_argument("--prime", type=_int_at_least(2),
                   help="a prime dividing the level")

    p = add_parser("expand", help="q-expansion of an eta quotient")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--eta", help='exponent list like "5:6,1:-6"')
    which.add_argument("--family", help="expand a catalog family's generator")
    p.add_argument("--terms", type=_int_at_least(1, MAX_EXPAND_TERMS),
                   default=12)
    p.add_argument("--at-cusp", choices=("infinity", "zero"),
                   default="infinity")
    p.add_argument("--level", type=_int_at_least(1),
                   help="curve level for cusp-zero expansions")

    p = add_parser("verify", help="check a congruence family directly")
    p.add_argument("--family", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--nmax", type=_int_at_least(0, MAX_VERIFY_NMAX),
                   required=True)
    p.add_argument("--beta", type=_int_at_least(1),
                   help="override the demanded divisibility exponent")

    p = add_parser("reduce", help="express a target over a module basis")
    p.add_argument("--target", required=True,
                   help="family:NAME:L<d> | eta:SPEC | poly:c0,c1,... | pole:P")
    p.add_argument("--basis", required=True, help="catalog basis name")
    p.add_argument("--terms", type=_int_at_least(1, MAX_REDUCE_TERMS),
                   default=40,
                   help="working truncation in integer q-terms")
    p.add_argument("--guard", type=_int_at_least(0), default=DEFAULT_GUARD)
    p.add_argument("--prime", type=_int_at_least(2),
                   help="prime for the valuation table")

    p = add_parser("find-eta", help="search for eta quotients by orders")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--constraints", help='like "1==-1,5>=1"')
    p.add_argument("--bound", type=int, required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.catalog = getattr(args, "catalog", None)
        args.json = getattr(args, "json", False)
        # looked up per call, so a rebound cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (GapError, ReductionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CuspLedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug: report it on one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
