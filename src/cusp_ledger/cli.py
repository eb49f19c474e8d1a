"""Command-line front-end: profile, classify, expand, verify, reduce, find-eta.

Every command produces a JSON report (printed with --json) and a text
rendering (the default).  Exit codes: 0 success, 1 a mathematical check
failed (congruence counterexample, Weierstrass gap, residual), 2 usage or
input error, 3 internal inconsistency (a bug, never bad input).

All numbers in JSON output that can exceed 53 bits (series and
representation coefficients, scales) are emitted as strings.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import lcm
from types import SimpleNamespace

from .curves import curve_profile
from .errors import (
    MAX_INT_DIGITS,
    CatalogError,
    CuspLedgerError,
    EtaError,
    GapError,
    IdentityMismatchError,
    InternalInconsistencyError,
    ReductionError,
    check_digits,
    shown,
)
from .eta import (
    ORDER_OPS,
    EtaQuotient,
    OrderConstraint,
    cusp_order_numerators,
    cusp_order_vector,
    expand_at_infinity,
    expand_at_zero,
    order_at_cusp,
    search_eta_quotients,
)
from .families import (
    Catalog,
    catalog_load,
    certified_identity_chart,
    classify,
    json_key,
    shipped_catalog_path,
    verify_congruence,
)
from .reduction import DEFAULT_GUARD, localize_reduce, reduce_module, valuation_table
from .series import QSeries, numstr

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
    return catalog_load(args.catalog or shipped_catalog_path())


def _decimal(text: str, want: str = "an integer", cap: int | None = None):
    """int(text) of a number typed on the command line if it is ASCII digits
    after an optional sign and leading zeros, blanks around; else None, also
    for '_' and other scripts' digits, which int() reads ('1_0' as 10).
    Past a cap by its digits alone it is cap + 1, unread, and past
    MAX_INT_DIGITS digits it is refused (check_digits)."""
    body = text.strip(" \t\n\r\v\f")
    sign = body[:1] in ("-", "+")
    digits = body[sign:].lstrip("0")
    if not (text.isascii() and body[sign:].isdigit()):
        return None
    if cap is not None and body[0] != "-" and len(digits) > len(str(cap)):
        return cap + 1
    check_digits(len(digits), want)
    return int(body[:sign] + (digits or "0"))


def parse_rational(text: str) -> Fraction:
    """Fraction(text) of an ASCII text without '_' (Fraction() may read
    both), refused with a ValueError in the program's words, and, before it
    is built, past MAX_INT_DIGITS digits of numerator or denominator as
    written, exponent included (1e-5000: a denominator of 5001).  They are
    counted without a regular expression, whose compiling costs start-up."""
    num, slash, den = text.partition("/")
    mantissa, _, exp = num.lower().partition("e")
    e = "".join(filter(str.isdecimal, exp)).lstrip("0")
    e = int(e or "0") if len(e) <= len(str(MAX_INT_DIGITS)) \
        else MAX_INT_DIGITS + 1
    if "-" in exp:
        e = -e
    digits = sum(map(str.isdecimal, mantissa)) + max(e, 0)
    den_digits = sum(map(str.isdecimal, den)) if slash else \
        sum(map(str.isdecimal, mantissa.partition(".")[2])) + max(-e, 0) + 1
    check_digits(max(digits, den_digits), "a numerator and a denominator",
                 counted=False)
    try:
        if "_" in text or not text.isascii():
            raise ValueError
        return Fraction(text)
    except ValueError:  # Fraction's own message repeats all of the text
        raise ValueError(
            f"Invalid literal for Fraction: {shown(text)}") from None
    except ZeroDivisionError:  # in Python's words, "Fraction(1, 0)"
        raise ValueError(
            f"value has a zero denominator: {shown(text)}") from None


def parse_constraints(text: str) -> list[OrderConstraint]:
    """Parse "1==-1,5>=1" style constraint lists: a cusp class (_decimal),
    an operator of ORDER_OPS and a value (parse_rational)."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        for op in ORDER_OPS:
            if op in chunk:
                c, v = chunk.split(op, 1)
                try:
                    if (cusp := _decimal(c, "a cusp class")) is None:
                        raise ValueError(f"invalid literal {shown(c)}: want "
                                         f"ASCII digits without '_'")
                    out.append(OrderConstraint(cusp, op, parse_rational(v)))
                except ValueError as exc:
                    raise EtaError(
                        f"bad constraint {shown(chunk)}: {exc}") from None
                break
        else:
            raise EtaError(f"bad constraint {shown(chunk)}: no operator found")
    return out


def _parse_eta_spec(text: str) -> EtaQuotient:
    """Parse "5:6,1:-6" into an eta quotient; the level is the lcm of the keys."""
    exponents = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            delta, r = map(_decimal, chunk.split(":"))
            if None in (delta, r):
                raise ValueError
        except ValueError:
            raise CatalogError(
                f"bad eta spec component {shown(chunk)}: want delta:exponent"
            ) from None
        if delta in exponents:
            raise CatalogError(f"bad eta spec {shown(text)}: divisor {delta} "
                               f"given twice")
        exponents[delta] = r
    weight = sum(abs(r) for r in exponents.values())
    if weight > MAX_ETA_WEIGHT:
        raise CatalogError(
            f"bad eta spec {shown(text)}: exponents of absolute sum {weight}, "
            f"want at most {MAX_ETA_WEIGHT} (the work cap)")
    return EtaQuotient(lcm(*exponents), exponents)


class _Verbatim(str):
    """JSON text, already written, that _json_text writes as it stands."""


# JSON text of each scalar type a report holds, and of _Verbatim text;
# type() keeps bool from int
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
                 _Verbatim: str.__str__,
                 bool: {True: "true", False: "false"}.__getitem__,
                 type(None): lambda _: "null"}


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for str, int, bool and
    None scalars in lists, tuples and str-keyed dicts: one join per
    container, each scalar written inline.  A _Verbatim value is JSON text
    already written for its place, and goes out as it stands.  Any other
    value (a float, a Fraction, a dict key that is not a str) raises
    TypeError."""
    kind = type(value)
    if (write := _JSON_SCALARS.get(kind)) is not None:
        return write(value)
    get, inner = _JSON_SCALARS.get, indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        body = [f"{encode_basestring_ascii(k)}: "
                f"{w(v) if (w := get(type(v))) else _json_text(v, inner)}"
                for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(body)}{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        body = [w(v) if (w := get(type(v))) else _json_text(v, inner)
                for v in value]
        return f"[{inner}{(',' + inner).join(body)}{indent}]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(args, report: dict, text: str) -> None:
    try:
        if args.json:
            print(_json_text({"schema_version": SCHEMA_VERSION, **report}))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early: keep the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_profile(args) -> int:
    profile = curve_profile(args.level)
    lines = [f"X_0({profile.level}): index {profile.index}, "
             f"cusp count {profile.cusp_count}, nu2 {profile.nu2}, "
             f"nu3 {profile.nu3}, genus {profile.genus}"]
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
    _emit(args, {"command": "classify", **vars(report)}, text)
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
        # Ligozat's order at the zero cusp is a whole number of 24ths
        trunc24 = 24 * args.terms + int(24 * order_at_cusp(quotient, level, 1))
        scale, series = expand_at_zero(quotient, level, trunc24)
        report = {"command": "expand", "cusp": "zero",
                  "quotient": quotient.to_json_obj(), "level": level,
                  "scale": numstr(scale), "series": series.to_json_obj()}
        text = f"scale {numstr(scale)}\n{series.format()}"
    else:
        trunc24 = quotient.degree24 + 24 * args.terms
        series = expand_at_infinity(quotient, trunc24)
        report = {"command": "expand", "cusp": "infinity",
                  "quotient": quotient.to_json_obj(),
                  "series": series.to_json_obj()}
        text = series.format()
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
        text += f"\n  counterexample: a({n}) = {numstr(c)} has valuation {v}"
    _emit(args, {"command": "verify", **rep.to_json_obj()}, text)
    return EXIT_OK if rep.passed else EXIT_MATH_FAIL


def _reduce_target(args, catalog, basis_entry, trunc24):
    """Build (chart series, cusp orders or None, prime or None, basis) for
    --target; a family's chart comes first, for the basis to read."""
    target = args.target
    if target.startswith("family:"):
        try:
            _, name, label = target.split(":")
            if not label.startswith("L") \
                    or (depth := json_key(label[1:], "depth")) < 1:
                raise ValueError
        except ValueError:
            raise CatalogError(
                f"bad family target {shown(target)}: want "
                f"family:NAME:L<depth>") from None
        spec = catalog.family(name)
        if spec.level != basis_entry.level:
            raise CatalogError(f"family {name} lives on X_0({spec.level}), "
                               f"not on the curve of basis {basis_entry.name}")
        powers = {}
        try:
            chart, orders = certified_identity_chart(
                spec, depth, trunc24 // 24, powers)
        except IdentityMismatchError as exc:
            if not args.catalog:  # the shipped catalog is wrong: a bug
                raise
            raise CatalogError(f"{args.catalog}: {exc}") from None
        return chart, orders, spec.prime, basis_entry.build(trunc24, powers)
    basis = basis_entry.build(trunc24)
    if target.startswith("eta:"):
        quotient = _parse_eta_spec(target[4:])
        level = basis_entry.level
        if level is None:
            raise CatalogError(
                "eta targets need a basis with a level (orders live on a curve)")
        scale, series = expand_at_zero(quotient, level, trunc24)
        return (series.scaled(scale), cusp_order_vector(quotient, level),
                None, basis)
    if target.startswith("poly:"):
        try:
            coeffs = [parse_rational(c) for c in target[5:].split(",")]
        except ValueError as exc:
            raise CatalogError(f"bad poly target {shown(target)}, want "
                               f"poly:c0,c1,...: {exc}") from None
        poly = {(0, m): c for m, c in enumerate(coeffs)}
        return basis.combine(poly, trunc24), None, None, basis
    if target.startswith("pole:"):
        try:
            if (order := _decimal(target[5:])) is None or order < 0:
                raise ValueError
        except ValueError:
            raise CatalogError(f"bad pole target {shown(target)}: want "
                               f"pole:P with P >= 0") from None
        return QSeries.monomial(-24 * order, trunc24), None, None, basis
    raise CatalogError(
        f"unknown target {shown(target)}: want family:NAME:L<d>, eta:SPEC, "
        f"poly:c0,c1,..., or pole:P")


def cmd_reduce(args) -> int:
    catalog = _load_catalog(args)
    basis_entry = catalog.basis(args.basis)
    trunc24 = 24 * args.terms
    chart, orders, prime, basis = _reduce_target(args, catalog, basis_entry,
                                                 trunc24)
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
        lines.append(f"  {mon}: {numstr(c)}")
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


def _find_eta_results(level: int, classes, found, orders) -> list[_Verbatim]:
    """The results of find-eta --json, one _Verbatim row per quotient, each
    as _json_text writes an item of the report's results list.  _json_text
    writes one placeholder row per level, and the exponents dict in the
    place of its "r"; each quotient's exponents and order texts (one
    column per class) fill in the slots."""
    row = _json_text({"quotient": {"M": level, "r": _Verbatim("%s")},
                      "orders": {str(c): _Verbatim('"%s"')
                                 for c, _ in classes}}, "\n    ")
    before = row[:row.index('"r": %s')]
    at = before[before.rindex("\n"):]  # the indent of "r"
    pair = '"%d": %d'
    head, tail = _json_text({"%d": _Verbatim("%d")}, at).split(pair)
    comma = "," + head[1:]
    exponents = [f"{head}{comma.join([pair % p for p in f.exponents])}{tail}"
                 if f.exponents else "{}" for f in found]
    return list(map(_Verbatim, map(row.__mod__, zip(exponents, *orders))))


def cmd_find_eta(args) -> int:
    constraints = parse_constraints(args.constraints) if args.constraints else []
    found = search_eta_quotients(args.level, constraints, args.bound)
    classes, columns = cusp_order_numerators(found, args.level)
    # each class's column of numerators as texts, each made once
    orders = [list(map({num: str(Fraction(num, den))
                        for num in set(column)}.__getitem__, column))
              for (_, den), column in zip(classes, columns)]
    # only the rendering that is printed is built
    if args.json:
        _emit(args, {"command": "find-eta", "level": args.level,
                     "bound": args.bound, "results": _find_eta_results(
                         args.level, classes, found, orders)}, "")
        return EXIT_OK
    lines = [f"{len(found)} quotient(s) on Gamma_0({args.level}) with "
             f"|r| <= {args.bound}"
             + (f" subject to {args.constraints}" if args.constraints else "")]
    line = "  %s   " + ", ".join(f"ord[c={c}]=%s" for c, _ in classes)
    lines += map(line.__mod__, zip(found, *orders))
    _emit(args, {}, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _type_error(message: str):
    """argparse's ArgumentTypeError, imported only when a value is refused."""
    from argparse import ArgumentTypeError
    return ArgumentTypeError(message)


def _int_at_least(low: int | None = None, cap: int | None = None):
    """argparse type: an integer (_decimal) no smaller than `low` and no
    larger than `cap`, each where one is given."""
    want = "an integer" if low is None else f"an integer >= {low}"

    def parse(text: str) -> int:
        try:
            value = _decimal(text, want, cap)
        except ValueError as exc:  # more than MAX_INT_DIGITS digits
            raise _type_error(str(exc)) from None
        if value is None or low is not None and value < low:
            raise _type_error(f"invalid int value: {shown(text)}"
                              if low is None else
                              f"want {want}, got {shown(text)}")
        if cap is not None and value > cap:
            raise _type_error(
                f"want at most {cap} (the work cap), got {shown(text)}")
        return value
    return parse


_int = _int_at_least()


# The command line as one table, read by build_parser and by _fast_parse:
# the common options, taken before and after the subcommand and set only
# when given, and for each subcommand its help, the flags of its required
# group (exactly one of them is given) and its options, in the order --help
# lists them, as flag: add_argument keywords.  A flag without "--" is a
# positional.
_COMMON = {
    "--catalog": dict(help=f"catalog path (or ${CATALOG_ENV})"),
    "--json": dict(action="store_true",
                   help="emit the JSON report instead of text"),
    "--jobs": dict(type=_int_at_least(1),
                   help="accepted for compatibility and ignored; "
                        "every command runs in one process"),
}
_COMMANDS = {
    "profile": ("topological profile of X_0(N)", (),
                {"level": dict(type=_int)}),
    "classify": ("difficulty class from the cusp count",
                 ("--level", "--family"), {
        "--level": dict(type=_int), "--family": {},
        "--prime": dict(type=_int_at_least(2),
                        help="a prime dividing the level")}),
    "expand": ("q-expansion of an eta quotient", ("--eta", "--family"), {
        "--eta": dict(help='exponent list like "5:6,1:-6"'),
        "--family": dict(help="expand a catalog family's generator"),
        "--terms": dict(type=_int_at_least(1, MAX_EXPAND_TERMS), default=12),
        "--at-cusp": dict(choices=("infinity", "zero"), default="infinity"),
        "--level": dict(type=_int_at_least(1),
                        help="curve level for cusp-zero expansions")}),
    "verify": ("check a congruence family directly", (), {
        "--family": dict(required=True),
        "--alpha": dict(type=_int, required=True),
        "--nmax": dict(type=_int_at_least(0, MAX_VERIFY_NMAX), required=True),
        "--beta": dict(type=_int_at_least(1),
                       help="override the demanded divisibility exponent")}),
    "reduce": ("express a target over a module basis", (), {
        "--target": dict(required=True, help="family:NAME:L<d> | eta:SPEC | "
                                             "poly:c0,c1,... | pole:P"),
        "--basis": dict(required=True, help="catalog basis name"),
        "--terms": dict(type=_int_at_least(1, MAX_REDUCE_TERMS), default=40,
                        help="working truncation in integer q-terms"),
        "--guard": dict(type=_int_at_least(0), default=DEFAULT_GUARD),
        "--prime": dict(type=_int_at_least(2),
                        help="prime for the valuation table")}),
    "find-eta": ("search for eta quotients by orders", (), {
        "--level": dict(type=_int, required=True),
        "--constraints": dict(help='like "1==-1,5>=1"'),
        "--bound": dict(type=_int, required=True)}),
}


def _fast_parse(argv):
    """argparse's namespace for argv, read off the option table, where argv
    is common options, the exact subcommand, then its options, common ones
    and positional, each named in full and once, each option's value
    (--json takes none) one token not starting with "-" that its type and
    choices take; None for any other argv, for argparse to read or refuse."""
    known, given, command, positional = _COMMON, {}, None, iter(())
    tokens = iter(argv)
    for token in tokens:
        if command is None and token in _COMMANDS:
            command, (_, group, options) = token, _COMMANDS[token]
            known = {**_COMMON, **options}
            positional = (flag for flag in options if not flag.startswith("-"))
            continue
        if not token.startswith("-") and (flag := next(positional, None)):
            value = token
        elif token.startswith("--") and token in known and token not in given:
            flag = token
            if known[flag].get("action"):  # --json takes no value
                given[flag] = True
                continue
            value = next(tokens, "-")  # no value left is declined as "-" is
            if value.startswith("-"):
                return None
        else:
            return None
        keywords = known[flag]
        try:
            value = keywords.get("type", str)(value)
        except Exception:  # refused: argparse says so in its own words
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    if command is None or (group and sum(f in given for f in group) != 1) \
            or any(flag not in given and (keywords.get("required")
                                          or not flag.startswith("-"))
                   for flag, keywords in options.items()):
        return None
    space = {flag: keywords.get("default")
             for flag, keywords in options.items()}
    space.update(given, command=command)
    return SimpleNamespace(**{flag.lstrip("-").replace("-", "_"): value
                              for flag, value in space.items()})


@lru_cache(maxsize=1)  # one parser per process, built on first need
def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise CatalogError(message)

        def _check_value(self, action, value):  # argparse's, echoing by shown
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                message = (f"invalid choice: {shown(value)} "
                           f"(choose from {choices})")
                raise argparse.ArgumentError(action, message)

        def parse_args(self, args=None, namespace=None):
            args, extras = self.parse_known_args(args, namespace)
            if extras:
                self.error(
                    f"unrecognized arguments: {shown(' '.join(extras))}")
            return args

    common = argparse.ArgumentParser(add_help=False)
    for flag, keywords in _COMMON.items():
        common.add_argument(flag, default=argparse.SUPPRESS, **keywords)
    parser = _Parser(prog="cusp-ledger", parents=[common], description=(
        "Exact workbench for modular congruence families: "
        "curve topology, eta quotients, tower slices, reductions."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, group, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        which = group and p.add_mutually_exclusive_group(required=True)
        for flag, keywords in options.items():
            (which if flag in group else p).add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        args = (_fast_parse(sys.argv[1:] if argv is None else argv)
                or build_parser().parse_args(argv))
        # the catalog the user names, or None for the shipped one
        args.catalog = (getattr(args, "catalog", None)
                        or os.environ.get(CATALOG_ENV))
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
