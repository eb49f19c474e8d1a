"""Mutation sweep over the series kernel, the reduction engine, the
cusp orders and their bounds, the Gamma_0(N) conditions and refusal,
the catalog's loader and its readers of rationals, keys, series, eta
quotients, families and bases, the exponent rule, the command line's
reader of integers, find-eta's rendering, the cusps,
elliptic points and genus of X_0(N), and the classification,
verification, coefficient series, direct and recursive towers and
identity-chart powers of congruence families.

Each mutant changes one site of one target function: it swaps `+` and `-`
(in an expression or an augmented assignment), swaps `<` and `<=` or `>`
and `>=`, or moves an integer constant up or down by one.  The mutated
module is written into a temporary copy of the tree, and the tests of that
module (TESTS) run against it with `-x`; a mutant whose tests all pass
survives, and the survivors are printed.  A mutant listed in EQUIVALENT is
not run: no input the program passes tells it from the original.

    python tools/mutants.py                      # every target in TARGETS
    python tools/mutants.py series:QSeries.__mul__ reduction:ModuleBasis.__init__
    python tools/mutants.py --list               # the mutants, no tests run

--list fails (exit 1) when an EQUIVALENT entry no longer matches exactly
one mutant, so the list follows the code it describes.  A sweep exits 1
when a mutant outside EQUIVALENT survives.  Each mutant costs up to one
run of its module's tests (about 17 s on a 2-CPU x86-64 box when it
survives), and all of TARGETS took about 49 min there, summed over the
sweeps that added them, so the sweep is not part of the test suite.  A
mutant that loops forever is killed once the collection or one test runs
past TEST_LIMIT seconds.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "cusp_ledger")

# (module, qualified name) of each function the sweep mutates
TARGETS = (
    ("series", "_divide_out"),
    ("series", "_scatter"),
    ("series", "_kronecker"),
    ("series", "_pack"),
    ("series", "QSeries.invert"),
    ("series", "QSeries._section"),
    ("series", "QSeries.u_operator"),
    ("series", "QSeries.__add__"),
    ("series", "combination"),
    ("series", "QSeries.__mul__"),
    ("series", "QSeries.__truediv__"),
    ("series", "QSeries.__pow__"),
    ("series", "pochhammer_product"),
    ("series", "pochhammer_plan"),
    ("reduction", "ModuleBasis.__init__"),
    ("reduction", "reduce_module"),
    ("eta", "cusp_order_numerators"),
    ("eta", "_packed_products"),
    ("eta", "cusp_order_bounds"),
    ("eta", "require_on_gamma0"),
    ("eta", "exponent_vector"),
    ("cli", "_find_eta_results"),
    ("cli", "_fast_parse"),
    ("curves", "Record.__init__"),
    ("curves", "curve_profile"),
    ("curves", "cusp_count"),
    ("curves", "enumerate_cusps"),
    ("curves", "elliptic_counts"),
    ("curves", "index_mu"),
    ("families", "classify"),
    ("families", "verify_congruence"),
    ("eta", "validate_on_gamma0"),
    ("families", "coefficient_series"),
    ("families", "_ray_multiple"),
    ("families", "tower_series_direct"),
    ("families", "tower_series_recursive"),
    ("families", "_family_from_json"),
    ("families", "_basis_from_json"),
    ("families", "FamilySpec.validate"),
    ("families", "PochhammerProduct.from_json_obj"),
    ("eta", "newman_sums"),
    ("families", "json_ratio"),
    ("families", "json_key"),
    ("families", "_series_from_json"),
    ("cli", "_decimal"),
    ("families", "catalog_loads"),
)

# the tests run against a mutant of each module
_KERNEL_TESTS = ("tests/test_series.py", "tests/test_reduction.py",
                 "tests/test_families.py")
TESTS = {"series": _KERNEL_TESTS, "reduction": _KERNEL_TESTS,
         "eta": ("tests/test_eta.py", "tests/test_cli.py",
                 "tests/test_families.py"),
         "cli": ("tests/test_cli.py",),
         "curves": ("tests/test_curves.py", "tests/test_acceptance.py",
                    "tests/test_cli.py"),
         "families": ("tests/test_families.py", "tests/test_acceptance.py",
                      "tests/test_cli.py")}

# (module, qualified name, site, mutated site, why no input the program
# passes tells them apart); a site is the statement around the mutation,
# or the test or iterable of the if, for or while that holds it
_NO_ZERO_POWER = "a plan holds no zero power"
_CUT = "the entries it adds lie past the truncation, where _make cuts them"
_UNIT_WEIGHT = ("a weight of 1 or -1 taken as a general weight is "
                "multiplied in, to the same sum, and keeps the pass in Python")
_SWITCH = ("the C path and the Python loop take the same sums, so where the "
           "pass switches from one to the other changes no coefficient")
_SWITCH_TEST = "end - e >= _C_SEGMENT and unit"
_UNIT = "unit = all((x * x == 1 for _, x in terms))"
_NO_PREFACTOR = ("without a depth-1 prefactor tower_series_direct refuses L_1 "
                 "before the chain's sizes are read")
_LEAD = "lead = [phi.qpow if (phi := spec.prefactors.get(1)) else 0]"
_WIDER = "a wider slot holds every coefficient of the product too"
_SLOTS_PAST = "the bias slots past the product are never unpacked"
_UNREAD_POWER = "the one more power of b0 is never read"
_NOTHING_LIVE = ("with no nonzero part the list holds only zeros, and the "
                 "zero series keeps none")
_GRID_CUT = ("the target is on the integer grid: the cut keeps the same "
             "terms at q^0 and below, and the elimination reads no other")
_GRID = "exponents on the integer grid are multiples of 24"
_EQUAL_COUNTS = "with as many nonzeros in each factor, either may run the rows"
_NO_EXPONENT = ("with no nonzero exponent every numerator is 0, and the "
                "offset is taken off as it was put on")
_ODD_PASSES = ("each shape's exponents sum to an odd number, so a factor "
               "takes an odd number of passes off: more than 1 is more than 2")
_EULER_ONCE = "Euler's series takes at most one pass off, never more than most"
_SHIFTED = ("every count moves down by 1, which by parity crosses no "
            "threshold and keeps their order")
# a count of 1 where more were due changes no plan: the next scan picks the
# same factor again, and applying it in bulk or once a scan plans the same
_ONCE = ("an exponent that counts where it should not counts max(a // r, 1) "
         "= 1, so the factor is applied once and the next scan picks it "
         "again")
_JACOBI_FIRST = ("a * r = 1 only at the |r| = 1 exponent of psi or phi(-q), "
                 "chosen only when its |r| = 2 exponent takes 2 off too; at "
                 "|a| >= 4 there Jacobi's series at that divisor would take "
                 "3 off as well and come first, so a // r = 1 there and the "
                 "count is 1 either way")
_TIMES = ("times = min((max(a // r, 1) for d, r in shape if (a := rest.get(d, "
          "0)) * r > 0))")
_GENUS = ("the genus of a curve is never negative, so at no level does the "
          "raise fire on either test")
_SAME_MIN = ("a valuation equal to the least so far leaves it as it was, "
             "whether or not it is stored again")
_NO_RAY = ("f without the first divisor of base is no k-th power of base "
           "for any k, so the exponent check returns 0")
_TRIVIAL_BASE = ("the default is read only for the trivial base, and then "
                 "k = 1 only for a trivial term, whose table entry is the "
                 "chart it gets without one; no basis x is trivial, so no "
                 "basis reads the table")
_SUM_LIST = ("out = [0] * min(max(((s.offset24 - off) // 24 + len(s._nums) "
             "for _, s in live), default=0), -(-(t - off) // 24))")
_RAY = ("k = next((dict(f.exponents).get(d, 0) // r for d, r in "
        "base.exponents), 0)")
_TERM = ("entries[json_field(e, 'exponent', int)] = a * d if b * c == 1 "
         "else Fraction(a * d, b * c)")
_SAME_CHECK = ("check_digits makes the comparison again: the guard only "
               "spares the call where no limit binds")
EQUIVALENT = (
    ("series", "pochhammer_product",
     "power > 0",
     "power >= 0",
     _NO_ZERO_POWER),
    ("series", "pochhammer_product",
     "power > 0",
     "power > -1",
     _NO_ZERO_POWER),
    ("series", "pochhammer_product",
     "power < 0",
     "power <= 0",
     _NO_ZERO_POWER),
    ("series", "pochhammer_product",
     "power < 0",
     "power < 1",
     _NO_ZERO_POWER),
    ("series", "pochhammer_product",
     "n = -(-trunc24 // 24)",
     "n = -(-trunc24 // 23)",
     _CUT),
    ("series", "pochhammer_product",
     "c = [0] * max(n, 1)",
     "c = [0] * max(n, 2)",
     _CUT),
    ("series", "QSeries.__mul__",
     "n = min(len(a) + len(b) - 1, -(-(t - off) // 24))",
     "n = min(len(a) + len(b) - 1, -(-(t - off) // 23))",
     _CUT),
    ("series", "QSeries.invert",
     "n = -(-(self.trunc24 - self.offset24) // 24)",
     "n = -(-(self.trunc24 - self.offset24) // 23)",
     _CUT),
    ("series", "combination", _SUM_LIST,
     _SUM_LIST.replace("(t - off) // 24", "(t - off) // 23"), _CUT),
    ("series", "_divide_out",
     "w == -1",
     "w == -0",
     _UNIT_WEIGHT),
    ("series", "_divide_out",
     "w == 1",
     "w == 0",
     _UNIT_WEIGHT),
    ("series", "_divide_out",
     _SWITCH_TEST,
     _SWITCH_TEST.replace("end - e >=", "end - e >"),
     _SWITCH),
    ("series", "_divide_out",
     _SWITCH_TEST,
     _SWITCH_TEST.replace("end - e", "end + e"),
     _SWITCH),
    ("series", "_divide_out",
     _UNIT,
     _UNIT.replace("x * x == 1", "x * x == 2"),
     _SWITCH),
    ("series", "_divide_out",
     _UNIT,
     _UNIT.replace("x * x == 1", "x * x == 0"),
     _SWITCH),
    ("families", "tower_series_recursive", _LEAD,
     _LEAD.replace("else 0", "else 1"), _NO_PREFACTOR),
    ("families", "tower_series_recursive", _LEAD,
     _LEAD.replace("else 0", "else -1"), _NO_PREFACTOR),
    ("series", "_kronecker",
     "bits = max(max(a), -min(a)).bit_length() + max(max(b), "
     "-min(b)).bit_length() + min(len(a), len(b)).bit_length() + 1",
     "bits = max(max(a), -min(a)).bit_length() + max(max(b), "
     "-min(b)).bit_length() + min(len(a), len(b)).bit_length() + 2",
     _WIDER),
    ("series", "_kronecker",
     "size = -(-bits // 8)",
     "size = -(-bits // 7)",
     _WIDER),
    ("series", "_kronecker",
     "slots = len(a) + len(b) - 1",
     "slots = len(a) + len(b) + 1",
     _SLOTS_PAST),
    ("series", "_kronecker",
     "slots = len(a) + len(b) - 1",
     "slots = len(a) + len(b) - 0",
     _SLOTS_PAST),
    ("series", "QSeries.invert",
     "pw = [B[0] ** j for j in range(n + 1)]",
     "pw = [B[0] ** j for j in range(n + 2)]",
     _UNREAD_POWER),
    *(("series", "combination", _SUM_LIST,
       _SUM_LIST.replace("default=0", new), _NOTHING_LIVE)
      for new in ("default=1", "default=-1")),
    ("series", "combination", _SUM_LIST,
     _SUM_LIST.replace("off) // 24 +", "off) // 23 +"),
     "a start read too high only lengthens the list by zeros past every "
     "term, which _make strips"),
    ("series", "combination",
     "live and (s.offset24 - live[0][1].offset24) % 24",
     "live and (s.offset24 - live[-1][1].offset24) % 24",
     "the live terms before it lie on one coset, so the last is on the "
     "first's"),
    ("reduction", "reduce_module",
     "head = f.truncate(min(f.trunc24, 24))",
     "head = f.truncate(min(f.trunc24, 25))",
     _GRID_CUT),
    ("reduction", "reduce_module",
     "head = f.truncate(min(f.trunc24, 24))",
     "head = f.truncate(min(f.trunc24, 23))",
     _GRID_CUT),
    ("reduction", "reduce_module",
     "mon_head = mon.truncate(min(mon.trunc24, 24))",
     "mon_head = mon.truncate(min(mon.trunc24, 25))",
     _GRID_CUT),
    ("reduction", "reduce_module",
     "mon_head = mon.truncate(min(mon.trunc24, 24))",
     "mon_head = mon.truncate(min(mon.trunc24, 23))",
     _GRID_CUT),
    ("reduction", "reduce_module",
     "not head.is_zero and head.offset24 < 0",
     "not head.is_zero and head.offset24 < -1",
     _GRID),
    ("reduction", "reduce_module",
     "bad_e <= 0",
     "bad_e <= 1",
     _GRID),
    ("series", "QSeries.__mul__",
     "nonzero_a > nonzero_b",
     "nonzero_a >= nonzero_b",
     _EQUAL_COUNTS),
    ("eta", "_packed_products",
     "lift = max([abs(e) for f in quotients for _, e in f.exponents], "
     "default=0)",
     "lift = max([abs(e) for f in quotients for _, e in f.exponents], "
     "default=1)",
     _NO_EXPONENT),
    ("series", "pochhammer_plan",
     "best, most = (None, 1)",
     "best, most = (None, 2)",
     _ODD_PASSES),
    ("series", "pochhammer_plan",
     "range(1, len(_SERIES))",
     "range(0, len(_SERIES))",
     _EULER_ONCE),
    ("series", "pochhammer_plan",
     "plus = minus = 0",
     "plus = minus = -1",
     _SHIFTED),
    *(("series", "pochhammer_plan", _TIMES, _TIMES.replace(old, new), _ONCE)
      for old, new in (("* r > 0", "* r >= 0"), ("* r > 0", "* r > -1"),
                       ("get(d, 0)", "get(d, 1)"),
                       ("get(d, 0)", "get(d, -1)"))),
    ("series", "pochhammer_plan", _TIMES, _TIMES.replace("* r > 0", "* r > 1"),
     _JACOBI_FIRST),
    ("curves", "curve_profile",
     "rest or genus < 0",
     "rest or genus < -1",
     _GENUS),
    ("families", "verify_congruence",
     "min_val is None or v < min_val",
     "min_val is None or v <= min_val",
     _SAME_MIN),
    *(("families", "_ray_multiple", _RAY, _RAY.replace(old, new), why)
      for old, new, why in (
          ("get(d, 0)", "get(d, 1)", _NO_RAY),
          ("get(d, 0)", "get(d, -1)", _NO_RAY),
          ("exponents), 0)", "exponents), 1)", _TRIVIAL_BASE),
          ("exponents), 0)", "exponents), -1)",
           "the default is read only for the trivial base, and a k of -1 "
           "returns 0, as 0 does"))),
    ("families", "FamilySpec.validate",
     "degree24 >= 24 * IDENTITY_CHECK_TERMS",
     "degree24 >= 23 * IDENTITY_CHECK_TERMS",
     "a term that reaches it is valid, so its degree24 is a multiple of 24, "
     "and none lies in [184, 192)"),
    ("families", "json_key",
     "len(digits) > SAFE_INT_DIGITS",
     "len(digits) >= SAFE_INT_DIGITS",
     _SAME_CHECK),
    ("families", "json_ratio",
     "(n := max(len(digits), len(q))) > SAFE_INT_DIGITS",
     "(n := max(len(digits), len(q))) >= SAFE_INT_DIGITS",
     _SAME_CHECK),
    ("families", "_series_from_json", _TERM,
     _TERM.replace("b * c == 1", "b * c == 0"),
     "b * c is never 0, and a Fraction of denominator 1 is stored as the "
     "int it equals"),
    ("cli", "_decimal",
     "return cap + 1",
     "return cap + 2",
     "every value past the cap is refused alike, echoing the text"),
    ("families", "_ray_multiple",
     "return k if k >= 1 and f.exponents == tuple(((d, k * r) for d, r in "
     "base.exponents)) else 0",
     "return k if k >= 0 and f.exponents == tuple(((d, k * r) for d, r in "
     "base.exponents)) else 0",
     "k = 0 passes the exponent check only for a trivial f and base, and "
     "then returns 0 either way"),
)

MEMORY_LIMIT = 2 << 30  # bytes of address space for one test run

# seconds that the collection, or one test with its setup and teardown,
# may run before it ends the whole run as killed.  A mutant that loops
# forever (a planner scan that never shrinks its rest, say) would otherwise
# hold the run until the per-mutant timeout, 5 x the unmutated run: about
# 90 s of the kernel tests.  On the unmutated tree (a 2-CPU x86-64 box) the
# slowest test of any module's TESTS took 2.5 s and the slowest collection
# 1.9 s, a module-level expansion of test_series.py among it, so only a
# mutant that makes one of them 8 times slower is ended here.
TEST_LIMIT = 20

# loaded before the tests: a drawn test that fails stops there, since
# shrinking its example would only delay the kill, and the collection or a
# test past TEST_LIMIT ends the process (faulthandler exits with status 1):
# armed here for the collection, then again for each test
CONFTEST = f"""\
import faulthandler

import pytest
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse,
                                             Phase.generate])
settings.load_profile("mutants")
faulthandler.dump_traceback_later({TEST_LIMIT}, exit=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    faulthandler.dump_traceback_later({TEST_LIMIT}, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
"""


class Mutant(NamedTuple):
    """One change at one site of a target function: the index-th of
    _sites, shown as the site before and after."""

    module: str
    qualname: str
    index: int
    line: int
    site: str
    mutated: str

    def key(self) -> tuple[str, str, str, str]:
        return self.module, self.qualname, self.site, self.mutated

    def __str__(self) -> str:
        return (f"{self.module}.py:{self.line} {self.qualname}: "
                f"{self.site}  ->  {self.mutated}")


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    body = tree.body
    *outer, name = qualname.split(".")
    for part in outer:
        body = next(n for n in body
                    if isinstance(n, ast.ClassDef) and n.name == part).body
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {qualname}")


_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE,
          ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _site(node: ast.AST, parents: dict) -> ast.AST:
    """The simple statement around node, or the test or iterable that
    holds it in the header of an if, for or while."""
    while not isinstance(node, ast.stmt):
        parent = parents[node]
        if isinstance(parent, (ast.If, ast.For, ast.While)):
            return node
        node = parent
    return node


def _sites(function: ast.FunctionDef):
    """(site node, node, field, mutated value of the field) for every
    mutation in function, in a fixed order."""
    parents = {child: node for node in ast.walk(function)
               for child in ast.iter_child_nodes(node)}
    for node in (n for stmt in function.body for n in ast.walk(stmt)):
        shown = _site(node, parents)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and type(node.op) in (ast.Add, ast.Sub):
            yield shown, node, "op", _SWAPS[type(node.op)]()
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    ops = list(node.ops)
                    ops[i] = _SWAPS[type(op)]()
                    yield shown, node, "ops", ops
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                yield shown, node, "value", node.value + step


def mutants(module: str, qualname: str) -> list[Mutant]:
    source = (ROOT / PACKAGE / f"{module}.py").read_text()
    found = []
    function = _function(ast.parse(source), qualname)
    for index, (shown, node, field, value) in enumerate(_sites(function)):
        site, old = ast.unparse(shown), getattr(node, field)
        setattr(node, field, value)
        found.append(Mutant(module, qualname, index, shown.lineno, site,
                            ast.unparse(shown)))
        setattr(node, field, old)
    return found


def mutated_source(mutant: Mutant, source: str) -> str:
    """The mutant's whole module, unparsed: comments go, code stays."""
    tree = ast.parse(source)
    _, node, field, value = list(_sites(_function(tree, mutant.qualname)))[
        mutant.index]
    setattr(node, field, value)
    return ast.unparse(tree) + "\n"


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(tree: Path, tests: tuple[str, ...], timeout: float) -> str:
    """'survived' when the tests pass on the copied tree, 'killed' when one
    fails or runs past TEST_LIMIT, 'timed out' past the timeout.  No
    bytecode is written, so no stale cache outlives a mutant."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(tree / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout,
            preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if done.returncode == 0 else "killed"


def check_equivalents(found: list[Mutant]) -> list[str]:
    """The EQUIVALENT entries that do not match exactly one mutant."""
    problems = []
    for module, qualname, site, mutated, _ in EQUIVALENT:
        hits = [m for m in found if m.key() == (module, qualname, site,
                                                mutated)]
        if len(hits) != 1:
            problems.append(f"{module}:{qualname}: {site} -> {mutated} "
                            f"matches {len(hits)} mutants")
    return problems


def sweep(found: list[Mutant]) -> list[Mutant]:
    reasons = {entry[:4]: entry[4] for entry in EQUIVALENT}
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pytest.ini", tree)
        (tree / "conftest.py").write_text(CONFTEST)
        timeouts = {}
        for tests in {TESTS[mutant.module] for mutant in found}:
            start = time.perf_counter()
            if run_tests(tree, tests, timeout=3600) != "survived":
                raise SystemExit(f"{' '.join(tests)} fail on the unmutated "
                                 f"tree")
            timeouts[tests] = max(60.0, 5 * (time.perf_counter() - start))
        for n, mutant in enumerate(found, start=1):
            if mutant.key() in reasons:
                print(f"[{n}/{len(found)}] equivalent  {mutant}  "
                      f"({reasons[mutant.key()]})", file=sys.stderr)
                continue
            path = tree / PACKAGE / f"{mutant.module}.py"
            original = path.read_text()
            path.write_text(mutated_source(mutant, original))
            try:
                tests = TESTS[mutant.module]
                outcome = run_tests(tree, tests, timeouts[tests])
            finally:
                path.write_text(original)
            print(f"[{n}/{len(found)}] {outcome:11} {mutant}",
                  file=sys.stderr, flush=True)
            if outcome == "survived":
                survivors.append(mutant)
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", metavar="MODULE:FUNCTION",
                        help="functions to mutate (default: all of TARGETS)")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and check EQUIVALENT; run "
                             "no tests")
    args = parser.parse_args(argv)
    targets = [t.partition(":")[::2] for t in args.targets] or TARGETS
    found = [m for module, qualname in targets
             for m in mutants(module, qualname)]
    if args.list:
        for mutant in found:
            print(mutant)
        problems = check_equivalents(
            [m for target in TARGETS for m in mutants(*target)])
        for problem in problems:
            print(f"EQUIVALENT entry {problem}", file=sys.stderr)
        print(f"{len(found)} mutants", file=sys.stderr)
        return 1 if problems else 0
    survivors = sweep(found)
    reasons = {entry[:4] for entry in EQUIVALENT}
    listed = sum(m.key() in reasons for m in found)
    print(f"{len(survivors)} of {len(found) - listed} mutants survived "
          f"({listed} listed as equivalent were not run):")
    for mutant in survivors:
        print(f"  {mutant}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
