"""Known-answer checks that hold for every seed.

Each check reads an op's argv, exit code and output, and returns None when
the answer is right or a one-line reason when it is not.  Nothing here calls
into cusp_ledger: orders at cusps, validity conditions, residues and curve
invariants are recomputed from their textbook formulas, and family data is
read straight from the shipped catalog file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt

from workloads import BETA_WITNESS, divisors

# representations of the family targets over their bases: the recorded
# tower identities (p-5, p-7) and Rodseth's depth-1 identity (pd-5); they
# do not depend on the truncation
FAMILY_ANSWERS = {
    "family:p-5:L1": {(0, 1): 5},
    "family:p-5:L2": {(0, 1): 1575, (0, 2): 162500, (0, 3): 4921875,
                      (0, 4): 58593750, (0, 5): 244140625},
    "family:p-7:L1": {(0, 1): 7, (0, 2): 49},
    "family:pd-5:L1": {(0, 0): 1, (0, 1): 4},
}


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _valuation(c: int, p: int) -> int | None:
    if c == 0:
        return None
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def _prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, isqrt(p) + 1))]


def ligozat_order(r: dict[int, int], N: int, c: int) -> Fraction:
    """Order at the cusp 1/c of X_0(N), per local uniformiser:
    (N/24) sum_delta gcd(c, delta)^2 r_delta / (gcd(c, N/c) c delta)."""
    total = sum(Fraction(gcd(c, d) ** 2 * e, gcd(c, N // c) * c * d)
                for d, e in r.items())
    return Fraction(N, 24) * total


def _is_rational_square(x: Fraction) -> bool:
    a, b = x.numerator, x.denominator
    return a > 0 and isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


def _parse_constraints(text: str) -> list[tuple[int, str, Fraction]]:
    out = []
    for chunk in filter(None, text.split(",")):
        for op in ("==", "<=", ">=", "<", ">"):
            if op in chunk:
                c, v = chunk.split(op, 1)
                out.append((int(c), op, Fraction(v)))
                break
    return out


_CMP = {"==": Fraction.__eq__, "<=": Fraction.__le__, ">=": Fraction.__ge__,
        "<": Fraction.__lt__, ">": Fraction.__gt__}


def check_find_eta(argv, doc, families) -> str | None:
    N, bound = int(_opt(argv, "--level")), int(_opt(argv, "--bound"))
    constraints = _parse_constraints(_opt(argv, "--constraints", ""))
    for entry in doc["results"]:
        r = {int(d): e for d, e in entry["quotient"]["r"].items()}
        if any(N % d or abs(e) > bound for d, e in r.items()):
            return f"{r}: exponent outside the search box"
        product = Fraction(1)
        for d, e in r.items():
            product *= Fraction(d) ** e
        if (sum(r.values()) != 0
                or sum(d * e for d, e in r.items()) % 24
                or sum(N // d * e for d, e in r.items()) % 24
                or not _is_rational_square(product)):
            return f"{r}: not a weight-0 function on Gamma_0({N})"
        orders = {c: ligozat_order(r, N, c) for c in divisors(N)}
        reported = {int(c): Fraction(o) for c, o in entry["orders"].items()}
        if reported != orders:
            return f"{r}: reported orders differ from Ligozat's formula"
        for c, op, value in constraints:
            if not _CMP[op](orders[c], value):
                return f"{r}: order {orders[c]} at c={c} breaks {op}{value}"
    return None


def check_verify(argv, doc, families) -> str | None:
    fam = families[_opt(argv, "--family")]
    alpha, nmax = int(_opt(argv, "--alpha")), int(_opt(argv, "--nmax"))
    step = fam["schedule"][str(alpha)]
    mod = fam["prime"] ** step["modulus"]
    residue = pow(fam["lam"], -1, mod) * fam.get("target_residue", 1) % mod
    if doc["qualifying_count"] != len(range(residue, nmax + 1, mod)):
        return f"qualifying count {doc['qualifying_count']} is wrong"
    if "--beta" not in argv:
        if not doc["passed"] or doc["counterexample"] is not None:
            return "a theorem of the catalog schedule failed"
        return None
    n, v = BETA_WITNESS[fam["name"], alpha]
    ce = doc["counterexample"]
    if doc["passed"] or ce is None or (ce["n"], ce["valuation"]) != (n, v):
        return f"counterexample {ce}, expected n={n} with valuation {v}"
    if _valuation(int(ce["coefficient"]), fam["prime"]) != v:
        return "counterexample coefficient has the wrong valuation"
    return None


def check_reduce(argv, doc, families) -> str | None:
    target = _opt(argv, "--target")
    got = {(k, m): Fraction(int(num), int(den))
           for k, m, num, den in doc["coeffs"]}
    if target.startswith("poly:"):
        want = {(0, m): c for m, c in
                enumerate(map(int, target[5:].split(","))) if c}
    else:
        want = FAMILY_ANSWERS[target]
    if got != want:
        return f"representation {got}, expected {want}"
    if not doc["residual_is_zero"]:
        return "nonzero residual"
    prime = _opt(argv, "--prime")
    if prime is not None:
        vals = [_valuation(int(c), int(prime)) for c in got.values()]
        lowest = min((v for v in vals if v is not None), default=None)
        if doc["valuations"]["min_valuation"] != lowest:
            return f"min {prime}-adic valuation {lowest} not reported"
    return None


def _cusp_count(N: int) -> int:
    """sum over d | N of phi(gcd(d, N/d))."""
    return sum(sum(1 for k in range(1, g + 1) if gcd(k, g) == 1)
               for g in (gcd(d, N // d) for d in divisors(N)))


def check_profile(argv, doc, families) -> str | None:
    N = int(argv[-1])
    cusps = _cusp_count(N)
    index = N
    for p in _prime_factors(N):
        index = index * (p + 1) // p
    if (doc["cusp_count"], doc["index"]) != (cusps, index):
        return f"cusp count or index wrong at level {N}"
    return None


def check_classify(argv, doc, families) -> str | None:
    cusps = _cusp_count(int(_opt(argv, "--level")))
    want = ("Unclassified-Sporadic" if cusps % 2 else
            {2: "Classical", 4: "Localization"}.get(cusps,
                                                   "NoSystematicMethods"))
    if doc["difficulty_class"] != want:
        return f"class {doc['difficulty_class']}, expected {want}"
    return None


def check_tower(argv, doc, families) -> str | None:
    return None if doc["agree"] else "direct and recursive towers differ"


CHECKS = {"find-eta": check_find_eta, "verify": check_verify,
          "reduce": check_reduce, "profile": check_profile,
          "classify": check_classify, "tower": check_tower}


def command_argv(op) -> tuple[str, ...]:
    """The op's argv from the subcommand on (global flags dropped)."""
    return op.argv[2:] if op.argv[0] == "--jobs" else op.argv


def known_answer(op, code: int, out: str, err: str,
                 families: dict) -> str | None:
    """None if the op's exit code and output hold up, else the reason."""
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}: {err.strip()[-200:]}"
    argv = command_argv(op)
    if argv[0] == "reduce" and code == 1:
        # pole targets on the genus-1 basis: the gap at pole order 1
        ok = "Weierstrass gap hit at pole order 1" in err and not out
        return None if ok else f"expected the gap at order 1, got {err!r}"
    try:
        doc = json.loads(out)
        return CHECKS[argv[0]](argv, doc, families)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
