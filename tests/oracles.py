"""Independent brute-force oracles used to freeze expected values.

Nothing in here touches the package's series machinery: partition counts
come from direct dynamic programming, products from schoolbook polynomial
multiplication or from one pentagonal pass per factor (the package's
earlier Pochhammer kernel, kept here as the reference for its theta-series
kernel), theta-factor plans from the package's earlier one-at-a-time
planner, cusp/elliptic data from orbit counting on P^1(Z/N), and
eta-quotient validity from the rational number prod delta^r itself.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, isqrt


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by the classic coin-style DP (no pentagonal shortcut)."""
    dp = [0] * (n_max + 1)
    dp[0] = 1
    for part in range(1, n_max + 1):
        for s in range(part, n_max + 1):
            dp[s] += dp[s - part]
    return dp


def distinct_partition_counts(n_max: int) -> list[int]:
    """p_D(0..n_max): partitions into distinct parts."""
    dp = [0] * (n_max + 1)
    dp[0] = 1
    for part in range(1, n_max + 1):
        for s in range(n_max, part - 1, -1):
            dp[s] += dp[s - part]
    return dp


def colored_partition_counts(n_max: int, colors: int) -> list[int]:
    """Coefficients of 1/(q;q)^colors: partitions with parts in `colors` colors."""
    dp = [0] * (n_max + 1)
    dp[0] = 1
    for _ in range(colors):
        for part in range(1, n_max + 1):
            for s in range(part, n_max + 1):
                dp[s] += dp[s - part]
    return dp


def poly_mul(a: list, b: list, n_max: int) -> list:
    out = [0] * (n_max + 1)
    for i, x in enumerate(a):
        if x == 0 or i > n_max:
            continue
        for j, y in enumerate(b):
            if i + j > n_max:
                break
            if y:
                out[i + j] += x * y
    return out


def product_expansion(n_max: int, delta: int = 1) -> list[int]:
    """(q^delta; q^delta)_infinity by direct truncated multiplication."""
    out = [0] * (n_max + 1)
    out[0] = 1
    k = delta
    while k <= n_max:
        out = poly_mul(out, [1] + [0] * (k - 1) + [-1], n_max)
        k += delta
    return out


def binomial_inverse_power(k: int, n_max: int) -> list[int]:
    """Coefficients of (1-q)^(-k) from the binomial theorem."""
    return [comb(n + k - 1, k - 1) for n in range(n_max + 1)]


def elongated_diamond_counts(n_max: int) -> list[int]:
    """d_2(0..n_max): coefficients of (q^2;q^2)^2 / (q;q)^7, assembled from
    DP-counted colored partitions and direct polynomial products."""
    den = colored_partition_counts(n_max, 7)
    num = poly_mul(product_expansion(n_max, 2), product_expansion(n_max, 2), n_max)
    return poly_mul(num, den, n_max)


def _frobenius_counts(n_max: int, colors: int) -> list[int]:
    """Generalized Frobenius partition counts with the given color count,
    by direct enumeration.

    A symbol is a pair of rows of equal length r; a row is a set of distinct
    (value, color) pairs with value >= 0; the weight is r plus the sum of all
    values in both rows.
    """
    # rows[r][s] = number of r-element rows with value-sum s
    rows = [[0] * (n_max + 1) for _ in range(n_max + 2)]
    rows[0][0] = 1
    for value in range(n_max + 1):
        for _ in range(colors):
            for r in range(n_max, -1, -1):
                row = rows[r]
                nxt = rows[r + 1]
                for s in range(n_max - value, -1, -1):
                    if row[s]:
                        nxt[s + value] += row[s]
    out = [0] * (n_max + 1)
    for r in range(n_max + 1):
        for s1 in range(n_max + 1 - r):
            c1 = rows[r][s1]
            if c1 == 0:
                continue
            for s2 in range(n_max + 1 - r - s1):
                c2 = rows[r][s2]
                if c2:
                    out[r + s1 + s2] += c1 * c2
    return out


def frobenius_one_color_counts(n_max: int) -> list[int]:
    """cphi_1(0..n_max): must equal p(n); sanity anchor for the enumerator."""
    return _frobenius_counts(n_max, 1)


def frobenius_two_color_counts(n_max: int) -> list[int]:
    """cphi_2(0..n_max)."""
    return _frobenius_counts(n_max, 2)


# ---------------------------------------------------------------------------
# products of Pochhammer symbols, one pentagonal pass per factor
# ---------------------------------------------------------------------------

def pentagonal_terms(delta: int, n: int) -> list[tuple[int, int]]:
    """The terms (e, sign) of (q^delta; q^delta)_infinity with exponent
    e < n, in ascending order: Euler's pentagonal number theorem."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    terms = [(0, 1)] if n > 0 else []
    k = 1
    while (e := delta * (k * (3 * k - 1) // 2)) < n:
        sign = -1 if k & 1 else 1
        terms.append((e, sign))
        if e + delta * k < n:
            terms.append((e + delta * k, sign))
        k += 1
    return terms


def _times_pochhammer(c: list[int], terms: list[tuple[int, int]]) -> list[int]:
    """c * (q^d; q^d)_infinity, scattering the pentagonal terms (the ones
    past the constant) from the nonzero entries of c only."""
    n = len(c)
    out = c[:]
    for i, v in enumerate(c):
        if v:
            room = n - i
            for e, sign in terms:
                if e >= room:
                    break
                out[i + e] += v if sign > 0 else -v
    return out


def _divide_pochhammer(c: list[int], terms: list[tuple[int, int]]) -> None:
    """c / (q^d; q^d)_infinity in place, by the forward recurrence
    c[k] -= sum of sign * c[k - e] over the pentagonal terms (the ones past
    the constant).  Between consecutive exponents the set of terms with
    e <= k is fixed, so each segment runs with fixed lists."""
    plus: list[int] = []   # exponents whose term has sign -1: added
    minus: list[int] = []  # exponents whose term has sign +1: subtracted
    ends = [e for e, _ in terms[1:]] + [len(c)]
    for (e, sign), end in zip(terms, ends):
        (plus if sign < 0 else minus).append(e)
        for k in range(e, end):
            t = c[k]
            for o in plus:
                t += c[k - o]
            for o in minus:
                t -= c[k - o]
            c[k] = t


def pochhammer_by_passes(exponents, n: int) -> list[int]:
    """a(0..n-1) of prod (q^d; q^d)^r: the positive factors scattered in
    one pass per unit of r, then each negative factor divided out one power
    at a time."""
    c = [1] + [0] * (n - 1) if n > 0 else []
    for d, r in exponents:
        if r > 0:
            terms = pentagonal_terms(d, n)[1:]
            for _ in range(r):
                c = _times_pochhammer(c, terms)
    for d, r in exponents:
        if r < 0:
            terms = pentagonal_terms(d, n)[1:]
            for _ in range(-r):
                _divide_pochhammer(c, terms)
    return c


# The product forms of the kernel's theta series, by kind: Euler's (q;q),
# Jacobi's (q;q)^3, Gauss's psi(q), phi(q) and phi(-q), as ((m, r), ...) for
# prod (q^m; q^m)^r.
THETA_SHAPES = (((1, 1),), ((1, 3),), ((1, -1), (2, 2)),
                ((1, -2), (2, 5), (4, -2)), ((1, 2), (2, -1)))


def greedy_theta_factors(exponents) -> tuple[tuple[int, int, int], ...]:
    """prod (q^d; q^d)^r as theta factors (kind, d, power), one factor
    applied at a time: while some theta series (or its inverse) at some
    q -> q^d takes more than one pass off what is left as plain
    (q^d; q^d)^r, apply the one that takes the most, the first in kind,
    base and sign order among equals; what is left stays Euler's.  This is
    the package's earlier planner, kept as the reference for the one that
    applies a chosen factor in bulk."""
    rest: dict[int, int] = {}
    for d, r in exponents:
        rest[d] = rest.get(d, 0) + r
    rest = {d: r for d, r in rest.items() if r}
    chosen: dict[tuple[int, int], int] = {}
    while True:
        best, most = None, 1
        for kind in range(1, len(THETA_SHAPES)):
            shape = THETA_SHAPES[kind]
            for base in sorted({d // m for d in rest for m, _ in shape
                                if d % m == 0}):
                for sign in (1, -1):
                    saved = sum(abs(rest.get(base * m, 0))
                                - abs(rest.get(base * m, 0) - sign * r)
                                for m, r in shape)
                    if saved > most:
                        best, most = (kind, base, sign), saved
        if best is None:
            break
        kind, base, sign = best
        for m, r in THETA_SHAPES[kind]:
            if not (left := rest.get(base * m, 0) - sign * r):
                del rest[base * m]
            else:
                rest[base * m] = left
        chosen[kind, base] = chosen.get((kind, base), 0) + sign
    return tuple((kind, d, power) for (kind, d), power in chosen.items()
                 if power) + tuple((0, d, r) for d, r in sorted(rest.items()))


# ---------------------------------------------------------------------------
# group-theoretic oracles on P^1(Z/N)
# ---------------------------------------------------------------------------

def _units(N: int) -> list[int]:
    return [u for u in range(1, N) if gcd(u, N) == 1] or [1]


def _canon(c: int, d: int, N: int, units) -> tuple[int, int]:
    if N == 1:
        return (0, 0)
    return min(((u * c) % N, (u * d) % N) for u in units)


def p1_points(N: int) -> list[tuple[int, int]]:
    """Canonical representatives of P^1(Z/N)."""
    if N == 1:
        return [(0, 0)]
    units = _units(N)
    seen = set()
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1:
                continue
            seen.add(_canon(c, d, N, units))
    return sorted(seen)


def t_orbits(N: int) -> list[list[tuple[int, int]]]:
    """Orbits of (c:d) -> (c:c+d) on P^1(Z/N): one orbit per cusp of X_0(N)."""
    units = _units(N)
    remaining = set(p1_points(N))
    orbits = []
    while remaining:
        cur = next(iter(remaining))
        orbit = []
        while cur in remaining:
            remaining.remove(cur)
            orbit.append(cur)
            c, d = cur
            cur = _canon(c, (c + d) % N if N > 1 else 0, N, units)
        orbits.append(orbit)
    return orbits


def cusp_count_by_orbits(N: int) -> int:
    return len(t_orbits(N))


def cusp_data_by_orbits(N: int) -> dict[int, tuple[int, set[int]]]:
    """Per denominator class gcd(c, N): (number of orbits, set of orbit sizes)."""
    data: dict[int, tuple[int, set[int]]] = {}
    for orbit in t_orbits(N):
        c = gcd(orbit[0][0], N) if N > 1 else 1
        cnt, sizes = data.get(c, (0, set()))
        data[c] = (cnt + 1, sizes | {len(orbit)})
    return data


def elliptic_counts_by_fixed_points(N: int) -> tuple[int, int]:
    """(nu2, nu3) as fixed points of S and ST acting on P^1(Z/N)."""
    units = _units(N)
    nu2 = nu3 = 0
    for c, d in p1_points(N):
        if N == 1:
            nu2 += 1
            nu3 += 1
            continue
        if _canon(d % N, (-c) % N, N, units) == (c, d):
            nu2 += 1
        if _canon(d % N, (d - c) % N, N, units) == (c, d):
            nu3 += 1
    return nu2, nu3


# ---------------------------------------------------------------------------
# product-form fitting (used to certify catalog identities)
# ---------------------------------------------------------------------------

def product_form_exponents(coeffs: list, depth: int) -> dict[int, Fraction]:
    """Fit f = prod_d (1-q^d)^(-e_d), peeling one degree at a time.

    Exact rational arithmetic; coeffs[0] must be 1.  Returns {d: e_d} for
    d <= depth with e_d != 0.  The fit is exact through len(coeffs)-1 only
    if the remaining series after peeling `depth` degrees is 1.
    """
    assert coeffs[0] == 1
    n_max = len(coeffs) - 1
    cur = [Fraction(c) for c in coeffs]
    exps: dict[int, Fraction] = {}
    for d in range(1, min(depth, n_max) + 1):
        e = cur[d]
        if not e:
            continue
        exps[d] = e
        # multiply cur by (1 - q^d)^e: binomial series in q^d, exponent e
        bcoef = [Fraction(1)]
        k = 0
        while d * (k + 1) <= n_max:
            bcoef.append(bcoef[-1] * (e - k) / (k + 1) * -1)
            k += 1
        new = [Fraction(0)] * (n_max + 1)
        for i, x in enumerate(cur):
            if x:
                for k2, b in enumerate(bcoef):
                    j = i + d * k2
                    if j > n_max:
                        break
                    if b:
                        new[j] += x * b
        cur = new
    return exps


def peeled_remainder(coeffs: list, exps: dict[int, Fraction]) -> list[Fraction]:
    """Divide coeffs by prod (1-q^d)^(-e_d); remainder 1 certifies the fit."""
    n_max = len(coeffs) - 1
    cur = [Fraction(c) for c in coeffs]
    for d, e in exps.items():
        bcoef = [Fraction(1)]
        k = 0
        while d * (k + 1) <= n_max:
            bcoef.append(bcoef[-1] * (e - k) / (k + 1) * -1)
            k += 1
        new = [Fraction(0)] * (n_max + 1)
        for i, x in enumerate(cur):
            if x:
                for k2, b in enumerate(bcoef):
                    j = i + d * k2
                    if j > n_max:
                        break
                    if b:
                        new[j] += x * b
        cur = new
    return cur


# ---------------------------------------------------------------------------
# eta quotients on Gamma_0(N), by brute force
# ---------------------------------------------------------------------------

def eta_gamma0_verdict(N: int, r: dict[int, int]) -> dict:
    """Newman/Ligozat verdict for prod eta(delta tau)^r_delta on Gamma_0(N),
    shaped like GammaValidation's fields followed by its valid: prod delta^r
    as a Fraction with an exact square test, and the two mod-24 sums."""
    num = den = 1
    for d, e in r.items():
        if e > 0:
            num *= d ** e
        else:
            den *= d ** -e
    prod = Fraction(num, den)
    verdict = {
        "level": N,
        "weight_zero": sum(r.values()) == 0,
        "infinity_order_integral": sum(d * e for d, e in r.items()) % 24 == 0,
        "zero_order_integral": sum(N // d * e for d, e in r.items()) % 24 == 0,
        "product_is_square": (isqrt(prod.numerator) ** 2 == prod.numerator
                              and isqrt(prod.denominator) ** 2
                              == prod.denominator),
    }
    verdict["valid"] = all(verdict[k] for k in list(verdict)[1:])
    return verdict


@lru_cache(maxsize=None)
def _valid_eta_exponents(N: int, bound: int) -> tuple[dict[int, int], ...]:
    """Every exponent vector in the full box |r_delta| <= bound over the
    divisors of N that the oracle verdict calls valid.  Vectors of nonzero
    weight or non-integral order at infinity, which the verdict rejects
    anyway, are skipped before it is asked."""
    ds = [d for d in range(1, N + 1) if N % d == 0]
    return tuple(dict(zip(ds, r))
                 for r in product(range(-bound, bound + 1), repeat=len(ds))
                 if sum(r) == 0 and sum(map(operator.mul, ds, r)) % 24 == 0
                 and eta_gamma0_verdict(N, dict(zip(ds, r)))["valid"])


def ligozat_order(N: int, r: dict[int, int], c: int) -> Fraction:
    """Ligozat's order at the cusp class with denominator c, one Fraction
    term per divisor: (N / (24 gcd(c^2, N))) * sum r * gcd(c, delta)^2 / delta."""
    return Fraction(N, 24 * gcd(c * c, N)) * sum(
        Fraction(e * gcd(c, d) ** 2, d) for d, e in r.items())


_OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
        "<": operator.lt, ">": operator.gt}


def eta_search_by_brute_force(N: int, constraints, bound: int) -> list:
    """Exponent tuples ((delta, r), ...) with zeros dropped of the valid
    quotients with |r| <= bound whose Ligozat orders meet every (c, op, value)
    constraint, simplest (smallest sum |r|) first."""
    out = []
    for r in _valid_eta_exponents(N, bound):
        if all(_OPS[op](ligozat_order(N, r, c), value)
               for c, op, value in constraints):
            out.append(tuple((d, e) for d, e in r.items() if e))
    out.sort(key=lambda ex: (sum(abs(e) for _, e in ex), ex))
    return out
