"""Eta quotients on Gamma_0(N): validity, cusp orders, expansions, search.

An eta quotient is prod over delta | M of eta(delta*tau)^r_delta.  Validity
as a weight-0 modular function on Gamma_0(N) is decided by the classical
Newman/Ligozat conditions; exact orders at cusp classes come from Ligozat's
formula, normalised per local uniformiser (integral for valid quotients).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import eq, ge, gt, le, lt, mul

from .curves import Record, Value, divisors, enumerate_cusps, factorize
from .errors import (EtaError, InternalInconsistencyError, TruncationError,
                     check_long, shown)
from .series import QSeries, pochhammer_product


class EtaQuotient(Value):
    """Level M and exponent vector over the divisors of M (zeros dropped),
    stored as exponents: sorted ((delta, r_delta), ...).  The vector comes
    as a dict or as pairs, where a divisor given twice is refused."""

    _fields = ("level", "exponents")

    def __init__(self, level: int, exponents):
        r = {}
        for d, e in (exponents.items() if isinstance(exponents, dict)
                     else exponents):
            if d in r:
                raise EtaError(f"divisor {d} given twice")
            r[d] = e
        vars(self).update(level=level,
                          exponents=exponent_vector(r.items(), level))

    @classmethod
    def _known(cls, level: int, exponents: tuple) -> "EtaQuotient":
        """The quotient of pairs known to be sorted, nonzero and over divisors
        of level (a search result, or exponent_vector's), unchecked."""
        self = cls.__new__(cls)
        vars(self).update(level=level, exponents=exponents)
        return self

    @property
    def degree24(self) -> int:
        """Leading exponent at infinity in 1/24 units: sum of delta * r_delta."""
        return sum(d * r for d, r in self.exponents)

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return " * ".join(f"eta({d}t)^{r}" for d, r in self.exponents)

    def to_json_obj(self) -> dict:
        return {"M": self.level, "r": {str(d): r for d, r in self.exponents}}


def exponent_vector(pairs, level: int | None = None
                    ) -> tuple[tuple[int, int], ...]:
    """The pairs (delta, r_delta) as sorted pairs without zeros, read in
    one pass: one rule for eta quotients, prefactors and multipliers, built
    in code or read from a catalog.  Each r_delta must be an integer (no
    bool), refused as it comes; then, naming the first such divisor, a
    delta below 1 is refused and, given a level, a level below 1 and a
    delta, zero exponents' included, that does not divide the level."""
    out, low, stray = [], [], []
    for d, r in pairs:
        if type(r) is not int:
            check_long(r, "an exponent")
            raise EtaError(f"exponent must be an integer, got {shown(r)}")
        if d < 1:
            low.append(d)
        elif level is not None and level % d:
            stray.append(d)
        if r:
            out.append((d, r))
    if low:
        raise EtaError(f"divisor {low[0]} must be a positive integer")
    if level is not None:
        _require_level(level)
        if stray:
            raise EtaError(f"divisor {stray[0]} does not divide level {level}")
    return tuple(sorted(out))


class GammaValidation(Record):
    """Per-condition verdict for validity as a weight-0 function on Gamma_0(N):
    sum r = 0; sum delta*r and sum (N/delta)*r = 0 mod 24 (integral orders at
    infinity and zero); prod delta^r the square of a rational."""

    _fields = ("level", "weight_zero", "infinity_order_integral",
               "zero_order_integral", "product_is_square")

    @property
    def valid(self) -> bool:
        return (self.weight_zero and self.infinity_order_integral
                and self.zero_order_integral and self.product_is_square)


def _require_level(N: int) -> None:
    if N < 1:
        raise EtaError(f"level must be positive, got {N}")


def _require_sublevel(f: EtaQuotient, N: int) -> None:
    _require_level(N)
    if N % f.level != 0:
        raise EtaError(f"quotient level {f.level} does not divide N={N}")


@lru_cache(maxsize=None)
def _newman_rows(N: int) -> tuple[tuple[int, ...], ...]:
    """Columns over the divisors d of N, ascending: d, N/d, and a bitmask of
    the primes of N that divide d to an odd power."""
    bit = {p: 1 << i for i, (p, _) in enumerate(factorize(N))}
    ds = divisors(N)
    masks = [sum(bit[p] for p, m in factorize(d) if m % 2) for d in ds]
    return tuple(ds), tuple(N // d for d in ds), tuple(masks)


def newman_sums(f: EtaQuotient, N: int) -> tuple[int, int, int, int]:
    """The Newman/Ligozat conditions' left sides for f at level N, each one
    linear in r and summed over f's exponents: sum r, sum delta*r
    (f.degree24), sum (N/delta)*r (24 times Ligozat's order at the zero
    cusp, c = 1) and the bitmask, from _newman_rows, of the primes of N
    that divide prod delta^r to an odd power.  Unchecked: they are the
    conditions' sides only when f's level divides N (a delta that does
    not divide N adds no bit)."""
    ds, _, masks = _newman_rows(N)
    weight = inf = zero = odd = 0
    for d, e in f.exponents:
        weight += e
        inf += d * e
        zero += N // d * e
        if e & 1 and N % d == 0:
            odd ^= masks[ds.index(d)]
    return weight, inf, zero, odd


def validate_on_gamma0(f: EtaQuotient, N: int) -> GammaValidation:
    """Newman/Ligozat conditions for f to define a function on X_0(N)."""
    _require_sublevel(f, N)
    weight, inf, zero, odd = newman_sums(f, N)
    return GammaValidation(N, weight == 0, inf % 24 == 0, zero % 24 == 0,
                           odd == 0)


def _over_divisors(f: EtaQuotient, ds) -> list[int]:
    """f's exponent vector as one entry per divisor in ds, zeros included."""
    exps = dict(f.exponents)
    return [exps.get(d, 0) for d in ds]


def _ligozat_rows(N: int, ds, classes) -> list[tuple[tuple[int, ...], int]]:
    """Ligozat's order map at level N, as one integer row per cusp class c in
    classes: (row, den) with row[i] = gcd(c, d_i)^2 * N/d_i over divisors
    ds of N, and den = 24 gcd(c^2, N).  The order at c, normalised per
    local uniformiser, of exponents r over ds is (row . r) / den."""
    return [(tuple([gcd(c, d) ** 2 * (N // d) for d in ds]),
             24 * gcd(c * c, N)) for c in classes]


def order_at_cusp(f: EtaQuotient, N: int, c: int) -> Fraction:
    """Ligozat's order of f at the cusp class with denominator c, read off
    that class's row (_ligozat_rows) over the divisors f uses."""
    _require_sublevel(f, N)
    if N % c != 0:
        raise EtaError(f"{c} is not a divisor of N={N}")
    [(row, den)] = _ligozat_rows(N, [d for d, _ in f.exponents], (c,))
    return Fraction(sum(map(mul, row, [r for _, r in f.exponents])), den)


class CuspOrderVector(Record):
    """Exact orders of a quotient at every cusp class of X_0(N)."""

    _fields = ("level", "orders")  # orders: ((denominator, order), ...)

    def order(self, c: int) -> Fraction:
        for d, o in self.orders:
            if d == c:
                return o
        raise EtaError(f"no cusp class with denominator {c} at level {self.level}")

    def valence_sum(self) -> Fraction:
        counts = {cl.denominator: cl.count for cl in enumerate_cusps(self.level)}
        return sum((Fraction(counts[d]) * o for d, o in self.orders), Fraction(0))


# the unsigned native formats of 8-, 16-, 32- and 64-bit slots, with their
# sizes in bytes
_SLOT_CODES = [(c, memoryview(bytes(8)).cast(c).itemsize) for c in "BHIQ"]

# the fewest quotients for which packing them (_packed_products) beats one
# dot product per quotient and row
_PACK_FROM = 8


def _packed_products(quotients, ds, rows):
    """Each row dotted with the exponents (over ds) of every quotient at
    once, as one list per row, or None when an order needs more than 64
    bits.  The exponents of one divisor over all quotients, each raised by
    lift, the largest |r|, to be nonnegative, are the slots of one integer,
    W bits a slot with W = 8, 16, 32 or 64 wide enough for every order; a
    row is one sum of products of those integers, and its slots are the
    numerators."""
    lift = max([abs(e) for f in quotients for _, e in f.exponents], default=0)
    top = lift * max(sum(row) for row, _ in rows)  # bounds |row . r|
    slot = next(((c, size) for c, size in _SLOT_CODES
                 if top < 1 << 8 * size - 1), None)
    if slot is None:
        return None
    (code, size), n, order = slot, len(quotients), sys.byteorder
    column = {d: memoryview(bytearray(lift.to_bytes(size, order) * n))
              .cast(code) for d in ds}
    for j, f in enumerate(quotients):
        for d, e in f.exponents:
            column[d][j] = e + lift
    packed = [int.from_bytes(column[d], order) for d in ds]
    ones = int.from_bytes((1).to_bytes(size, order) * n, order)
    half = ones << 8 * size - 1
    columns = []
    for row, _ in rows:
        # each slot holds its numerator plus 2^(W-1), in [0, 2^W): no slot
        # borrows, and flipping each top bit leaves two's complement
        value = sum(map(mul, row, packed)) - lift * sum(row) * ones + half
        columns.append(memoryview((value ^ half).to_bytes(n * size, order))
                       .cast(code.lower()).tolist())
    return columns


def cusp_order_numerators(quotients, N: int):
    """Ligozat's orders of each quotient at every cusp class of X_0(N), in
    integers: (classes, columns), with classes ((c, den), ...) over the
    divisors c of N and columns one list per class, whose j-th entry is
    the row of that class (_ligozat_rows) dotted with the exponents of
    quotients[j]; the order is that over den.  The rows are built only
    when there is a quotient to read.  From _PACK_FROM quotients on, each
    row is dotted with all of them at once (_packed_products)."""
    for f in quotients:
        _require_sublevel(f, N)
    if not quotients:
        return [], []
    ds = divisors(N)
    rows = _ligozat_rows(N, ds, ds)
    columns = (_packed_products(quotients, ds, rows)
               if len(quotients) >= _PACK_FROM else None)
    if columns is None:  # few quotients, or orders past 64-bit slots
        dense = [_over_divisors(f, ds) for f in quotients]
        columns = [[sum(map(mul, row, r)) for r in dense] for row, _ in rows]
    return [(c, den) for c, (_, den) in zip(ds, rows)], columns


def cusp_order_bounds(quotients, N: int) -> CuspOrderVector:
    """The least order of the quotients at every cusp class of X_0(N), each
    class's least integer of cusp_order_numerators over its denominator:
    one quotient's orders, or lower bounds on the orders of a sum of them.
    No quotient gives no classes."""
    classes, columns = cusp_order_numerators(quotients, N)
    return CuspOrderVector(N, tuple([(c, Fraction(min(column), den)) for
                                     (c, den), column in zip(classes, columns)]))


def cusp_order_vector(f: EtaQuotient, N: int) -> CuspOrderVector:
    return cusp_order_bounds([f], N)


def require_expandable(f: EtaQuotient, trunc24: int) -> None:
    """Refuse a truncation at or below f's leading exponent at infinity."""
    if f.degree24 >= trunc24:
        raise TruncationError(
            "truncation too small to hold one term of the expansion")


def expand_at_infinity(f: EtaQuotient, trunc24: int) -> QSeries:
    """q-expansion at the infinity cusp; leading exponent24 = sum delta*r."""
    require_expandable(f, trunc24)
    return pochhammer_product(f.exponents, trunc24 - f.degree24).shift(
        f.degree24)


def require_on_gamma0(f: EtaQuotient, N: int) -> None:
    """Refuse f unless it is a weight-0 function on Gamma_0(N)."""
    v = validate_on_gamma0(f, N)
    if not v.product_is_square:
        raise EtaError("multiplier is not rational: prod delta^r is not a square")
    if not v.valid:
        raise EtaError(f"not a weight-0 function on Gamma_0({N}): " + "; ".join(
            why for ok, why in (
                (v.weight_zero, "exponent sum is nonzero (not weight 0)"),
                (v.infinity_order_integral,
                 "order at infinity is not integral (mod-24 condition)"),
                (v.zero_order_integral,
                 "order at zero is not integral (mod-24 condition)"))
            if not ok))


def zero_cusp_image(f: EtaQuotient, N: int) -> tuple[Fraction, EtaQuotient]:
    """(scale, image): the pullback of f under tau -> -1/(N tau) is scale
    times the eta quotient image, f under delta -> N/delta.

    f must be a weight-0 function on Gamma_0(N); the scale is the exact
    rational square root of prod (N/delta)^r_delta.
    """
    require_on_gamma0(f, N)
    square = prod(Fraction(N, d) ** r for d, r in f.exponents)
    scale = Fraction(isqrt(square.numerator), isqrt(square.denominator))
    if scale * scale != square:
        raise InternalInconsistencyError(
            f"prod (N/delta)^r = {square} is not a square, but the Newman "
            f"square test passed")
    return scale, EtaQuotient(N, {N // d: r for d, r in f.exponents})


def zero_cusp_checked(f: EtaQuotient, N: int, series: QSeries) -> QSeries:
    """series, the expansion of f's zero-cusp image, once its leading
    exponent24 is asserted to be 24 * order_at_cusp(f, N, 1)."""
    want = order_at_cusp(f, N, 1) * 24
    if series.offset24 != want:
        raise InternalInconsistencyError(
            f"cusp-zero leading exponent {series.offset24} disagrees with "
            f"Ligozat order {want}")
    return series


def expand_at_zero(f: EtaQuotient, N: int, trunc24: int) -> tuple[Fraction, QSeries]:
    """Chart expansion at the zero cusp via tau -> -1/(N tau).

    Returns (scale, series): the function's pullback is scale * series with
    series the monic expansion of zero_cusp_image; the leading exponent24
    of the series equals 24 * order_at_cusp(f, N, 1), which is asserted.
    """
    scale, image = zero_cusp_image(f, N)
    return scale, zero_cusp_checked(f, N, expand_at_infinity(image, trunc24))


class OrderConstraint(Value):
    """One per-cusp-class constraint on a quotient's order; op: == <= >= < >"""

    _fields = ("denominator", "op", "value")


ORDER_OPS = {"==": eq, "<=": le, ">=": ge, "<": lt, ">": gt}


MAX_SEARCH_BOX = 10 ** 7  # full box (2*bound+1)^(k-1) one search may span


def _keyed(rows, r_range):
    """Every exponent vector r over `rows`, ((a, b, mask), ...) one per
    divisor, with entries in r_range, as (r, sum r, key): the key is
    (sum a*r mod 24, sum b*r mod 24, XOR of the masks of the odd entries).
    Built one divisor at a time, so a vector costs O(1) and memory O(len)."""
    if not rows:
        yield (), 0, (0, 0, 0)
        return
    a, b, mask = rows[0]
    for r, s, (ka, kb, km) in _keyed(rows[1:], r_range):
        for e in r_range:
            yield ((e,) + r, s + e, ((ka + a * e) % 24, (kb + b * e) % 24,
                                     km ^ mask if e & 1 else km))


def search_eta_quotients(N: int, constraints: list[OrderConstraint],
                         bound: int) -> list[EtaQuotient]:
    """Every weight-0 quotient on Gamma_0(N) with |r_delta| <= bound that
    passes the Newman conditions and meets every order constraint; sorted
    simplest (smallest sum |r|) first.

    Weight 0 fixes the last exponent, r_N = -(sum of the others).  The
    other three conditions are then linear over the first k-1 divisors, with
    rows d - N, N/d - 1 and mask(d) XOR mask(N) (see validate_on_gamma0).
    Meet in the middle: index every vector over the first (k-1)//2 divisors
    by its key, and look each vector over the rest up by its negated key.
    A match is a valid quotient once |r_N| <= bound, so the cost is about
    side^((k-1)//2) + side^ceil((k-1)/2) plus the matches, not side^(k-1).
    Each constraint is compiled to integers off its Ligozat row, and tested
    on the raw exponent tuple: ord_c op p/q is (row . r) * q op p * den.
    Only a returned vector becomes an EtaQuotient, built without rechecking
    what the search guarantees (EtaQuotient._known).
    An empty result is not an error; a full box of more than MAX_SEARCH_BOX
    candidates is.
    """
    _require_level(N)
    if bound < 1:
        raise EtaError("search bound must be >= 1")
    ds, cods, masks = _newman_rows(N)
    side, dim = 2 * bound + 1, len(ds) - 1
    if side ** dim > MAX_SEARCH_BOX:
        raise EtaError(
            f"search box of {side}^{dim} candidates exceeds the limit of "
            f"{MAX_SEARCH_BOX}; lower the bound or the level")
    for cons in constraints:
        if cons.denominator not in ds:
            raise EtaError(
                f"constraint references denominator {cons.denominator} "
                f"which does not divide N={N}")
        if cons.op not in ORDER_OPS:
            raise EtaError(f"unknown constraint operator {cons.op!r}")
    tests = [(row, ORDER_OPS[cons.op], cons.value.denominator,
              cons.value.numerator * den)
             for cons, (row, den) in zip(constraints, _ligozat_rows(
                 N, ds, [cons.denominator for cons in constraints]))]
    rows = [(d - N, c - 1, m ^ masks[-1])
            for d, c, m in zip(ds[:-1], cods, masks)]
    h, r_range = dim // 2, range(-bound, bound + 1)
    index: dict[tuple, list] = {}
    for r, s, key in _keyed(rows[:h], r_range):
        index.setdefault(key, []).append((r, s))
    found = []
    for r_tail, s_tail, key in _keyed([(-a, -b, m) for a, b, m in rows[h:]],
                                      r_range):
        for r_head, s_head in index.get(key, ()):
            last = -s_head - s_tail
            if abs(last) > bound:
                continue
            r = r_head + r_tail + (last,)
            if all(op(sum(map(mul, row, r)) * q, target)
                   for row, op, q, target in tests):
                found.append((sum(map(abs, r)),
                              tuple([(d, e) for d, e in zip(ds, r) if e])))
    found.sort()
    known = EtaQuotient._known
    return [known(N, exponents) for _, exponents in found]
