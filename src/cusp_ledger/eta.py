"""Eta quotients on Gamma_0(N): validity, cusp orders, expansions, search.

An eta quotient is prod over delta | M of eta(delta*tau)^r_delta.  Validity
as a weight-0 modular function on Gamma_0(N) is decided by the classical
Newman/Ligozat conditions; exact orders at cusp classes come from Ligozat's
formula, normalised per local uniformiser (integral for valid quotients).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from math import gcd, isqrt, prod
from operator import eq, ge, gt, le, lt, mul, xor

from .curves import Value, divisors, enumerate_cusps, factorize
from .errors import EtaError, InternalInconsistencyError, TruncationError
from .series import QSeries, json_int, json_key, pochhammer_product


class EtaQuotient(Value):
    """Level M and exponent vector over the divisors of M (zeros dropped),
    stored as exponents: sorted ((delta, r_delta), ...)."""

    def __init__(self, level: int, exponents):
        _require_level(level)
        items = dict(exponents)
        cleaned = exponent_vector(items)
        for delta in items:
            if level % delta != 0:
                raise EtaError(f"divisor {delta} does not divide level {level}")
        vars(self).update(level=level, exponents=cleaned)

    @property
    def r(self) -> dict[int, int]:
        return dict(self.exponents)

    @property
    def degree24(self) -> int:
        """Leading exponent at infinity in 1/24 units: sum of delta * r_delta."""
        return sum(d * r for d, r in self.exponents)

    def is_trivial(self) -> bool:
        return not self.exponents

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return " * ".join(f"eta({d}t)^{r}" for d, r in self.exponents)

    def to_json_obj(self) -> dict:
        return {"M": self.level, "r": {str(d): r for d, r in self.exponents}}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EtaQuotient":
        return cls(json_int(obj["M"], "M"),
                   {json_key(d): json_int(r, "exponent")
                    for d, r in obj["r"].items()})


def exponent_vector(items: dict) -> tuple[tuple[int, int], ...]:
    """{delta: r_delta} as sorted pairs without zeros, each delta >= 1 and
    each r_delta an integer: one rule for eta quotients and prefactors."""
    for delta, r in items.items():
        if delta < 1:
            raise EtaError(f"divisor {delta} must be a positive integer")
        if not isinstance(r, int):
            raise EtaError(f"exponent for delta={delta} must be an integer")
    return tuple(sorted([(d, r) for d, r in items.items() if r != 0]))


class GammaValidation:
    """Per-condition verdict for validity as a weight-0 function on Gamma_0(N):
    sum r = 0; sum delta*r and sum (N/delta)*r = 0 mod 24 (integral orders at
    infinity and zero); prod delta^r the square of a rational."""

    def __init__(self, level: int, weight_zero: bool,
                 infinity_order_integral: bool, zero_order_integral: bool,
                 product_is_square: bool):
        self.level = level
        self.weight_zero = weight_zero
        self.infinity_order_integral = infinity_order_integral
        self.zero_order_integral = zero_order_integral
        self.product_is_square = product_is_square

    @property
    def valid(self) -> bool:
        return (self.weight_zero and self.infinity_order_integral
                and self.zero_order_integral and self.product_is_square)

    def failures(self) -> list[str]:
        out = []
        if not self.weight_zero:
            out.append("exponent sum is nonzero (not weight 0)")
        if not self.infinity_order_integral:
            out.append("order at infinity is not integral (mod-24 condition)")
        if not self.zero_order_integral:
            out.append("order at zero is not integral (mod-24 condition)")
        if not self.product_is_square:
            out.append("prod delta^r_delta is not a rational square")
        return out

    def to_json_obj(self) -> dict:
        return {**vars(self), "valid": self.valid}


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


def validate_on_gamma0(f: EtaQuotient, N: int) -> GammaValidation:
    """Newman/Ligozat conditions for f to define a function on X_0(N), each
    one linear in r over the rows of _newman_rows."""
    _require_sublevel(f, N)
    ds, cods, masks = _newman_rows(N)
    exps = f.r
    r = [exps.get(d, 0) for d in ds]
    odd = reduce(xor, compress(masks, [e & 1 for e in r]), 0)
    return GammaValidation(
        level=N, weight_zero=sum(r) == 0,
        infinity_order_integral=sum(map(mul, ds, r)) % 24 == 0,
        zero_order_integral=sum(map(mul, cods, r)) % 24 == 0,
        product_is_square=odd == 0)


def order_at_cusp(f: EtaQuotient, N: int, c: int) -> Fraction:
    """Ligozat's order of f at the cusp class with denominator c, normalised
    per local uniformiser: sum r gcd(c, delta)^2 (N/delta) / (24 gcd(c^2, N)).
    """
    _require_sublevel(f, N)
    if N % c != 0:
        raise EtaError(f"{c} is not a divisor of N={N}")
    return Fraction(sum(r * gcd(c, d) ** 2 * (N // d) for d, r in f.exponents),
                    24 * gcd(c * c, N))


class CuspOrderVector:
    """Exact orders of a quotient at every cusp class of X_0(N)."""

    def __init__(self, level: int, orders: tuple[tuple[int, Fraction], ...]):
        self.level = level
        self.orders = orders  # ((denominator, order), ...)

    def order(self, c: int) -> Fraction:
        for d, o in self.orders:
            if d == c:
                return o
        raise EtaError(f"no cusp class with denominator {c} at level {self.level}")

    def valence_sum(self) -> Fraction:
        counts = {cl.denominator: cl.count for cl in enumerate_cusps(self.level)}
        return sum((Fraction(counts[d]) * o for d, o in self.orders), Fraction(0))

    def to_json_obj(self) -> dict:
        return {"level": self.level,
                "orders": {str(d): str(o) for d, o in self.orders}}


def cusp_order_vector(f: EtaQuotient, N: int) -> CuspOrderVector:
    return CuspOrderVector(
        level=N,
        orders=tuple((c, order_at_cusp(f, N, c)) for c in divisors(N)),
    )


def expand_at_infinity(f: EtaQuotient, trunc24: int) -> QSeries:
    """q-expansion at the infinity cusp; leading exponent24 = sum delta*r."""
    rel = trunc24 - f.degree24
    if rel <= 0:
        raise TruncationError(
            "truncation too small to hold one term of the expansion"
        )
    return pochhammer_product(f.exponents, rel).shift(f.degree24)


def expand_at_zero(f: EtaQuotient, N: int, trunc24: int) -> tuple[Fraction, QSeries]:
    """Chart expansion at the zero cusp via tau -> -1/(N tau).

    Returns (scale, series): the function's pullback is scale * series with
    series a monic eta-quotient expansion.  The scale is the exact rational
    square root of prod (N/delta)^r_delta; the leading exponent24 of the
    series equals 24 * order_at_cusp(f, N, 1), which is asserted.
    """
    verdict = validate_on_gamma0(f, N)
    if not verdict.product_is_square:
        raise EtaError("multiplier is not rational: prod delta^r is not a square")
    if not verdict.valid:
        raise EtaError("not a weight-0 function on Gamma_0(N): "
                       + "; ".join(verdict.failures()))
    square = prod(Fraction(N, d) ** r for d, r in f.exponents)
    scale = Fraction(isqrt(square.numerator), isqrt(square.denominator))
    if scale * scale != square:
        raise InternalInconsistencyError(
            f"prod (N/delta)^r = {square} is not a square, but the Newman "
            f"square test passed")
    # the image of f under the involution: delta -> N/delta
    series = expand_at_infinity(
        EtaQuotient(N, {N // d: r for d, r in f.exponents}), trunc24)
    if not f.is_trivial():
        want = order_at_cusp(f, N, 1) * 24
        if series.offset24 != want:
            raise InternalInconsistencyError(
                f"cusp-zero leading exponent {series.offset24} disagrees with "
                f"Ligozat order {want}"
            )
    return scale, series


class OrderConstraint(Value):
    """One per-cusp-class constraint on a quotient's order; op: == <= >= < >"""

    def __init__(self, denominator: int, op: str, value: Fraction):
        vars(self).update(denominator=denominator, op=op, value=value)

    _OPS = {"==": eq, "<=": le, ">=": ge, "<": lt, ">": gt}

    def satisfied_by(self, order: Fraction) -> bool:
        try:
            return self._OPS[self.op](order, self.value)
        except KeyError:
            raise EtaError(f"unknown constraint operator {self.op!r}") from None

    def __str__(self) -> str:
        return f"ord[c={self.denominator}] {self.op} {self.value}"


def parse_constraints(text: str) -> list[OrderConstraint]:
    """Parse "1==-1,5>=1" style constraint lists (cusp denominator, op, value)."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        for op in ("==", "<=", ">=", "<", ">"):
            if op in chunk:
                c, v = chunk.split(op, 1)
                try:
                    out.append(OrderConstraint(int(c), op, Fraction(v)))
                except (ValueError, ZeroDivisionError) as exc:
                    raise EtaError(f"bad constraint {chunk!r}: {exc}") from None
                break
        else:
            raise EtaError(f"bad constraint {chunk!r}: no operator found")
    return out


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
            f = EtaQuotient(N, zip(ds, r_head + r_tail + (last,)))
            if all(c.satisfied_by(order_at_cusp(f, N, c.denominator))
                   for c in constraints):
                found.append(f)
    found.sort(key=lambda f: (sum(abs(r) for _, r in f.exponents), f.exponents))
    return found
