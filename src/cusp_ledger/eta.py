"""Eta quotients on Gamma_0(N): validity, cusp orders, expansions, search.

An eta quotient is prod over delta | M of eta(delta*tau)^r_delta.  Validity
as a weight-0 modular function on Gamma_0(N) is decided by the classical
Newman/Ligozat conditions; exact orders at cusp classes come from Ligozat's
formula, normalised per local uniformiser (integral for valid quotients).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, product
from math import gcd, isqrt
from operator import mul, xor

from .curves import divisors, enumerate_cusps, factorize
from .errors import EtaError, InternalInconsistencyError, TruncationError
from .series import QSeries, pochhammer_product


@dataclass(frozen=True)
class EtaQuotient:
    """Level M and exponent vector over the divisors of M (zeros dropped)."""

    level: int
    exponents: tuple[tuple[int, int], ...]  # sorted ((delta, r_delta), ...)

    def __init__(self, level: int, exponents):
        _require_level(level)
        items = dict(exponents)
        for delta, r in items.items():
            if level % delta != 0:
                raise EtaError(f"divisor {delta} does not divide level {level}")
            if not isinstance(r, int):
                raise EtaError(f"exponent for delta={delta} must be an integer")
        cleaned = tuple(sorted((d, r) for d, r in items.items() if r != 0))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "exponents", cleaned)

    @property
    def r(self) -> dict[int, int]:
        return dict(self.exponents)

    @property
    def exponent_sum(self) -> int:
        """Sum of all exponents; zero means weight 0."""
        return sum(r for _, r in self.exponents)

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
        return cls(int(obj["M"]), {int(d): int(r) for d, r in obj["r"].items()})


@dataclass(frozen=True)
class GammaValidation:
    """Per-condition verdict for validity as a weight-0 function on Gamma_0(N)."""

    level: int
    weight_zero: bool            # sum r = 0
    infinity_order_integral: bool  # sum delta*r = 0 (mod 24)
    zero_order_integral: bool      # sum (N/delta)*r = 0 (mod 24)
    product_is_square: bool        # prod delta^r is the square of a rational

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
        return {
            "level": self.level,
            "weight_zero": self.weight_zero,
            "infinity_order_integral": self.infinity_order_integral,
            "zero_order_integral": self.zero_order_integral,
            "product_is_square": self.product_is_square,
            "valid": self.valid,
        }


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


def _newman_conditions(N: int, r):
    """The four Newman/Ligozat conditions, linear in r (one exponent per
    divisor of N, ascending), each zero exactly when it holds: sum r,
    sum d*r mod 24, sum (N/d)*r mod 24, and the XOR of the masks of odd r.
    Yielded lazily, so any() stops at the first that fails."""
    ds, cods, masks = _newman_rows(N)
    yield sum(r)
    yield sum(map(mul, ds, r)) % 24
    yield sum(map(mul, cods, r)) % 24
    yield reduce(xor, compress(masks, [e & 1 for e in r]), 0)


def validate_on_gamma0(f: EtaQuotient, N: int) -> GammaValidation:
    """Newman/Ligozat conditions for f to define a function on X_0(N)."""
    _require_sublevel(f, N)
    r = f.r
    weight, inf, zero, odd = _newman_conditions(
        N, [r.get(d, 0) for d in _newman_rows(N)[0]])
    return GammaValidation(level=N, weight_zero=weight == 0,
                           infinity_order_integral=inf == 0,
                           zero_order_integral=zero == 0,
                           product_is_square=odd == 0)


def order_at_cusp(f: EtaQuotient, N: int, c: int) -> Fraction:
    """Ligozat's order of f at the cusp class with denominator c, normalised
    per local uniformiser: (N / (24 gcd(c^2, N))) * sum r * gcd(c, delta)^2 / delta.
    """
    _require_sublevel(f, N)
    if N % c != 0:
        raise EtaError(f"{c} is not a divisor of N={N}")
    acc = Fraction(0)
    for d, r in f.exponents:
        acc += Fraction(r * gcd(c, d) ** 2, d)
    return Fraction(N, 24 * gcd(c * c, N)) * acc


@dataclass(frozen=True)
class CuspOrderVector:
    """Exact orders of a quotient at every cusp class of X_0(N)."""

    level: int
    orders: tuple[tuple[int, Fraction], ...]  # ((denominator, order), ...)

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


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x <= 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def conjugate_quotient(f: EtaQuotient, N: int) -> EtaQuotient:
    """Image of f under the level involution tau -> -1/(N tau): delta -> N/delta."""
    _require_sublevel(f, N)
    return EtaQuotient(N, {N // d: r for d, r in f.exponents})


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
    multiplier = Fraction(1)
    for d, r in f.exponents:
        multiplier *= Fraction(N, d) ** r
    scale = _fraction_sqrt(multiplier)
    if scale is None:
        raise EtaError("multiplier is not rational: prod delta^r is not a square")
    series = expand_at_infinity(conjugate_quotient(f, N), trunc24)
    if not f.is_trivial():
        want = order_at_cusp(f, N, 1) * 24
        if series.offset24 != want:
            raise InternalInconsistencyError(
                f"cusp-zero leading exponent {series.offset24} disagrees with "
                f"Ligozat order {want}"
            )
    return scale, series


@dataclass(frozen=True)
class OrderConstraint:
    """One per-cusp-class constraint on a quotient's order."""

    denominator: int
    op: str  # one of == <= >= < >
    value: Fraction

    _OPS = {
        "==": lambda a, b: a == b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
    }

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
                except ValueError as exc:
                    raise EtaError(f"bad constraint {chunk!r}: {exc}") from None
                break
        else:
            raise EtaError(f"bad constraint {chunk!r}: no operator found")
    return out


def localizer_constraints(N: int) -> list[OrderConstraint]:
    """Constraints defining a localizer: pole only at the zero cusp, strictly
    positive order at every other class."""
    out = [OrderConstraint(1, "<", Fraction(0))]
    for c in divisors(N):
        if c != 1:
            out.append(OrderConstraint(c, ">=", Fraction(1)))
    return out


def search_eta_quotients(N: int, constraints: list[OrderConstraint],
                         bound: int) -> list[EtaQuotient]:
    """Exhaustive scan of weight-0 quotients on Gamma_0(N) with |r_delta| <= bound
    meeting every order constraint; sorted simplest (smallest sum |r|) first.

    The last exponent is fixed by weight 0; a candidate becomes an
    EtaQuotient only once it passes the Newman conditions.  An empty result
    is not an error.
    """
    _require_level(N)
    if bound < 1:
        raise EtaError("search bound must be >= 1")
    ds = divisors(N)
    for cons in constraints:
        if cons.denominator not in ds:
            raise EtaError(
                f"constraint references denominator {cons.denominator} "
                f"which does not divide N={N}")
    found = []
    for head in product(range(-bound, bound + 1), repeat=len(ds) - 1):
        r = head + (-sum(head),)
        if abs(r[-1]) > bound or any(_newman_conditions(N, r)):
            continue
        f = EtaQuotient(N, zip(ds, r))
        if all(c.satisfied_by(order_at_cusp(f, N, c.denominator))
               for c in constraints):
            found.append(f)
    found.sort(key=lambda f: (sum(abs(r) for _, r in f.exponents), f.exponents))
    return found
