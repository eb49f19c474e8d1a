"""Exact truncated Laurent series in q on a 1/24-integral exponent grid.

Exponents are stored as integers in units of 1/24, so eta-type prefactors
q^(delta/24) are exact.  Coefficients are exact rationals (Python int or
Fraction; integral values are normalised to int).  Every series carries
trunc24, the first unknown exponent: asking for a coefficient at or beyond
trunc24 is a hard error, never a silent zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

from .curves import factorize
from .errors import ExactnessError, SeriesError, TruncationError

Scalar = Union[int, Fraction]


def _norm(value) -> Scalar:
    """Normalise to int/Fraction; reject inexact types outright."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise ExactnessError(
        f"coefficients must be exact (int or Fraction), got {type(value).__name__}"
    )


def is_prime(n: int) -> bool:
    return factorize(n) == ((n, 1),)


def valuation(c: int, ell: int) -> int | None:
    """ell-adic valuation of the integer c; None (read: +infinity) for 0."""
    if -2 < ell < 2:
        raise SeriesError(f"no {ell}-adic valuation: |ell| must be at least 2")
    if c == 0:
        return None
    v = 0
    while c % ell == 0:
        c //= ell
        v += 1
    return v


def _check_prime(ell: int) -> None:
    if not is_prime(ell):
        raise SeriesError(f"{ell} is not prime")


class QSeries:
    """Sparse exact q-series: known coefficients live at exponents < trunc24.

    The canonical zero series has no stored entries.  Instances are treated
    as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_c", "trunc24")

    def __init__(self, entries: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]],
                 trunc24: int):
        items = entries.items() if isinstance(entries, Mapping) else entries
        t = int(trunc24)
        c: dict[int, Scalar] = {}
        for e, v in items:
            if e >= t:
                continue
            v = _norm(v)
            if v:
                c[int(e)] = v
        self._c = c
        self.trunc24 = t

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, trunc24: int) -> "QSeries":
        return cls({}, trunc24)

    @classmethod
    def constant(cls, value: Scalar, trunc24: int) -> "QSeries":
        return cls({0: value}, trunc24)

    @classmethod
    def monomial(cls, exponent24: int, trunc24: int, coeff: Scalar = 1) -> "QSeries":
        return cls({exponent24: coeff}, trunc24)

    @classmethod
    def from_q_coeffs(cls, coeffs: Iterable[Scalar], trunc24: int,
                      start: int = 0) -> "QSeries":
        """Build from integer-exponent coefficients a(start), a(start+1), ..."""
        return cls({24 * (start + i): v for i, v in enumerate(coeffs)}, trunc24)

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def offset24(self) -> int:
        """Lowest stored exponent; for the zero series, the truncation bound
        (everything below it is known to vanish)."""
        return min(self._c) if self._c else self.trunc24

    @property
    def is_integer_grid(self) -> bool:
        return all(e % 24 == 0 for e in self._c)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self._c.items())

    def leading(self) -> tuple[int, Scalar]:
        if not self._c:
            raise SeriesError("zero series has no leading term")
        e = min(self._c)
        return e, self._c[e]

    def coeff24(self, exponent24: int) -> Scalar:
        if exponent24 >= self.trunc24:
            raise TruncationError(
                f"coefficient at q^({exponent24}/24) is beyond truncation "
                f"q^({self.trunc24}/24)"
            )
        return self._c.get(exponent24, 0)

    def coeff_q(self, n: int) -> Scalar:
        """Coefficient of q^n (integer exponent)."""
        return self.coeff24(24 * n)

    def agrees_with(self, other: "QSeries") -> bool:
        """Exact equality on the overlap of the two known ranges."""
        t = min(self.trunc24, other.trunc24)
        keys = {e for e in self._c if e < t} | {e for e in other._c if e < t}
        return all(self._c.get(e, 0) == other._c.get(e, 0) for e in keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc24 == other.trunc24 and self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- ring operations -------------------------------------------------

    def _binop_add(self, other: "QSeries", sign: int) -> "QSeries":
        t = min(self.trunc24, other.trunc24)
        out = dict(self._c)
        for e, v in other._c.items():
            out[e] = out.get(e, 0) + sign * v
        return QSeries(out, t)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.trunc24)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._binop_add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.trunc24)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._binop_add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "QSeries":
        return QSeries({e: -v for e, v in self._c.items()}, self.trunc24)

    def scaled(self, factor: Scalar) -> "QSeries":
        factor = _norm(factor)
        if factor == 0:
            return QSeries.zero(self.trunc24)
        return QSeries({e: v * factor for e, v in self._c.items()}, self.trunc24)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # product coefficient at e is known iff every split of e lands in
        # both known ranges
        t = min(self.trunc24 + other.offset24, other.trunc24 + self.offset24)
        small, big = (self._c, other._c) if len(self._c) <= len(other._c) \
            else (other._c, self._c)
        big_keys = sorted(big)
        out: dict[int, Scalar] = {}
        for ea, ca in small.items():
            for eb in big_keys:
                e = ea + eb
                if e >= t:
                    break
                cb = big[eb]
                prev = out.get(e)
                out[e] = ca * cb if prev is None else prev + ca * cb
        return QSeries(out, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _norm(other)
            if other == 0:
                raise SeriesError("division by zero scalar")
            return self.scaled(Fraction(1, 1) / other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return _divide(self, other)

    def invert(self) -> "QSeries":
        if self.is_zero:
            raise SeriesError("non-invertible: zero series")
        one = QSeries.constant(1, self.trunc24 - self.offset24)
        return _divide(one, self)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int):
            raise SeriesError("series powers must be integers")
        if k == 0:
            return QSeries.constant(1, self.trunc24 - self.offset24)
        if k < 0:
            return self.invert() ** (-k)
        result = None
        base = self
        n = k
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- reindexing -------------------------------------------------------

    def shift(self, delta24: int) -> "QSeries":
        """Multiply by the exact monomial q^(delta24/24)."""
        return QSeries({e + delta24: v for e, v in self._c.items()},
                       self.trunc24 + delta24)

    def rescale(self, k: int) -> "QSeries":
        """Substitute q -> q^k (k >= 1)."""
        if k < 1:
            raise SeriesError("rescale factor must be >= 1")
        return QSeries({e * k: v for e, v in self._c.items()}, self.trunc24 * k)

    def truncate(self, trunc24: int) -> "QSeries":
        if trunc24 > self.trunc24:
            raise TruncationError(
                f"cannot extend truncation from {self.trunc24} to {trunc24}"
            )
        return QSeries(self._c, trunc24)

    # -- operators from the congruence toolkit ----------------------------

    def u_operator(self, ell: int) -> "QSeries":
        """Atkin-Lehner style U_ell: sum a(n) q^n  ->  sum a(ell*n) q^n.

        Requires integer exponents throughout; truncation drops to
        floor(trunc/ell) in integer-q units.
        """
        _check_prime(ell)
        if not self.is_integer_grid:
            raise SeriesError(
                "U_ell undefined on fractional-exponent series; "
                "absorb prefactor first"
            )
        if self.trunc24 % 24 != 0:
            raise SeriesError("U_ell requires truncation on the integer grid")
        out = {}
        for e, v in self._c.items():
            n = e // 24
            if n % ell == 0:
                out[24 * (n // ell)] = v
        return QSeries(out, 24 * ((self.trunc24 // 24) // ell))

    def progression_slice(self, lam: int, ell: int, alpha: int,
                          target: int = 1) -> "QSeries":
        """Extract coefficients on the class lam*n = target (mod ell^alpha)
        and compress exponents: output coefficient of q^m is a(ell^alpha*m + r)
        with r the unique residue solving the congruence.
        """
        _check_prime(ell)
        if alpha < 1:
            raise SeriesError("slice depth alpha must be >= 1")
        if gcd(lam, ell) != 1:
            raise SeriesError(
                f"gcd({lam}, {ell}) != 1: residue class is ill-defined"
            )
        if not self.is_integer_grid:
            raise SeriesError("slicing requires integer exponents")
        mod = ell ** alpha
        r = (pow(lam, -1, mod) * target) % mod
        out = {}
        for e, v in self._c.items():
            n = e // 24
            if n % mod == r:
                out[24 * ((n - r) // mod)] = v
        # first unknown integer exponent, then first unknown output index
        n_unknown = -((-self.trunc24) // 24)
        m_unknown = -(-(n_unknown - r) // mod)
        return QSeries(out, 24 * m_unknown)

    def padic_valuation(self, ell: int) -> "ValuationReport":
        """Minimum ell-adic valuation over stored coefficients.

        Every inspected coefficient must be an integer; min is None (read:
        +infinity) when the series is zero.
        """
        _check_prime(ell)
        best: int | None = None
        witness: int | None = None
        for e, c in self.terms():
            if not isinstance(c, int):
                raise ExactnessError(
                    f"non-integer coefficient {c} at q^({e}/24)"
                )
            v = valuation(c, ell)
            if best is None or v < best:
                best, witness = v, e
        return ValuationReport(prime=ell, min_valuation=best,
                               witness_exponent24=witness,
                               terms_checked=len(self._c))

    # -- rendering / serialisation ----------------------------------------

    def __repr__(self) -> str:
        return f"QSeries({self.format(max_terms=6)})"

    def format(self, max_terms: int = 12) -> str:
        if not self._c:
            return f"0 + O({_expstr(self.trunc24)})"
        parts = []
        for e, v in self.terms()[:max_terms]:
            parts.append(_termstr(e, v, first=not parts))
        if len(self._c) > max_terms:
            parts.append("+ ...")
        parts.append(f"+ O({_expstr(self.trunc24)})")
        return " ".join(parts)

    def to_json_obj(self) -> dict:
        return {
            "terms": [[e, str(Fraction(v).numerator), str(Fraction(v).denominator)]
                      for e, v in self.terms()],
            "trunc24": self.trunc24,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QSeries":
        entries = {int(e): Fraction(int(num), int(den))
                   for e, num, den in obj["terms"]}
        return cls(entries, int(obj["trunc24"]))


def _divide(a: QSeries, b: QSeries) -> QSeries:
    """Exact division a/b by forward substitution against b's sparse support."""
    if b.is_zero:
        raise SeriesError("non-invertible: zero series")
    eb0 = b.offset24
    b0 = b._c[eb0]
    ea0 = a.offset24
    rel_out = min(a.trunc24 - ea0, b.trunc24 - eb0)
    trunc = ea0 - eb0 + rel_out
    if a.is_zero:
        return QSeries.zero(trunc)
    sa = [e - ea0 for e in a._c]
    sb = sorted(e - eb0 for e in b._c)
    stride = 0
    for s in sa + sb:
        stride = gcd(stride, s)
    if stride == 0:
        stride = max(rel_out, 1)
    out: dict[int, Scalar] = {}
    bs = sb[1:]
    for k in range(0, rel_out, stride):
        acc = a._c.get(ea0 + k, 0)
        for s in bs:
            if s > k:
                break
            prev = out.get(k - s)
            if prev is not None:
                acc = acc - b._c[eb0 + s] * prev
        if acc:
            if b0 == 1:
                out[k] = acc
            elif b0 == -1:
                out[k] = -acc
            else:
                out[k] = Fraction(acc) / b0
    shifted = {ea0 - eb0 + k: v for k, v in out.items()}
    return QSeries(shifted, trunc)


@dataclass(frozen=True)
class ValuationReport:
    """Outcome of an ell-adic minimum-valuation scan over a series."""

    prime: int
    min_valuation: int | None  # None encodes +infinity (all terms vanish)
    witness_exponent24: int | None
    terms_checked: int

    def to_json_obj(self) -> dict:
        return {
            "prime": self.prime,
            "min_valuation": self.min_valuation,
            "witness_exponent24": self.witness_exponent24,
            "terms_checked": self.terms_checked,
        }


def _pentagonal(delta: int, n: int) -> list[tuple[int, int]]:
    """The terms (e, sign) of (q^delta; q^delta)_infinity with exponent
    e < n, in ascending order: Euler's pentagonal number theorem."""
    if delta < 1:
        raise SeriesError("delta must be a positive integer")
    terms = [(0, 1)] if n > 0 else []
    k = 1
    while (e := delta * (k * (3 * k - 1) // 2)) < n:
        sign = -1 if k & 1 else 1
        terms.append((e, sign))
        if e + delta * k < n:
            terms.append((e + delta * k, sign))
        k += 1
    return terms


def pochhammer_expansion(delta: int, trunc24: int) -> QSeries:
    """(q^delta; q^delta)_infinity via the pentagonal number theorem."""
    return QSeries({24 * e: sign for e, sign
                    in _pentagonal(delta, -(-trunc24 // 24))}, trunc24)


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


def pochhammer_product(exponents: tuple[tuple[int, int], ...],
                       trunc24: int) -> QSeries:
    """prod over (d, r) of (q^d; q^d)_infinity^r with leading term 1.

    The integer coefficients live on a dense list indexed by the integer
    exponent n < trunc24/24: the positive factors are scattered in first,
    while the product is still sparse, then each negative factor is divided
    out one power at a time.
    """
    n = max(-(-trunc24 // 24), 0)
    c = [1] + [0] * (n - 1) if n else []
    for d, r in exponents:
        if r > 0:
            terms = _pentagonal(d, n)[1:]
            for _ in range(r):
                c = _times_pochhammer(c, terms)
    for d, r in exponents:
        if r < 0:
            terms = _pentagonal(d, n)[1:]
            for _ in range(-r):
                _divide_pochhammer(c, terms)
    return QSeries(((24 * i, v) for i, v in enumerate(c) if v), trunc24)


def eta_expansion(delta: int, trunc24: int) -> QSeries:
    """q^(delta/24) * (q^delta; q^delta)_infinity; leading exponent24 = delta."""
    return pochhammer_expansion(delta, trunc24 - delta).shift(delta)


def _expstr(e24: int) -> str:
    if e24 % 24 == 0:
        n = e24 // 24
        return "1" if n == 0 else ("q" if n == 1 else f"q^{n}")
    f = Fraction(e24, 24)
    return f"q^({f.numerator}/{f.denominator})"

def _termstr(e24: int, v: Scalar, first: bool) -> str:
    sign = "-" if (v < 0) else ("" if first else "+")
    mag = -v if v < 0 else v
    base = _expstr(e24)
    if base == "1":
        body = str(mag)
    elif mag == 1:
        body = base
    else:
        body = f"{mag}*{base}"
    if first:
        return f"{sign}{body}"
    return f"{sign} {body}"
