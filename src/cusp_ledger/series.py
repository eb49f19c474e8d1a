"""Exact truncated Laurent series in q on a 1/24-integral exponent grid.

Exponents are integers in units of 1/24, so eta-type prefactors q^(delta/24)
are exact.  Every series carries trunc24, the first unknown exponent: asking
for a coefficient at or beyond trunc24 is a hard error, never a silent zero.

A series is an integer polynomial times one rational content (FLINT's
fmpq_poly layout): the coefficient at exponent offset24 + step*i is
nums[i]/den.  The form is canonical, so equal series have equal fields:
nums has no leading or trailing zeros and no entry at or past trunc24; den
is positive and coprime to the gcd of nums; step is 24 when all stored
exponents agree mod 24, else 1; the zero series has nums [], den 1, step 24
and offset24 = trunc24.  The ring operations run on integers; Fractions
appear only at the boundary (coeff24, terms, leading, format, JSON).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm

from .curves import factorize
from .errors import ExactnessError, SeriesError, TruncationError

Scalar = int | Fraction


def _norm(value) -> Scalar:
    """Normalise to int/Fraction; reject inexact types outright."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise ExactnessError("coefficients must be exact (int or Fraction), "
                         f"got {type(value).__name__}")


def _scalar(num: int, den: int) -> Scalar:
    return num if den == 1 else _norm(Fraction(num, den))


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


def json_int(value, what: str) -> int:
    """An integer field of a JSON document, as it stands: int() would
    truncate a float or parse a string, and a bool is no number."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_key(key: str) -> int:
    """An integer key of a JSON object in canonical decimal form: ASCII
    digits, optionally negative, no leading zero and no '-0', so two keys
    never name one integer (int() would also take '01', '+1', ' 1', '1_0')."""
    digits = key.removeprefix("-")
    if not (digits.isdigit() and digits.isascii()) \
            or (digits[0] == "0" and key != "0"):
        raise ValueError(f"key {key!r} is not an integer")
    return int(key)


def json_str(value, what: str) -> str:
    """A string field of a JSON document, as it stands."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def json_ratio(value, what: str) -> tuple[int, int]:
    """A rational field of a JSON document, a JSON integer or a decimal
    string "p" or "p/q", as the pair of ints (p, q), q = 1 for "p"."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        p, slash, q = value.partition("/")
        if p.removeprefix("-").isdecimal() and (q.isdecimal() or not slash):
            return int(p), int(q) if slash else 1
    raise ValueError(f"{what} must be an integer or a string 'p' or 'p/q', "
                     f"got {value!r}")


class QSeries:
    """Dense exact q-series: known coefficients live at exponents < trunc24.

    Instances are treated as immutable (numerator lists are shared); all
    arithmetic returns new objects.  offset24 is the lowest stored exponent,
    and for the zero series the truncation bound.
    """

    __slots__ = ("offset24", "_step", "_nums", "_den", "trunc24")

    def __init__(self, entries: Mapping[int, Scalar] | Iterable, trunc24: int):
        items = entries.items() if isinstance(entries, Mapping) else entries
        t = int(trunc24)
        c = {int(e): _norm(v) for e, v in items if e < t}
        off = min(c, default=t)
        step = 24 if all((e - off) % 24 == 0 for e in c) else 1
        den = lcm(*(v.denominator for v in c.values()))
        nums = [0] * ((max(c, default=off) - off) // step + 1)
        for e, v in c.items():
            nums[(e - off) // step] = v.numerator * (den // v.denominator)
        self._set(off, step, nums, den, t)

    def _set(self, off: int, step: int, nums: list[int], den: int,
             trunc: int) -> "QSeries":
        """Store sum nums[i]/den q^((off+step*i)/24) in canonical form."""
        n = len(nums)
        end = min(n, max(-(-(trunc - off) // step), 0))
        while end and not nums[end - 1]:
            end -= 1
        start = next((i for i in range(end) if nums[i]), end)
        if start == end:
            off, step, nums, den = trunc, 24, [], 1
        elif start or end < n:
            nums = nums[start:end]
            off += step * start
        if step == 1 and not any(any(nums[j::24]) for j in range(1, 24)):
            nums, step = nums[::24], 24
        if den < 0:
            den, nums = -den, [-v for v in nums]
        if den != 1 and (g := gcd(den, *nums)) != 1:
            den, nums = den // g, [v // g for v in nums]
        self.offset24, self._step, self._nums, self._den = off, step, nums, den
        self.trunc24 = trunc
        return self

    @classmethod
    def zero(cls, trunc24: int) -> "QSeries":
        return _make(trunc24, 24, [], 1, trunc24)

    @classmethod
    def constant(cls, value: Scalar, trunc24: int) -> "QSeries":
        return cls({0: value}, trunc24)

    @classmethod
    def monomial(cls, exponent24: int, trunc24: int, coeff: Scalar = 1) -> "QSeries":
        return cls({exponent24: coeff}, trunc24)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_integer_grid(self) -> bool:
        return not self._nums or (self.offset24 % 24 == 0 and self._step == 24)

    def _on_grid(self, step: int) -> list[int]:
        """The numerators on a grid of the given step, which divides ours."""
        if step == self._step or not self._nums:
            return self._nums
        k = self._step // step
        out = [0] * (k * (len(self._nums) - 1) + 1)
        out[::k] = self._nums
        return out

    def support(self) -> tuple[int, ...]:
        off, step = self.offset24, self._step
        return tuple(off + step * i for i, v in enumerate(self._nums) if v)

    def terms(self) -> list[tuple[int, Scalar]]:
        off, step, den = self.offset24, self._step, self._den
        return [(off + step * i, _scalar(v, den))
                for i, v in enumerate(self._nums) if v]

    def leading(self) -> tuple[int, Scalar]:
        if not self._nums:
            raise SeriesError("zero series has no leading term")
        return self.offset24, _scalar(self._nums[0], self._den)

    def coeff24(self, exponent24: int) -> Scalar:
        if exponent24 >= self.trunc24:
            raise TruncationError(f"coefficient at q^({exponent24}/24) is beyond "
                                  f"truncation q^({self.trunc24}/24)")
        i, r = divmod(exponent24 - self.offset24, self._step)
        if r or i < 0 or i >= len(self._nums):
            return 0
        return _scalar(self._nums[i], self._den)

    def coeff_q(self, n: int) -> Scalar:
        """Coefficient of q^n (integer exponent)."""
        return self.coeff24(24 * n)

    def agrees_with(self, other: "QSeries") -> bool:
        """Exact equality on the overlap of the two known ranges."""
        t = min(self.trunc24, other.trunc24)
        return self.truncate(t) == other.truncate(t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def _binop_add(self, other, sign: int):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.trunc24)
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.trunc24, other.trunc24)
        off = min(self.offset24, other.offset24)
        step = 24 if (self._step == other._step == 24
                      and (self.offset24 - other.offset24) % 24 == 0) else 1
        den = lcm(self._den, other._den)
        parts = [((s.offset24 - off) // step, s._on_grid(step), m)
                 for s, m in ((self, den // self._den),
                              (other, sign * den // other._den))]
        out = [0] * min(max(i + len(nums) for i, nums, _ in parts),
                        -(-(t - off) // step))
        for i, nums, m in parts:
            seg = out[i:i + len(nums)]
            out[i:i + len(seg)] = [o + m * v for o, v in zip(seg, nums)]
        return _make(off, step, out, den, t)

    def __add__(self, other):
        return self._binop_add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop_add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "QSeries":
        return self.scaled(-1)

    def scaled(self, factor: Scalar) -> "QSeries":
        factor = _norm(factor)
        if factor == 0:
            return QSeries.zero(self.trunc24)
        p = factor.numerator
        nums = self._nums if p == 1 else [p * v for v in self._nums]
        return _make(self.offset24, self._step, nums,
                     self._den * factor.denominator, self.trunc24)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # product coefficient at e is known iff every split of e lands in
        # both known ranges
        t = min(self.trunc24 + other.offset24, other.trunc24 + self.offset24)
        if not self._nums or not other._nums:
            return QSeries.zero(t)
        off = self.offset24 + other.offset24
        step = self._step if self._step == other._step else 1
        a, b = self._on_grid(step), other._on_grid(step)
        nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
        if nonzero_a > nonzero_b:
            a, b = b, a
        n = min(len(a) + len(b) - 1, -(-(t - off) // step))
        if min(nonzero_a, nonzero_b) >= _KRONECKER_NONZEROS:
            out = _kronecker(a, b, n)
        else:
            # dense integer convolution, one row per nonzero entry of the
            # sparser factor
            out = [0] * n
            for i, x in enumerate(a[:n]):
                if x:
                    seg = out[i:i + len(b)]
                    out[i:i + len(seg)] = [o + x * y for o, y in zip(seg, b)]
        # the content is the product of the denominators
        return _make(off, step, out, self._den * other._den, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise SeriesError("division by zero scalar")
            return self.scaled(1 / Fraction(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        return _divide(self, other)

    def invert(self) -> "QSeries":
        return _divide(QSeries.constant(1, self.trunc24 - self.offset24), self)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int):
            raise SeriesError("series powers must be integers")
        if k == 0:
            return QSeries.constant(1, self.trunc24 - self.offset24)
        if k < 0:
            return self.invert() ** (-k)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift(self, delta24: int) -> "QSeries":
        """Multiply by the exact monomial q^(delta24/24)."""
        return _make(self.offset24 + delta24, self._step, self._nums,
                     self._den, self.trunc24 + delta24)

    def truncate(self, trunc24: int) -> "QSeries":
        if trunc24 > self.trunc24:
            raise TruncationError(f"cannot extend truncation from "
                                  f"{self.trunc24} to {trunc24}")
        if trunc24 == self.trunc24:
            return self
        return _make(self.offset24, self._step, self._nums, self._den, trunc24)

    def u_operator(self, ell: int) -> "QSeries":
        """Atkin-Lehner style U_ell: sum a(n) q^n  ->  sum a(ell*n) q^n.

        Requires integer exponents throughout; truncation drops to
        floor(trunc/ell) in integer-q units.
        """
        _check_prime(ell)
        if not self.is_integer_grid:
            raise SeriesError("U_ell undefined on fractional-exponent series; "
                              "absorb prefactor first")
        if self.trunc24 % 24 != 0:
            raise SeriesError("U_ell requires truncation on the integer grid")
        return self._section(ell, 0, 24 * ((self.trunc24 // 24) // ell))

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
            raise SeriesError(f"gcd({lam}, {ell}) != 1: residue class is "
                              "ill-defined")
        if not self.is_integer_grid:
            raise SeriesError("slicing requires integer exponents")
        mod = ell ** alpha
        r = (pow(lam, -1, mod) * target) % mod
        # first unknown integer exponent, then first unknown output index
        n_unknown = -((-self.trunc24) // 24)
        return self._section(mod, r, 24 * -(-(n_unknown - r) // mod))

    def _section(self, mod: int, r: int, trunc: int) -> "QSeries":
        """sum a(mod*m + r) q^m + O(q^(trunc/24)): one list slice."""
        if not self._nums:
            return QSeries.zero(trunc)
        n0 = self.offset24 // 24
        i0 = (r - n0) % mod  # first index whose exponent is r mod `mod`
        return _make(24 * ((n0 + i0 - r) // mod), 24, self._nums[i0::mod],
                     self._den, trunc)

    def __repr__(self) -> str:
        return f"QSeries({self.format(max_terms=6)})"

    def format(self, max_terms: int = 12) -> str:
        terms = self.terms()
        parts = [_termstr(e, v, first=not i)
                 for i, (e, v) in enumerate(terms[:max_terms])] or ["0"]
        if len(terms) > max_terms:
            parts.append("+ ...")
        return " ".join(parts + [f"+ O({_expstr(self.trunc24)})"])

    def to_json_obj(self) -> dict:
        return {"terms": [[e, str(v.numerator), str(v.denominator)]
                          for e, v in self.terms()],
                "trunc24": self.trunc24}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QSeries":
        entries = {}
        for e, num, den in obj["terms"]:
            a, b = json_ratio(num, "numerator")
            c, d = json_ratio(den, "denominator")
            entries[json_int(e, "exponent")] = _scalar(a * d, b * c)
        return cls(entries, json_int(obj["trunc24"], "trunc24"))


def _make(off: int, step: int, nums: list[int], den: int,
          trunc: int) -> QSeries:
    return object.__new__(QSeries)._set(off, step, nums, den, trunc)


# QSeries.__mul__ multiplies by Kronecker substitution when the sparser
# factor has at least this many nonzero numerators, and row by row below.
# Rows cost one multiply-add per nonzero of the sparser factor and term of
# the other; Kronecker packs and unpacks every term whatever the nonzeros.
# Timed on the benchmark's products: tower products with a pentagonal factor
# (at most about 24 nonzeros, 500-2700 terms) are 3-6x slower by Kronecker,
# while products of chart powers and slices (48 nonzeros or more) are
# faster on every one; 32 lies between the two.
_KRONECKER_NONZEROS = 32


def _kronecker(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of the integer polynomials
    a and b by one big-integer multiply (Kronecker substitution; Harvey,
    J. Symbolic Comput. 44 (2009)): each factor is evaluated at q = 2^W,
    W whole bytes and wide enough that every coefficient of the product
    fits a signed W-bit slot."""
    a, b = a[:n], b[:n]
    bits = (max(max(a), -min(a)).bit_length()
            + max(max(b), -min(b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    size = -(-bits // 8)
    half = 1 << (8 * size - 1)
    # biasing each slot of the whole product by 2^(W-1) makes every slot
    # nonnegative, so the bytes of the sum are the slots with no carries
    slots = len(a) + len(b) - 1
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    raw = (_pack(a, size) * _pack(b, size) + bias).to_bytes(size * slots,
                                                            "little")
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, size * n, size)]


def _pack(nums: list[int], size: int) -> int:
    """sum nums[i] 2^(8 size i) in linear time: the two's-complement slots
    read as one unsigned integer, less the borrow of each negative slot."""
    packed = int.from_bytes(b"".join(v.to_bytes(size, "little", signed=True)
                                     for v in nums), "little")
    borrow = bytearray(size * len(nums) + 1)
    borrow[size::size] = bytes(v < 0 for v in nums)
    return packed - int.from_bytes(borrow, "little")


def _divide(a: QSeries, b: QSeries) -> QSeries:
    """Exact division a/b on the integer numerators A and B, b0 = B[0].

    At q -> b0 q the divisor is b0 (1 + sum B[s] b0^(s-1) q^s), whose second
    factor has integer coefficients and constant term 1, so the kernel's
    forward recurrence (_divide_out) divides sum b0^k A[k] q^k by it into
    integers D[k]; the quotient's k-th coefficient is D[k] / b0^(k+1), and
    the powers of b0 go into the denominator.
    """
    if b.is_zero:
        raise SeriesError("non-invertible: zero series")
    rel_out = min(a.trunc24 - a.offset24, b.trunc24 - b.offset24)
    trunc = a.offset24 - b.offset24 + rel_out
    if a.is_zero:
        return QSeries.zero(trunc)
    step = a._step if a._step == b._step else 1
    n = -(-rel_out // step)
    A = a._on_grid(step)[:n]
    B = b._on_grid(step)[:n]
    pw = [B[0] ** j for j in range(n + 1)]
    d = [v * p for v, p in zip(A, pw)] + [0] * (n - len(A))
    _divide_out(d, [(s, v * pw[s - 1]) for s, v in enumerate(B) if s and v])
    nums = [b._den * v * pw[n - 1 - k] for k, v in enumerate(d)]
    return _make(a.offset24 - b.offset24, step, nums, a._den * pw[n], trunc)


def _general_pentagonal(k: int) -> int:
    """The k-th generalized pentagonal number m(3m-1)/2, m = 0, 1, -1, 2, ..."""
    m = (k + 1) // 2 if k & 1 else -(k // 2)
    return m * (3 * m - 1) // 2


# The series the kernel scatters and divides by, each also at q -> q^d: its
# product form as ((multiple of d, r), ...), and the exponent and weight of
# its k-th term (Andrews, The Theory of Partitions, Thm 2.8; Berndt,
# Ramanujan's Notebooks III, Entry 22).  Every one has constant term 1.
_SERIES = (
    # Euler: (q;q) = sum (-1)^m q^(m(3m-1)/2)
    (((1, 1),), _general_pentagonal, lambda k: -1 if (k + 1) & 2 else 1),
    # Jacobi: (q;q)^3 = sum (-1)^k (2k+1) q^(k(k+1)/2)
    (((1, 3),), lambda k: k * (k + 1) // 2,
     lambda k: -(2 * k + 1) if k & 1 else 2 * k + 1),
    # Gauss: psi(q) = (q^2;q^2)^2/(q;q) = sum q^(k(k+1)/2)
    (((1, -1), (2, 2)), lambda k: k * (k + 1) // 2, lambda k: 1),
    # Gauss: phi(q) = (q^2;q^2)^5/((q;q)^2 (q^4;q^4)^2) = 1 + 2 sum q^(k^2)
    (((1, -2), (2, 5), (4, -2)), lambda k: k * k, lambda k: 2 if k else 1),
    # Gauss: phi(-q) = (q;q)^2/(q^2;q^2) = 1 + 2 sum (-1)^k q^(k^2)
    (((1, 2), (2, -1)), lambda k: k * k,
     lambda k: (-2 if k & 1 else 2) if k else 1),
)


def _series_terms(kind: int, delta: int, n: int) -> list[tuple[int, int]]:
    """The terms (e, weight) with e < n, in ascending order, of the series
    _SERIES[kind] at q -> q^delta."""
    if delta < 1:
        raise SeriesError("delta must be a positive integer")
    _, exponent, weight = _SERIES[kind]
    terms = []
    k = 0
    while (e := delta * exponent(k)) < n:
        terms.append((e, weight(k)))
        k += 1
    return terms


def _theta_factors(exponents: tuple[tuple[int, int], ...]
                   ) -> tuple[tuple[int, int, int], ...]:
    """prod (q^d; q^d)^r as factors (kind, d, power) of the _SERIES, one
    kernel pass per unit of |power|.

    Greedy: while some theta series (or its inverse) at some q -> q^d takes
    more than one pass off what is left as plain (q^d; q^d)^r, apply the one
    that takes the most, the first in _SERIES, base and sign order among
    equals; what is left stays Euler's.  So the passes never outnumber
    sum |r|, and the factors depend on the sorted vector alone.
    """
    rest: dict[int, int] = {}
    for d, r in exponents:
        rest[d] = rest.get(d, 0) + r
    rest = {d: r for d, r in rest.items() if r}
    chosen: dict[tuple[int, int], int] = {}
    while True:
        best, most = None, 1
        for kind in range(1, len(_SERIES)):
            shape = _SERIES[kind][0]
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
        for m, r in _SERIES[kind][0]:
            if not (left := rest.get(base * m, 0) - sign * r):
                del rest[base * m]
            else:
                rest[base * m] = left
        chosen[kind, base] = chosen.get((kind, base), 0) + sign
    return tuple((kind, d, power) for (kind, d), power in chosen.items()
                 if power) + tuple((0, d, r) for d, r in sorted(rest.items()))


def pochhammer_expansion(delta: int, trunc24: int) -> QSeries:
    """(q^delta; q^delta)_infinity via the pentagonal number theorem."""
    return pochhammer_product(((delta, 1),), trunc24)


def _scatter(c: list[int], terms: list[tuple[int, int]]) -> list[int]:
    """c times the series 1 + sum w q^e over terms (the ones past the
    constant), scattering them from the nonzero entries of c only."""
    n = len(c)
    plus = [e for e, w in terms if w == 1]
    minus = [e for e, w in terms if w == -1]
    weighted = [(e, w) for e, w in terms if w * w != 1]
    out = c[:]
    for i, v in enumerate(c):
        if v:
            room = n - i
            for e in plus:
                if e >= room:
                    break
                out[i + e] += v
            for e in minus:
                if e >= room:
                    break
                out[i + e] -= v
            for e, w in weighted:
                if e >= room:
                    break
                out[i + e] += w * v
    return out


def _divide_out(c: list[int], terms: list[tuple[int, int]]) -> None:
    """c / (1 + sum w q^e over terms) in place, by the forward recurrence
    c[k] -= sum of w * c[k - e]; the constant term is 1, so nothing is ever
    divided.  Between consecutive exponents the set of terms with e <= k is
    fixed, so each segment runs with fixed lists; weights of 1 and -1 are
    subtracted and added, and only the others are multiplied."""
    plus: list[int] = []   # exponents of weight -1: added
    minus: list[int] = []  # exponents of weight 1: subtracted
    weighted: list[tuple[int, int]] = []
    ends = [e for e, _ in terms[1:]] + [len(c)]
    for (e, w), end in zip(terms, ends):
        if w == -1:
            plus.append(e)
        elif w == 1:
            minus.append(e)
        else:
            weighted.append((e, w))
        for k in range(e, end):
            t = c[k]
            for o in plus:
                t += c[k - o]
            for o in minus:
                t -= c[k - o]
            for o, x in weighted:
                t -= x * c[k - o]
            c[k] = t


def pochhammer_product(exponents: tuple[tuple[int, int], ...],
                       trunc24: int) -> QSeries:
    """prod over (d, r) of (q^d; q^d)_infinity^r with leading term 1.

    The vector is written as a product of theta series (_theta_factors).
    The integer coefficients live on a dense list indexed by the integer
    exponent n < trunc24/24: the numerator factors are scattered in first,
    while the product is still sparse, then each denominator factor is
    divided out one power at a time.  The list becomes the numerators as it
    stands.
    """
    n = max(-(-trunc24 // 24), 0)
    c = [1] + [0] * (n - 1) if n else []
    factors = _theta_factors(tuple(sorted(exponents)))
    for kind, d, power in factors:
        if power > 0:
            terms = _series_terms(kind, d, n)[1:]
            for _ in range(power):
                c = _scatter(c, terms)
    for kind, d, power in factors:
        if power < 0:
            terms = _series_terms(kind, d, n)[1:]
            for _ in range(-power):
                _divide_out(c, terms)
    return _make(0, 24, c, 1, trunc24)


def _expstr(e24: int) -> str:
    n, f = e24 // 24, Fraction(e24, 24)
    if f.denominator > 1:
        return f"q^({f.numerator}/{f.denominator})"
    return "1" if n == 0 else ("q" if n == 1 else f"q^{n}")


def _termstr(e24: int, v: Scalar, first: bool) -> str:
    sign = "-" if v < 0 else ("" if first else "+")
    mag, base = abs(v), _expstr(e24)
    body = str(mag) if base == "1" else (base if mag == 1 else f"{mag}*{base}")
    return f"{sign}{body}" if first else f"{sign} {body}"
