"""Exact truncated Laurent series in q on a 1/24-integral exponent grid.

Exponents are integers in units of 1/24, so eta-type prefactors q^(delta/24)
are exact.  Every series carries trunc24, the first unknown exponent: asking
for a coefficient at or beyond trunc24 is a hard error, never a silent zero.

A series lives on one coset of the 1/24 grid, as an eta quotient's
q^(sum delta*r/24) times a power series in q does: entries whose exponents
disagree mod 24 are refused.  It is an integer polynomial times one rational
content (FLINT's fmpq_poly layout): the coefficient at exponent
offset24 + 24*i is nums[i]/den.  The form is canonical, so equal series have
equal fields: nums has no leading or trailing zeros and no entry at or past
trunc24; den is positive and coprime to the gcd of nums; the zero series has
nums [], den 1 and offset24 = trunc24, and adds to a series on any coset.
The ring operations run on integers; Fractions appear only at the boundary
(coeff24, terms, leading, format, JSON).
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import setitem, sub

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


def numstr(v: Scalar) -> str:
    """str(v) for an int or Fraction of any size: past the interpreter's
    limit on int digits (sys.set_int_max_str_digits) through Decimal, which
    the limit does not bind."""
    try:
        return str(v)
    except ValueError:
        p, q = Decimal(v.numerator), v.denominator
        return f"{p}/{Decimal(q)}" if q != 1 else str(p)


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
    """Dense exact q-series: known coefficients live at exponents < trunc24.

    Instances are treated as immutable (numerator lists are shared); all
    arithmetic returns new objects.  offset24 is the lowest stored exponent,
    and for the zero series the truncation bound.
    """

    __slots__ = ("offset24", "_nums", "_den", "trunc24")

    def __init__(self, entries: Mapping[int, Scalar], trunc24: int):
        t = int(trunc24)
        c = {int(e): _norm(v) for e, v in entries.items() if e < t}
        c = {e: v for e, v in c.items() if v}
        off = min(c, default=t)
        for e in c:
            if (e - off) % 24:
                raise SeriesError(f"a series' exponents agree mod 24, unlike "
                                  f"{off}/24 and {e}/24")
        den = lcm(*(v.denominator for v in c.values()))
        nums = [0] * ((max(c, default=off) - off) // 24 + 1)
        for e, v in c.items():
            nums[(e - off) // 24] = v.numerator * (den // v.denominator)
        self._set(off, nums, den, t)

    def _set(self, off: int, nums: list[int], den: int, trunc: int) -> QSeries:
        """Store sum nums[i]/den q^((off+24*i)/24) in canonical form."""
        n = len(nums)
        end = min(n, max(-(-(trunc - off) // 24), 0))
        while end and not nums[end - 1]:
            end -= 1
        start = next((i for i in range(end) if nums[i]), end)
        if start == end:
            off, nums, den = trunc, [], 1
        elif start or end < n:
            nums = nums[start:end]
            off += 24 * start
        if den < 0:
            den, nums = -den, [-v for v in nums]
        if den != 1 and (g := gcd(den, *nums)) != 1:
            den, nums = den // g, [v // g for v in nums]
        self.offset24, self._nums, self._den = off, nums, den
        self.trunc24 = trunc
        return self

    @classmethod
    def zero(cls, trunc24: int) -> "QSeries":
        return _make(trunc24, [], 1, trunc24)

    @classmethod
    def constant(cls, value: Scalar, trunc24: int) -> "QSeries":
        return cls({0: value}, trunc24)

    @classmethod
    def monomial(cls, exponent24: int, trunc24: int) -> "QSeries":
        return cls({exponent24: 1}, trunc24)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_integer_grid(self) -> bool:
        return not self._nums or self.offset24 % 24 == 0

    def support(self) -> tuple[int, ...]:
        off = self.offset24
        return tuple(off + 24 * i for i, v in enumerate(self._nums) if v)

    def terms(self) -> list[tuple[int, Scalar]]:
        off, den = self.offset24, self._den
        return [(off + 24 * i, v if den == 1 else _scalar(v, den))
                for i, v in enumerate(self._nums) if v]

    def leading(self) -> tuple[int, Scalar]:
        if not self._nums:
            raise SeriesError("zero series has no leading term")
        return self.offset24, _scalar(self._nums[0], self._den)

    def coeff24(self, exponent24: int) -> Scalar:
        if exponent24 >= self.trunc24:
            raise TruncationError(f"coefficient at q^({exponent24}/24) is beyond "
                                  f"truncation q^({self.trunc24}/24)")
        i, r = divmod(exponent24 - self.offset24, 24)
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

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return combination(((1, self), (1, other)), self.trunc24)

    def scaled(self, factor: Scalar) -> "QSeries":
        factor = _norm(factor)
        p = factor.numerator
        nums = self._nums if p == 1 else [p * v for v in self._nums]
        return _make(self.offset24, nums, self._den * factor.denominator,
                     self.trunc24)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        # product coefficient at e is known iff every split of e lands in
        # both known ranges
        t = min(self.trunc24 + other.offset24, other.trunc24 + self.offset24)
        off = self.offset24 + other.offset24
        a, b = self._nums, other._nums
        nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
        if nonzero_a > nonzero_b:
            a, b = b, a
        n = min(len(a) + len(b) - 1, -(-(t - off) // 24))
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
        return _make(off, out, self._den * other._den, t)

    def __truediv__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self * other.invert()

    def invert(self) -> "QSeries":
        """1/self on the integer numerators B, b0 = B[0].

        At q -> b0 q the series is b0 (1 + sum B[s] b0^(s-1) q^s), whose
        second factor has integer coefficients and constant term 1, so the
        kernel's forward recurrence (_divide_out) divides 1 by it into
        integers D[k]; the inverse's k-th coefficient is D[k] / b0^(k+1),
        and the powers of b0 go into the denominator.
        """
        if not self._nums:
            raise SeriesError("non-invertible: zero series")
        n = -(-(self.trunc24 - self.offset24) // 24)
        B = self._nums[:n]
        pw = [B[0] ** j for j in range(n + 1)]
        d = [0] * n
        d[0] = 1
        _divide_out(d, [(s, v * pw[s - 1]) for s, v in enumerate(B) if s and v])
        nums = [self._den * v * pw[n - 1 - k] for k, v in enumerate(d)]
        return _make(-self.offset24, nums, pw[n],
                     self.trunc24 - 2 * self.offset24)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int) or k < 1:
            raise SeriesError(f"series powers are integers >= 1, got {k!r}")
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
        return _make(self.offset24 + delta24, self._nums, self._den,
                     self.trunc24 + delta24)

    def truncate(self, trunc24: int) -> "QSeries":
        if trunc24 > self.trunc24:
            raise TruncationError(f"cannot extend truncation from "
                                  f"{self.trunc24} to {trunc24}")
        if trunc24 == self.trunc24:
            return self
        return _make(self.offset24, self._nums, self._den, trunc24)

    def u_operator(self, ell: int) -> "QSeries":
        """Atkin-Lehner style U_ell: sum a(n) q^n  ->  sum a(ell*n) q^n.

        Requires integer exponents throughout; known below q^T, it is known
        below q^ceil(T/ell), as a(ell*m) is for every ell*m < T.
        """
        _check_prime(ell)
        if not self.is_integer_grid:
            raise SeriesError("U_ell undefined on fractional-exponent series; "
                              "absorb prefactor first")
        if self.trunc24 % 24 != 0:
            raise SeriesError("U_ell requires truncation on the integer grid")
        return self._section(ell, 0)

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
        return self._section(mod, (pow(lam, -1, mod) * target) % mod)

    def _section(self, mod: int, r: int) -> "QSeries":
        """sum a(mod*m + r) q^m, one list slice, known below the first m
        whose a(mod*m + r) is unknown: m = ceil((n_unknown - r) / mod), with
        n_unknown the first unknown integer exponent."""
        n0, n_unknown = self.offset24 // 24, -((-self.trunc24) // 24)
        i0 = (r - n0) % mod  # first index whose exponent is r mod `mod`
        return _make(24 * ((n0 + i0 - r) // mod), self._nums[i0::mod],
                     self._den, 24 * -(-(n_unknown - r) // mod))

    def __repr__(self) -> str:
        return f"QSeries({self.format()})"

    def format(self) -> str:
        parts = [_termstr(e, v, first=not i)
                 for i, (e, v) in enumerate(self.terms())] or ["0"]
        return " ".join(parts + [f"+ O({_expstr(self.trunc24)})"])

    def to_json_obj(self) -> dict:
        return {"terms": [[e, numstr(v.numerator), numstr(v.denominator)]
                          for e, v in self.terms()],
                "trunc24": self.trunc24}


def _make(off: int, nums: list[int], den: int, trunc: int) -> QSeries:
    return object.__new__(QSeries)._set(off, nums, den, trunc)


def combination(pairs, trunc24: int) -> QSeries:
    """sum c * s over a sequence of (c, s) pairs, known to the least of
    trunc24 and every series' truncation: each live term (c and s nonzero)
    is written into one list over one common denominator, normalised once.
    A live term on another coset mod 24 than the first live term is
    refused, naming the first's offset before its own.
    """
    t, live = trunc24, []
    for c, s in pairs:
        c = _norm(c)
        if c and s._nums:
            if live and (s.offset24 - live[0][1].offset24) % 24:
                raise SeriesError(
                    f"series on two cosets mod 24 do not add: "
                    f"{live[0][1].offset24}/24 and {s.offset24}/24")
            live.append((c, s))
        t = min(t, s.trunc24)
    den = lcm(*(s._den * c.denominator for c, s in live))
    off = min((s.offset24 for _, s in live), default=t)
    out = [0] * min(max(((s.offset24 - off) // 24 + len(s._nums)
                         for _, s in live), default=0), -(-(t - off) // 24))
    for c, s in live:
        i, nums = (s.offset24 - off) // 24, s._nums
        m = c.numerator * (den // (s._den * c.denominator))
        seg = out[i:i + len(nums)]
        out[i:i + len(seg)] = [o + m * v for o, v in zip(seg, nums)]
    return _make(off, out, den, t)


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
    read as one unsigned integer, less the borrow of each negative slot,
    whose sign bit moves up to the bottom of the next slot."""
    packed = int.from_bytes(b"".join(v.to_bytes(size, "little", signed=True)
                                     for v in nums), "little")
    ones = int.from_bytes((1).to_bytes(size, "little") * len(nums), "little")
    return packed - ((packed >> (8 * size - 1) & ones) << 8 * size)


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


def pochhammer_plan(exponents) -> tuple[tuple[int, int, int], ...]:
    """The kernel's plan for prod (q^d; q^d)^r over the pairs (d, r):
    factors (kind, d, power) of the _SERIES, one kernel pass per unit of
    |power|.

    Greedy: while some theta series (or its inverse) at some q -> q^d takes
    more than one pass off what is left as plain (q^d; q^d)^r, apply the one
    that takes the most, the first in _SERIES, base and sign order among
    equals, as many times in a row as it takes off as many; what is left
    stays Euler's.  So the passes never outnumber sum |r|, and the
    factors depend on the vector alone, not on the order of its pairs.
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
                plus = minus = 0  # the passes taken off by sign 1 and -1
                for m, r in shape:
                    a = rest.get(base * m, 0)
                    plus += abs(a) - abs(a - r)
                    minus += abs(a) - abs(a + r)
                if plus > most:
                    best, most = (kind, base, 1), plus
                if minus > most:
                    best, most = (kind, base, -1), minus
        if best is None:
            break
        kind, base, sign = best
        shape = [(base * m, sign * r) for m, r in _SERIES[kind][0]]
        # applied again, it takes off as many passes until an exponent a of
        # r's sign has fewer than |r| left: after a // r applications, or
        # after one where |a| < |r| from the start
        times = min(max(a // r, 1) for d, r in shape
                    if (a := rest.get(d, 0)) * r > 0)
        for d, r in shape:
            if not (left := rest.get(d, 0) - times * r):
                del rest[d]
            else:
                rest[d] = left
        chosen[kind, base] = chosen.get((kind, base), 0) + sign * times
    return tuple((kind, d, power) for (kind, d), power in chosen.items()
                 if power) + tuple((0, d, r) for d, r in sorted(rest.items()))


def pochhammer_expansion(delta: int, trunc24: int) -> QSeries:
    """(q^delta; q^delta)_infinity via the pentagonal number theorem."""
    return pochhammer_product(((delta, 1),), trunc24)


def _scatter(c: list[int], terms: list[tuple[int, int]]) -> list[int]:
    """c times the series 1 + sum w q^e over terms (the ones past the
    constant), scattering them from the nonzero entries of c only.  One
    list whatever the weights: the weights 1 and -1 split off save no time
    here, where _divide_out's feed its C path."""
    n = len(c)
    out = c[:]
    for i, v in enumerate(c):
        if v:
            room = n - i
            for e, w in terms:
                if e >= room:
                    break
                out[i + e] += w * v
    return out


# _divide_out runs a segment of the recurrence in C once the segment is at
# least this many terms long: shorter segments do not repay building its
# iterators.  Fitted on dividing 1 and dense dividends by (q;q) and psi(q)
# at 100-1000 terms (lengths 12, 16, 24, 32 tried).
_C_SEGMENT = 16


def _reader(c: list[int], i: int):
    """An iterator over c from index i on."""
    it = iter(c)
    it.__setstate__(i)
    return it


def _divide_out(c: list[int], terms: list[tuple[int, int]]) -> None:
    """c / (1 + sum w q^e over terms) in place, by the forward recurrence
    c[k] -= sum of w * c[k - e]; the constant term is 1, so nothing is ever
    divided.  Between consecutive exponents the set of terms with e <= k is
    fixed, so each segment runs with fixed lists; weights of 1 and -1 are
    subtracted and added, and only the others are multiplied.

    When every weight is 1 or -1 (Euler's and Gauss's psi), a segment of
    _C_SEGMENT terms or more and all after it run in C: one list iterator
    per exponent e reads c[k - e], each sign's are summed through one zip
    (the dividend's first among the added), and the difference is written
    back with setitem before the next step reads it.  zip reuses its result
    tuple at any length, so no step allocates one.
    """
    plus: list[int] = []   # exponents of weight -1: added
    minus: list[int] = []  # exponents of weight 1: subtracted
    weighted: list[tuple[int, int]] = []
    unit = all(x * x == 1 for _, x in terms)  # no weight but 1 and -1
    segments = zip(terms, terms[1:] + [(len(c), None)])
    for (e, w), (end, _) in segments:
        if end - e >= _C_SEGMENT and unit:
            break
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
    else:
        return
    # the dividend leads the added side, read only where some of it is left
    adds = [_reader(c, e) if any(islice(c, e, None)) else repeat(0),
            *(_reader(c, e - o) for o in plus)]
    subs = [repeat(0), *(_reader(c, e - o) for o in minus)]
    for (e, w), (end, _) in chain([((e, w), (end, None))], segments):
        (adds if w == -1 else subs).append(iter(c))
        net = map(sub, map(sum, zip(*adds)), map(sum, zip(*subs)))
        # setitem returns None, so any() runs the map to its end
        any(map(setitem, repeat(c), range(e, end), net))


def pochhammer_product(exponents: tuple[tuple[int, int], ...],
                       trunc24: int) -> QSeries:
    """prod over (d, r) of (q^d; q^d)_infinity^r with leading term 1, known
    to q^(trunc24/24): the zero series if trunc24 <= 0.

    The vector comes as its plan, a product of theta series
    (pochhammer_plan).  The numerators live on a dense list, one entry per
    integer step of exponent below the truncation, starting as the series 1:
    the numerator factors are scattered in first, from the nonzero entries
    only, then each denominator factor is divided out one power at a time.
    """
    n = -(-trunc24 // 24)
    # the series 1 in a single list of n entries: a second, transient one
    # raised the benchmark's peak memory by about 0.2 MB on its
    # 20000-term pass
    c = [0] * max(n, 1)
    c[0] = 1
    plan = pochhammer_plan(exponents)
    for kind, d, power in plan:
        if power > 0:
            terms = _series_terms(kind, d, n)[1:]
            for _ in range(power):
                c = _scatter(c, terms)
    for kind, d, power in plan:
        if power < 0:
            terms = _series_terms(kind, d, n)[1:]
            for _ in range(-power):
                _divide_out(c, terms)
    return _make(0, c, 1, trunc24)


def _expstr(e24: int) -> str:
    n, f = e24 // 24, Fraction(e24, 24)
    if f.denominator > 1:
        return f"q^({f.numerator}/{f.denominator})"
    return "1" if n == 0 else ("q" if n == 1 else f"q^{n}")


def _termstr(e24: int, v: Scalar, first: bool) -> str:
    sign = "-" if v < 0 else ("" if first else "+")
    mag, base = numstr(abs(v)), _expstr(e24)
    body = mag if base == "1" else (base if mag == "1" else f"{mag}*{base}")
    return f"{sign}{body}" if first else f"{sign} {body}"
