"""Topology of the classical modular curve X_0(N): cusps, elliptic points, genus.

All quantities come from the standard closed forms over the divisors of N;
everything is exact integer/rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import CuspLedgerError, InternalInconsistencyError


def _check_level(N: int) -> None:
    if not isinstance(N, int) or N < 1:
        raise CuspLedgerError(f"level must be a positive integer, got {N!r}")


# trial division runs to sqrt(n): at most 10^6 steps, about 0.1 s
MAX_FACTORIZE = 10 ** 12


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation as ((p, multiplicity), ...) by trial division,
    refused above MAX_FACTORIZE."""
    if n > MAX_FACTORIZE:
        raise CuspLedgerError("cannot factorise an integer above 10^12, the "
                              "work cap for trial division")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = n
    for p, _ in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, m in factorize(n):
        ds = [d * p ** k for d in ds for k in range(m + 1)]
    return sorted(ds)


def index_mu(N: int) -> int:
    """Index of Gamma_0(N) in the full modular group: N * prod (1 + 1/p)."""
    _check_level(N)
    mu = N
    for p, _ in factorize(N):
        mu += mu // p
    return mu


def cusp_count(N: int) -> int:
    """Number of cusps of X_0(N): sum over d | N of phi(gcd(d, N/d))."""
    _check_level(N)
    return sum(euler_phi(gcd(d, N // d)) for d in divisors(N))


class Value:
    """A record equal to one of its type with equal fields, hashed by them and
    read-only once built: its __init__ fills vars(self) directly."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} fields are read-only")


class CuspClass(Value):
    """One denominator class of cusps: all cusps a/c with gcd(c, N) fixed."""

    def __init__(self, denominator: int, count: int, width: int):
        vars(self).update(denominator=denominator, count=count, width=width)

    def to_json_obj(self) -> dict:
        return {**vars(self)}


def enumerate_cusps(N: int) -> list[CuspClass]:
    """Cusp classes of X_0(N), one per divisor c of N.

    The class c = N is the infinity class (width 1); c = 1 is the zero class
    (width N).  Sum of count * width over classes equals the index.
    """
    _check_level(N)
    return [CuspClass(denominator=c,
                      count=euler_phi(gcd(c, N // c)),
                      width=N // gcd(c * c, N))
            for c in divisors(N)]


def _symbol_minus1(p: int) -> int:
    if p == 2:
        return 0
    return 1 if p % 4 == 1 else -1


def _symbol_minus3(p: int) -> int:
    if p == 3:
        return 0
    return 1 if p % 3 == 1 else -1


def elliptic_counts(N: int) -> tuple[int, int]:
    """(nu2, nu3): numbers of order-2 and order-3 elliptic points on X_0(N)."""
    _check_level(N)
    nu2 = nu3 = 1
    for p, _ in factorize(N):
        nu2 *= 1 + _symbol_minus1(p)
        nu3 *= 1 + _symbol_minus3(p)
    return (0 if N % 4 == 0 else nu2), (0 if N % 9 == 0 else nu3)


class CurveProfile:
    """Full topological profile of X_0(N)."""

    def __init__(self, level: int, index: int,
                 cusp_classes: tuple[CuspClass, ...], cusp_count: int,
                 nu2: int, nu3: int, genus: int):
        self.level = level
        self.index = index
        self.cusp_classes = cusp_classes
        self.cusp_count = cusp_count
        self.nu2 = nu2
        self.nu3 = nu3
        self.genus = genus

    def to_json_obj(self) -> dict:
        return {**vars(self),
                "cusp_classes": [c.to_json_obj() for c in self.cusp_classes]}


def curve_profile(N: int) -> CurveProfile:
    """Assemble the profile; a non-integral or negative genus is a bug."""
    _check_level(N)
    mu = index_mu(N)
    classes = enumerate_cusps(N)
    eps = cusp_count(N)
    if eps != sum(c.count for c in classes):
        raise InternalInconsistencyError(
            f"cusp count mismatch at N={N}: closed form {eps} vs enumeration"
        )
    if sum(c.count * c.width for c in classes) != mu:
        raise InternalInconsistencyError(
            f"cusp widths at N={N} do not sum to the index {mu}"
        )
    nu2, nu3 = elliptic_counts(N)
    genus = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(eps, 2)
    if genus.denominator != 1 or genus < 0:
        raise InternalInconsistencyError(
            f"genus formula returned {genus} at N={N}"
        )
    return CurveProfile(level=N, index=mu, cusp_classes=tuple(classes),
                        cusp_count=eps, nu2=nu2, nu3=nu3, genus=int(genus))
