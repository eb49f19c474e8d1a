"""Tests for the X_0(N) topology module, pinned against orbit-counting oracles."""

import pytest

import cusp_ledger.families  # noqa: F401  (defines the rest of the records)
from cusp_ledger.curves import (
    CuspClass,
    Record,
    Value,
    cusp_count,
    curve_profile,
    elliptic_counts,
    enumerate_cusps,
    euler_phi,
    index_mu,
)
from cusp_ledger.errors import CuspLedgerError, EtaError
from cusp_ledger.eta import EtaQuotient

from oracles import (
    cusp_count_by_orbits,
    cusp_data_by_orbits,
    elliptic_counts_by_fixed_points,
)


def test_cusp_count_pins():
    assert cusp_count(1) == 1
    assert cusp_count(4) == 3
    assert cusp_count(5) == 2
    assert cusp_count(11) == 2
    assert cusp_count(14) == 4
    assert cusp_count(20) == 6


def test_cusp_count_closed_form_equals_enumeration():
    for N in range(1, 400):
        assert cusp_count(N) == sum(c.count for c in enumerate_cusps(N))


def test_cusp_count_matches_orbit_oracle():
    for N in range(1, 41):
        assert cusp_count(N) == cusp_count_by_orbits(N)


def test_cusp_classes_match_orbit_oracle():
    # per denominator class: number of T-orbits = count, orbit sizes = width
    for N in range(1, 41):
        oracle = cusp_data_by_orbits(N)
        for cls in enumerate_cusps(N):
            n_orbits, sizes = oracle[cls.denominator]
            assert n_orbits == cls.count
            assert sizes == {cls.width}


def test_enumerate_cusps_prime():
    assert enumerate_cusps(5) == [CuspClass(1, 1, 5), CuspClass(5, 1, 1)]


def test_enumerate_cusps_level_four():
    assert enumerate_cusps(4) == [
        CuspClass(1, 1, 4), CuspClass(2, 1, 1), CuspClass(4, 1, 1)]


def test_widths_of_distinguished_classes():
    for N in (2, 6, 12, 36, 91):
        classes = {c.denominator: c for c in enumerate_cusps(N)}
        assert classes[1].width == N
        assert classes[N].width == 1


def test_valence_sum_is_index():
    for N in range(1, 301):
        assert sum(c.count * c.width for c in enumerate_cusps(N)) == index_mu(N)


def test_parity_lemma():
    for N in range(1, 2001):
        eps = cusp_count(N)
        if N in (1, 4):
            assert eps % 2 == 1
        else:
            assert eps % 2 == 0


def test_two_cusps_iff_prime():
    def naive_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    for N in range(1, 2001):
        assert (cusp_count(N) == 2) == naive_prime(N)


def test_elliptic_counts_pins():
    assert elliptic_counts(1) == (1, 1)
    assert elliptic_counts(2) == (1, 0)
    assert elliptic_counts(3) == (0, 1)
    assert elliptic_counts(4) == (0, 0)
    # fixed by the genus identity: genus(11) = 1 forces (0, 0)
    assert elliptic_counts(11) == (0, 0)


def test_elliptic_counts_match_fixed_point_oracle():
    for N in range(1, 41):
        assert elliptic_counts(N) == elliptic_counts_by_fixed_points(N)


def test_genus_pins():
    assert curve_profile(5).genus == 0
    assert curve_profile(7).genus == 0
    assert curve_profile(10).genus == 0
    assert curve_profile(11).genus == 1
    assert curve_profile(14).genus == 1
    assert curve_profile(20).genus == 1
    assert curve_profile(22).genus == 2


def test_genus_integral_nonnegative_sweep():
    for N in range(1, 501):
        assert curve_profile(N).genus >= 0


def test_genus_at_most_two_matches_the_classical_lists():
    # Ogg, Bull. Soc. Math. France 102 (1974): every level of genus 0, 1, 2
    by_genus = {0: set(), 1: set(), 2: set()}
    for N in range(1, 2001):
        by_genus.get(curve_profile(N).genus, set()).add(N)
    assert by_genus == {
        0: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25},
        1: {11, 14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49},
        2: {22, 23, 26, 28, 29, 31, 37, 50},
    }


def test_profile_fields():
    p = curve_profile(20)
    assert p.index == 36
    assert p.cusp_count == 6
    assert (p.nu2, p.nu3) == (0, 0)
    assert sum(c.count * c.width for c in p.cusp_classes) == 36


def test_bad_level_rejected():
    with pytest.raises(CuspLedgerError):
        cusp_count(0)
    with pytest.raises(CuspLedgerError):
        curve_profile(-3)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


# -- the Record contract -------------------------------------------------------

def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


@pytest.mark.parametrize("cls", [c for c in _records() if c._fields],
                         ids=lambda c: c.__name__)
def test_record_contract(cls):
    names = cls._fields
    # Record.__init__ takes any values; EtaQuotient's own __init__ checks them
    values = ([10, ((1, 2), (2, -2))] if cls is EtaQuotient
              else [f"{name}-value" for name in names])
    named = dict(zip(names, values))
    assert ("__init__" in vars(cls)) == (cls is EtaQuotient)
    built = cls(*values)
    assert list(vars(built)) == list(names)
    again = cls(**named)
    assert list(vars(again)) == list(names)
    assert vars(again) == vars(built)
    refused = [
        ((), {k: v for k, v in named.items() if k != names[-1]}),  # missing
        (values[:-1], {}),                                         # missing
        ((), {**named, "unknown": 1}),                             # unknown
        (values[:1], named),                                       # twice
        ((*values, values[0]), {}),                                # too many
    ]
    reordered = [
        ((), dict(reversed(named.items()))),                       # reversed
        (values[:1], {k: named[k] for k in names[1:]}),            # mixed
    ]
    if cls is EtaQuotient:  # its own signature takes either form
        for args, kwargs in reordered:
            assert vars(cls(*args, **kwargs)) == vars(built)
    else:
        refused += reordered
    for args, kwargs in refused:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    if issubclass(cls, Value):
        assert cls(*values) == built and hash(cls(*values)) == hash(built)
        with pytest.raises(AttributeError):
            setattr(built, names[0], values[0])
    else:
        assert cls(*values) != built
    if cls is EtaQuotient:
        with pytest.raises(EtaError):
            EtaQuotient(10, {3: 1})
        known = EtaQuotient._known(10, ((3, 1),))
        assert vars(known) == {"level": 10, "exponents": ((3, 1),)}
