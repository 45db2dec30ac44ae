import math
import random
from fractions import Fraction

import pytest

from folcan.baskets import (
    Basket,
    LocalProfile,
    SingularityKind,
    basket_size_bound,
    basket_term,
    basket_uses_extrapolation,
    cusp,
    dihedral_half,
    dihedral_zero,
    local_term,
    q_index,
    terminal_cyclic,
    uses_extrapolation,
)
from folcan.errors import InvalidInput, InvalidOverride


def F(num, den=1):
    return Fraction(num, den)


ALL_KINDS = [terminal_cyclic(2), terminal_cyclic(5), dihedral_zero(1), dihedral_zero(2), dihedral_half(), cusp()]


def test_profile_validation():
    with pytest.raises(InvalidInput):
        terminal_cyclic(1)
    with pytest.raises(InvalidInput):
        terminal_cyclic(0)
    with pytest.raises(InvalidInput):
        dihedral_zero(3)
    with pytest.raises(InvalidInput):
        LocalProfile(SingularityKind.DIHEDRAL_HALF, 1)
    with pytest.raises(InvalidInput):
        LocalProfile(SingularityKind.NON_QGOR_CUSP, 2)


def test_override_validation():
    with pytest.raises(InvalidOverride):
        terminal_cyclic(3, override=[0, "-1/3"])  # wrong length
    with pytest.raises(InvalidOverride):
        terminal_cyclic(3, override=["-1/3", "-1/3", "-1/3"])  # nonzero at 0
    with pytest.raises(InvalidOverride):
        terminal_cyclic(3, override=[0, "1/3", "-1/3"])  # positive entry
    with pytest.raises(InvalidOverride):
        dihedral_half_with_override()


def dihedral_half_with_override():
    return LocalProfile(SingularityKind.DIHEDRAL_HALF, 2, (F(0), F(0)))


def test_local_term_terminal_index_two():
    p = terminal_cyclic(2)
    assert local_term(p, 1) == F(-1, 4)
    assert local_term(p, 2) == 0
    assert local_term(p, 3) == F(-1, 4)


def test_local_term_zero_multiple():
    for p in ALL_KINDS:
        assert local_term(p, 0) == 0


def test_local_term_cusp():
    assert local_term(cusp(), 7) == -1
    assert local_term(cusp(), 1) == -1


def test_local_term_dihedral():
    assert local_term(dihedral_half(), 4) == 0
    assert local_term(dihedral_half(), 5) == F(-1, 2)
    for m in range(8):
        assert local_term(dihedral_zero(1), m) == 0
        assert local_term(dihedral_zero(2), m) == 0


def test_local_term_terminal_edge_residues():
    p = terminal_cyclic(5)
    assert local_term(p, 1) == F(-2, 5)
    assert local_term(p, 4) == F(-2, 5)
    assert local_term(p, 5) == 0
    # interior residues come from the extrapolated table
    assert local_term(p, 2) == F(-3, 5)
    assert local_term(p, 3) == F(-3, 5)


def test_default_table_gives_the_backed_residues():
    # the one formula -r(n-r)/(2n) covers residues 0 and +-1 too
    for n in range(2, 40):
        p = terminal_cyclic(n)
        for k in range(3):
            assert local_term(p, k * n + n) == 0
            assert local_term(p, k * n + 1) == F(-(n - 1), 2 * n)
            assert local_term(p, k * n + n - 1) == F(-(n - 1), 2 * n)


def test_extrapolation_flag():
    p = terminal_cyclic(5)
    assert not uses_extrapolation(p, 1)
    assert not uses_extrapolation(p, 4)
    assert not uses_extrapolation(p, 5)
    assert uses_extrapolation(p, 2)
    assert uses_extrapolation(p, 7)
    # n = 2, 3 have no interior residues at all
    for n in (2, 3):
        assert not any(uses_extrapolation(terminal_cyclic(n), m) for m in range(1, 13))
    for other in (dihedral_half(), dihedral_zero(), cusp()):
        assert not any(uses_extrapolation(other, m) for m in range(1, 13))


def test_override_is_used():
    table = [F(0), F(-3, 8), F(-1, 8), F(-3, 8)]
    p = terminal_cyclic(4, override=table)
    assert local_term(p, 2) == F(-1, 8)
    assert local_term(p, 6) == F(-1, 8)
    assert local_term(p, 1) == F(-3, 8)
    assert local_term(p, 4) == 0
    # overridden interior residues still count as unbacked values
    assert uses_extrapolation(p, 2)


def test_local_term_rejects_bad_multiple():
    with pytest.raises(InvalidInput):
        local_term(cusp(), -1)
    with pytest.raises(InvalidInput):
        local_term(cusp(), "3")


def test_basket_canonical_order():
    a = Basket.of(dihedral_half(), terminal_cyclic(2), cusp())
    b = Basket.of(cusp(), terminal_cyclic(2), dihedral_half())
    assert a == b
    assert hash(a) == hash(b)
    assert len(a) == 3


def test_basket_refuses_what_is_not_a_profile():
    # a non-iterable, or an entry that is not a LocalProfile, is refused with
    # InvalidInput naming it, as the other constructors refuse bad input
    for bad in (terminal_cyclic(3), 3, None):
        with pytest.raises(InvalidInput, match="a basket takes an iterable of local profiles") as info:
            Basket(bad)
        assert repr(bad) in str(info.value)
    for entries, offender in ((("x",), "x"), ("cusp", "c"), ([cusp(), None], None),
                              ((terminal_cyclic(2), SingularityKind.NON_QGOR_CUSP), SingularityKind.NON_QGOR_CUSP),
                              ((dihedral_half(), (dihedral_half(),)), (dihedral_half(),))):
        with pytest.raises(InvalidInput, match="basket entries must be local profiles") as info:
            Basket(entries)
        assert str(info.value).endswith(f"got {offender!r}")
        assert info.value.code == "invalid_input"
    with pytest.raises(InvalidInput, match="got 'x'"):
        Basket.of(cusp(), "x")
    # any iterable of profiles is taken and stored as a sorted tuple
    expected = Basket.of(dihedral_half(), terminal_cyclic(2), cusp())
    assert Basket([cusp(), terminal_cyclic(2), dihedral_half()]) == expected
    assert Basket(p for p in (terminal_cyclic(2), cusp(), dihedral_half())) == expected
    assert type(Basket(iter([cusp()])).profiles) is tuple


def test_basket_term_examples():
    assert basket_term(Basket(), 5) == 0
    assert basket_term(Basket.of(terminal_cyclic(2), terminal_cyclic(2)), 1) == F(-1, 2)
    assert basket_term(Basket.of(dihedral_half(), cusp()), 3) == F(-3, 2)


def test_basket_uses_extrapolation():
    b = Basket.of(terminal_cyclic(5), dihedral_half())
    assert basket_uses_extrapolation(b, 2)
    assert not basket_uses_extrapolation(b, 1)
    assert not basket_uses_extrapolation(Basket.of(dihedral_half()), 3)


def test_q_index_examples():
    assert q_index(Basket()) == 1
    assert q_index(Basket.of(terminal_cyclic(3), dihedral_half())) == 6
    assert q_index(Basket.of(cusp(), cusp(), cusp())) == 1
    assert q_index(Basket.of(dihedral_zero(1))) == 1
    assert q_index(Basket.of(dihedral_zero(2))) == 2
    assert q_index(Basket.of(terminal_cyclic(4), terminal_cyclic(6))) == 12


def test_size_bound_examples():
    v = basket_size_bound(Basket.of(terminal_cyclic(2)))
    assert (v.sum_neg_a, v.size, v.bound_holds) == (F(1, 4), 1, False)
    v = basket_size_bound(Basket.of(dihedral_half(), dihedral_half(), dihedral_half()))
    assert (v.sum_neg_a, v.size, v.bound_holds) == (F(3, 2), 3, True)
    v = basket_size_bound(Basket())
    assert (v.sum_neg_a, v.size, v.bound_holds) == (F(0), 0, True)


def test_size_bound_counts():
    # cusps and index-2 dihedral-zeros count toward size but not the weighted bound
    v = basket_size_bound(Basket.of(cusp(), dihedral_zero(2), dihedral_zero(1), terminal_cyclic(3)))
    assert v.size == 3
    assert v.sum_neg_a == F(1) + F(1, 3)
    # restricted to the weighted profiles: a single n=3 terminal gives 1/3 < 1/2
    assert v.bound_holds is False
    assert basket_size_bound(Basket.of(terminal_cyclic(3))).bound_holds is False
    # a cusp-only basket restricts to the empty inequality
    assert basket_size_bound(Basket.of(cusp())).bound_holds is True


def random_profile(rng):
    roll = rng.randrange(5)
    if roll == 0:
        return terminal_cyclic(rng.randint(2, 9))
    if roll == 1:
        return dihedral_zero(rng.choice([1, 2]))
    if roll == 2:
        return dihedral_half()
    if roll == 3:
        return cusp()
    n = rng.randint(2, 6)
    table = [F(0)] + [F(-rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n - 1)]
    return terminal_cyclic(n, override=table)


def test_property_nonpositive_and_periodic():
    rng = random.Random(20260822)
    for _ in range(300):
        p = random_profile(rng)
        for m in range(0, 25):
            value = local_term(p, m)
            assert value <= 0
            if p.kind is SingularityKind.NON_QGOR_CUSP:
                if m >= 1:
                    assert value == -1
            elif m >= 1:
                assert value == local_term(p, m + p.local_index * rng.randint(1, 5))
                if m % p.local_index == 0:
                    assert value == 0


def test_property_q_index_minimality():
    # on profiles whose term tables are faithful to their indices, the least
    # m at which every finite-index profile vanishes is exactly the lcm
    rng = random.Random(99)
    faithful = [lambda: terminal_cyclic(rng.randint(2, 7)), dihedral_half, lambda: dihedral_zero(1)]
    for _ in range(120):
        profiles = [rng.choice(faithful)() for _ in range(rng.randint(0, 4))]
        b = Basket(tuple(profiles))
        idx = q_index(b)
        finite = [p for p in b if p.kind is not SingularityKind.NON_QGOR_CUSP]
        nontrivial = [p for p in finite if p.kind is not SingularityKind.DIHEDRAL_ZERO]
        def all_vanish(m):
            return all(local_term(p, m) == 0 for p in nontrivial)
        assert all_vanish(idx)
        least = next(m for m in range(1, idx + 1) if all_vanish(m))
        # dihedral-zero profiles vanish identically yet still contribute index
        expected = math.lcm(*(p.local_index for p in nontrivial)) if nontrivial else 1
        assert least == expected
        assert idx % least == 0


def test_property_cartier_vanishing_divides():
    rng = random.Random(5)
    for _ in range(150):
        b = Basket(tuple(random_profile(rng) for _ in range(rng.randint(0, 4))))
        idx = q_index(b)
        for t in range(1, 4):
            for p in b:
                if p.kind is not SingularityKind.NON_QGOR_CUSP:
                    assert local_term(p, idx * t) == 0


def _fraction_table(profile):
    # the Fraction definition: one period of local_term over its lowest common denominator
    period = profile.local_index or 1
    terms = [local_term(profile, r or period) for r in range(period)]
    den = math.lcm(*(t.denominator for t in terms))
    return den, tuple(t.numerator * (den // t.denominator) for t in terms)


def test_term_numerators_equal_the_fraction_definition():
    # the built-in tables are made in integers; every kind, every terminal
    # index up to 300, and seeded override tables against local_term
    profiles = ALL_KINDS + [terminal_cyclic(n) for n in range(2, 301)]
    rng = random.Random(20261019)
    for _ in range(200):
        n = rng.randint(2, 24)
        table = [F(0)] + [F(-rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6, 8, 12))) for _ in range(n - 1)]
        profiles.append(terminal_cyclic(n, override=table))
    profiles.append(terminal_cyclic(3, override=[F(0)] * 3))  # an all-zero override: d = 1
    for profile in profiles:
        d, t = profile.term_numerators
        assert (d, t) == _fraction_table(profile), profile
        assert type(d) is int and all(type(x) is int for x in t)
        for m in range(1, 2 * len(t) + 1):
            assert F(t[m % len(t)], d) == local_term(profile, m)
