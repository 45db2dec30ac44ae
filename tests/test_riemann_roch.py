import dataclasses
import json
import random
from fractions import Fraction

import pytest

import folcan.riemann_roch
from folcan.baskets import (
    Basket,
    SingularityKind,
    basket_term,
    basket_uses_extrapolation,
    cusp,
    dihedral_half,
    dihedral_zero,
    q_index,
    terminal_cyclic,
)
from folcan.bounds import EnumeratedFunction
from folcan.errors import InvalidInput, NotIntegral
from folcan.exact_core import format_rational
from folcan.riemann_roch import (
    HilbertFunction,
    ModelNumerics,
    hilbert_table,
    hilbert_value,
    integrality_check,
    integrality_window,
    second_difference_check,
    table_second_difference,
    to_hilbert_function,
    window_length,
)
from folcan.serialization import enumerated_function_to_json, numerics_from_json, value_window
from test_cli import invoke, time_limit


def F(num, den=1):
    return Fraction(num, den)


T2x2 = Basket.of(terminal_cyclic(2), terminal_cyclic(2))


def test_numerics_validation():
    with pytest.raises(InvalidInput):
        ModelNumerics(k1=F(1), k2=F(0), chi=F(1, 2))
    with pytest.raises(InvalidInput):
        ModelNumerics(k1=F(1), k2=F(0), chi=True)
    with pytest.raises(InvalidInput):
        ModelNumerics(k1=F(0), k2=F(0), chi=1, general_type=True)
    ModelNumerics(k1=F(0), k2=F(0), chi=1)  # fine without the flag
    with pytest.raises(InvalidInput):
        ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=[cusp()])


def test_general_type_must_be_a_bool():
    # a truthy non-bool would enforce k1 > 0 and be written as true; a falsy one would pass silently
    for flag in ("no", "", 0, 1, None, F(1)):
        with pytest.raises(InvalidInput, match="general_type must be a bool") as info:
            ModelNumerics(k1=F(1), k2=F(0), chi=0, general_type=flag)
        assert repr(flag) in str(info.value)
    assert ModelNumerics(k1=F(1), k2=F(0), chi=0, general_type=True).general_type is True


def test_denominators_consistent():
    good = ModelNumerics(k1=F(1, 4), k2=F(1, 2), chi=1, basket=T2x2)
    assert good.denominators_consistent()
    bad = ModelNumerics(k1=F(1, 3), k2=F(0), chi=1, basket=T2x2)
    assert not bad.denominators_consistent()
    assert ModelNumerics(k1=F(2), k2=F(-1), chi=0).denominators_consistent()


def test_value_at_zero_is_chi():
    num = ModelNumerics(k1=F(7, 3), k2=F(-5), chi=-2, basket=Basket.of(cusp(), dihedral_half()))
    assert hilbert_value(num, 0) == -2


def test_worked_table():
    num = ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2)
    assert [hilbert_value(num, m) for m in range(5)] == [1, 1, 3, 5, 9]


def test_value_no_basket():
    num = ModelNumerics(k1=F(8), k2=F(8), chi=1)
    assert hilbert_value(num, 2) == 9


def test_value_rejects_negative():
    num = ModelNumerics(k1=F(1), k2=F(0), chi=1)
    with pytest.raises(InvalidInput):
        hilbert_value(num, -1)


def test_basket_difference_property():
    rng = random.Random(3)
    baskets = [
        Basket(),
        T2x2,
        Basket.of(dihedral_half(), cusp()),
        Basket.of(terminal_cyclic(5), dihedral_zero(2)),
    ]
    for _ in range(50):
        k1 = F(rng.randint(1, 12), rng.choice([1, 2, 4]))
        k2 = F(rng.randint(-8, 8), rng.choice([1, 2]))
        chi = rng.randint(-3, 5)
        basket = rng.choice(baskets)
        with_b = ModelNumerics(k1=k1, k2=k2, chi=chi, basket=basket)
        without = ModelNumerics(k1=k1, k2=k2, chi=chi)
        for m in range(10):
            assert hilbert_value(with_b, m) - hilbert_value(without, m) == basket_term(basket, m)


def test_integrality_examples():
    assert integrality_check(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2))
    single = ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=Basket.of(terminal_cyclic(2)))
    # P(1) = 1/2 + 1 - 1/4 = 5/4
    assert hilbert_value(single, 1) == F(5, 4)
    assert not integrality_check(single)
    assert integrality_check(ModelNumerics(k1=F(2), k2=F(2), chi=1))


def test_integrality_window_size():
    assert integrality_window(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2)) == 2
    assert integrality_window(ModelNumerics(k1=F(1, 4), k2=F(1, 3), chi=0)) == 24
    assert (
        integrality_window(
            ModelNumerics(k1=F(1), k2=F(0), chi=0, basket=Basket.of(terminal_cyclic(3)))
        )
        == 6
    )


def test_window_telescopes():
    # integrality on [0, L) really does propagate: spot-check far out
    num = ModelNumerics(k1=F(1, 2), k2=F(3, 2), chi=2, basket=Basket.of(terminal_cyclic(2)))
    if integrality_check(num):
        window = integrality_window(num)
        for m in range(4 * window):
            assert hilbert_value(num, m).denominator == 1


def test_to_hilbert_function_examples():
    empty = to_hilbert_function(ModelNumerics(k1=F(2), k2=F(2), chi=1))
    assert (empty.period, empty.correction) == (1, (F(0),))

    h = to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2))
    assert (h.period, h.correction) == (2, (F(0), F(-1, 2)))
    assert not h.extrapolated

    mixed = to_hilbert_function(
        ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=Basket.of(dihedral_half(), cusp()))
    )
    assert (mixed.period, mixed.correction) == (2, (F(-1), F(-3, 2)))


def test_to_hilbert_function_rejects_non_integral():
    with pytest.raises(NotIntegral):
        to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=Basket.of(terminal_cyclic(2))))


def test_not_integral_names_its_first_witness():
    with pytest.raises(NotIntegral) as info:
        to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=Basket.of(terminal_cyclic(2))))
    assert info.value.context == {"window": 2, "m": 1, "value": "5/4"}
    # P(1) = -1/2 - 1/2 is an integer here; the first failing multiple is m = 2
    num = ModelNumerics(k1=F(1, 2), k2=F(1, 2), chi=0, basket=Basket.of(dihedral_half(), dihedral_half()))
    with pytest.raises(NotIntegral) as info:
        to_hilbert_function(num)
    assert info.value.context == {"window": 4, "m": 2, "value": "1/2"}
    assert hilbert_value(num, 1) == -1


def test_hilbert_table_refuses_an_oversized_period(monkeypatch):
    monkeypatch.setattr(folcan.riemann_roch, "MAX_PERIOD", 12)
    assert hilbert_table(ModelNumerics(k1=F(1), k2=F(0), chi=0, basket=Basket.of(terminal_cyclic(12)))).period == 12
    refused = ModelNumerics(k1=F(1, 2), k2=F(0), chi=0, basket=Basket.of(terminal_cyclic(13)))
    with pytest.raises(InvalidInput) as info:
        hilbert_table(refused)
    assert info.value.context == {"period": 13, "limit": 12}
    assert "term_numerators" not in vars(refused.basket.profiles[0])


def test_hilbert_table_is_built_once():
    # one table per numerics: the check scans its integer form, and the
    # compression returns it, integral or not
    for k1 in (F(1), F(1, 2)):
        num = ModelNumerics(k1=k1, k2=F(0), chi=1, basket=Basket.of(*T2x2, cusp()))
        table = hilbert_table(num)
        assert hilbert_table(num) is table
        assert integrality_check(num) is (k1 == 1)
        assert "_integer_form" in vars(table)
        if k1 == 1:
            assert to_hilbert_function(num) is table


def test_integrality_is_decided_once_per_numerics(monkeypatch):
    # two checks and a compression read one scan: the table is built once (its
    # pass checks the period once per kind of point, and T2x2 has one kind),
    # and a NotIntegral witness comes from the same verdict
    calls = []
    original = folcan.riemann_roch.check_period

    def counting(period):
        calls.append(period)
        return original(period)

    monkeypatch.setattr(folcan.riemann_roch, "check_period", counting)
    for k1, integral in ((F(1), True), (F(1, 2), False)):
        calls.clear()
        num = ModelNumerics(k1=k1, k2=F(0), chi=1, basket=T2x2)
        assert integrality_check(num) is integrality_check(num) is integral
        if integral:
            assert to_hilbert_function(num) is hilbert_table(num)
        else:
            with pytest.raises(NotIntegral) as info:
                to_hilbert_function(num)
            assert info.value.context == {"window": 4, "m": 1, "value": "3/4"}
            assert str(info.value) == "table has non-integer values, first P(1) = 3/4"
        assert len(calls) == 1, (k1, len(calls))


def test_to_hilbert_function_extrapolated_flag():
    # an index-5 point brings residues 2, 3 into play
    num = ModelNumerics(k1=F(2, 5), k2=F(0), chi=1, basket=Basket.of(terminal_cyclic(5), terminal_cyclic(5)))
    values = [hilbert_value(num, m) for m in range(integrality_window(num))]
    if all(v.denominator == 1 for v in values):
        assert to_hilbert_function(num).extrapolated
    else:
        # fall back: flag computation alone, bypassing integrality
        from folcan.baskets import basket_uses_extrapolation

        assert basket_uses_extrapolation(num.basket, 2)


def test_round_trip_values():
    rng = random.Random(17)
    produced = 0
    while produced < 40:
        k1 = F(rng.randint(1, 10), rng.choice([1, 2]))
        k2 = F(rng.randint(-6, 6), rng.choice([1, 2]))
        chi = rng.randint(-2, 4)
        basket = Basket(
            tuple(
                rng.choice([terminal_cyclic(2), terminal_cyclic(3), dihedral_half(), dihedral_zero(2), cusp()])
                for _ in range(rng.randint(0, 3))
            )
        )
        num = ModelNumerics(k1=k1, k2=k2, chi=chi, basket=basket)
        if not integrality_check(num):
            continue
        h = to_hilbert_function(num)
        window = integrality_window(num)
        for m in range(3 * window + 1):
            assert h.value(m) == hilbert_value(num, m)
        produced += 1


def test_function_validation():
    with pytest.raises(InvalidInput):
        HilbertFunction(k1=F(1), k2=F(0), chi=1, period=2, correction=(F(0),))
    with pytest.raises(InvalidInput):
        HilbertFunction(k1=F(1), k2=F(0), chi=1, period=0, correction=())
    for chi in (True, 0.5, F(1, 2)):
        with pytest.raises(InvalidInput, match="chi must be an integer"):
            HilbertFunction(k1=F(1), k2=F(0), chi=chi, period=2, correction=(F(0), F(-1, 2)))
    for flag in ("no", 1, None):
        with pytest.raises(InvalidInput, match="extrapolated must be a bool"):
            HilbertFunction(k1=F(1), k2=F(0), chi=1, period=1, correction=(F(0),), extrapolated=flag)


def test_from_integers_equals_the_public_constructor():
    # the enumeration's constructor against HilbertFunction(...) on the same
    # table: raw ints sharing a factor with den, negative entries, period 1,
    # rational k1 and k2
    from folcan.serialization import dumps, hilbert_function_to_json

    rng = random.Random(20261019)
    cases = [(F(1), F(0), 0, (0,), 1), (F(1), F(0), 3, (-6, 0, -6), 12), (F(3, 4), F(1, 2), -2, (4, -2), 6)]
    for _ in range(200):
        den = rng.choice((1, 2, 4, 6, 12, 30, 60, 120))
        period = rng.choice((1, 1, 2, 3, 4, 6, 12))
        raw = tuple(rng.choice((0, 1, den)) * rng.randint(-9, 3) for _ in range(period))
        k1 = F(rng.randint(1, 9), rng.choice((1, 2, 3, 4)))
        k2 = F(rng.randint(-9, 9), rng.choice((1, 2, 5)))
        cases.append((k1, k2, rng.randint(-3, 3), raw, den))
    for k1, k2, chi, raw, den in cases:
        for flag in (False, True):
            h = HilbertFunction._from_integers(k1, k2, chi, raw, den, flag)
            public = HilbertFunction(k1, k2, chi, len(raw), tuple(F(x, den) for x in raw), flag)
            # the public constructor keeps the tuple it is given as the view; h builds its own
            assert "correction" in vars(public) and "correction" not in vars(h)
            assert dataclasses.astuple(h) == dataclasses.astuple(public)
            assert [type(x) for x in h.correction] == [Fraction] * len(raw)
            assert vars(h)["_integer_form"] == public._integer_form
            assert h.canonical_form() == public.canonical_form() and h == public
            assert hash(h) == hash(public)
            assert h.value_texts(30) == public.value_texts(30)
            assert dumps(hilbert_function_to_json(h)) == dumps(hilbert_function_to_json(public))


def test_equality_across_periods():
    base = HilbertFunction(k1=F(1), k2=F(0), chi=1, period=2, correction=(F(0), F(-1, 2)))
    doubled = HilbertFunction(
        k1=F(1), k2=F(0), chi=1, period=4, correction=(F(0), F(-1, 2), F(0), F(-1, 2))
    )
    assert base == doubled
    assert hash(base) == hash(doubled)
    assert base.canonical_form() == doubled.canonical_form()
    assert doubled.canonicalized().period == 2
    other = HilbertFunction(k1=F(1), k2=F(0), chi=1, period=2, correction=(F(0), F(-1, 4)))
    assert base != other


def test_equality_from_different_baskets():
    # two distinct baskets realizing the same table collapse under equality
    a = to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2))
    b = to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=Basket.of(dihedral_half())))
    assert a == b
    for m in range(13):
        assert a.value(m) == b.value(m)


def test_extrapolated_flag_outside_identity():
    a = HilbertFunction(k1=F(1), k2=F(0), chi=1, period=1, correction=(F(0),), extrapolated=False)
    b = HilbertFunction(k1=F(1), k2=F(0), chi=1, period=1, correction=(F(0),), extrapolated=True)
    assert a == b
    assert hash(a) == hash(b)


def test_a_function_is_not_equal_to_other_types():
    h = HilbertFunction(k1=F(1), k2=F(0), chi=1, period=1, correction=(F(0),))
    assert h.__eq__(1) is NotImplemented
    assert (h == 1) is False and (h != 1) is True


def test_second_difference_worked():
    h = to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2))
    assert h.value(1) == 1 and h.value(3) == 5 and h.value(5) == 13
    assert table_second_difference(h, 1, 2) == 4 == h.period**2 * h.k1
    assert second_difference_check(h)

    poly = to_hilbert_function(ModelNumerics(k1=F(2), k2=F(2), chi=1))
    assert table_second_difference(poly, 1, 1) == 2
    assert second_difference_check(poly)


def test_second_difference_structural_tamper():
    h = to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2))
    object.__setattr__(h, "correction", (F(0),))  # truncate behind the dataclass's back
    assert second_difference_check(h) is False


def test_second_difference_tamper_after_value():
    # reading a value caches the integer form; a truncation after that still fails
    h = to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2))
    assert h.value(3) == 5
    object.__setattr__(h, "correction", (F(0),))
    assert second_difference_check(h) is False


def test_second_difference_integer_form_cut_after_the_view():
    # the view is built first, so the length check passes and the evaluation raises
    h = to_hilbert_function(ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=T2x2))
    assert len(h.correction) == h.period == 2
    den, a, b, c = h._integer_form
    object.__setattr__(h, "_integer_form", (den, a, b, c[:1]))
    assert second_difference_check(h) is False


def test_second_difference_random():
    rng = random.Random(23)
    for _ in range(60):
        period = rng.randint(1, 6)
        correction = tuple(F(-rng.randint(0, 8), rng.choice([1, 2, 4])) for _ in range(period))
        h = HilbertFunction(
            k1=F(rng.randint(1, 9), rng.choice([1, 2])),
            k2=F(rng.randint(-9, 9), rng.choice([1, 2])),
            chi=rng.randint(-3, 3),
            period=period,
            correction=correction,
        )
        assert second_difference_check(h)


def _random_profile(rng):
    roll = rng.randrange(6)
    if roll == 0:
        return dihedral_zero(rng.choice((1, 2)))
    if roll == 1:
        return dihedral_half()
    if roll == 2:
        return cusp()
    n = rng.randint(2, 6)
    if roll == 3:
        # override entries with arbitrary denominators
        return terminal_cyclic(n, [F(0)] + [F(-rng.randint(0, 6), rng.randint(1, 7)) for _ in range(n - 1)])
    return terminal_cyclic(n)


def _random_numerics(rng):
    profiles = [_random_profile(rng) for _ in range(rng.randint(0, 3))]  # 0: the empty basket
    profiles *= rng.choice((1, 1, 2, 3, 4))  # repeated points make integral tables common
    k1 = F(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4)))
    k2 = F(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4)))
    return ModelNumerics(k1=k1, k2=k2, chi=rng.randint(-3, 3), basket=Basket(tuple(profiles)))


def test_integrality_check_matches_fraction_definition():
    # the integer congruence test against its definition in Fraction arithmetic
    rng = random.Random(2412)
    verdicts = {True: 0, False: 0}
    for _ in range(10**4):
        num = _random_numerics(rng)
        expected = all(hilbert_value(num, m).denominator == 1 for m in range(integrality_window(num)))
        assert integrality_check(num) == expected, num
        verdicts[expected] += 1
        if not expected:
            # the witness names the first m in [1, L) whose value is not an integer
            window = integrality_window(num)
            m = next(m for m in range(1, window) if hilbert_value(num, m).denominator != 1)
            with pytest.raises(NotIntegral) as info:
                to_hilbert_function(num)
            assert info.value.context == {"window": window, "m": m, "value": format_rational(hilbert_value(num, m))}
    assert min(verdicts.values()) > 1000


def _accepted_numerics(rng, count):
    """Seeded random numerics whose tables are integral (see _random_numerics)."""
    accepted = []
    while len(accepted) < count:
        num = _random_numerics(rng)
        if integrality_check(num):
            accepted.append(num)
    return accepted


def test_integer_correction_matches_basket_term():
    rng = random.Random(1805)
    seen = {"override": 0, "cusp": 0, "fractional": 0}
    for num in _accepted_numerics(rng, 600):
        period = q_index(num.basket)
        expected = tuple(basket_term(num.basket, r or period) for r in range(period))
        assert to_hilbert_function(num).correction == expected, num
        seen["override"] += any(p.override is not None for p in num.basket)
        seen["cusp"] += any(p.kind is SingularityKind.NON_QGOR_CUSP for p in num.basket)
        seen["fractional"] += num.k1.denominator > 1 or num.k2.denominator > 1
    assert min(seen.values()) >= 10, seen
    # hilbert_table on any numerics, integral or not, against the Fraction
    # definitions; where the check passes it is to_hilbert_function's table
    seen = dict.fromkeys(("override", "cusp", "dihedral", "fractional", "negative chi"), 0)
    verdicts = {True: 0, False: 0}
    for _ in range(800):
        num = _random_numerics(rng)
        table = hilbert_table(num)
        period = q_index(num.basket)
        assert table.correction == tuple(basket_term(num.basket, r or period) for r in range(period)), num
        span = range(2 * integrality_window(num) + 1)
        assert [table.value(m) for m in span] == [hilbert_value(num, m) for m in span], num
        integral = integrality_check(num)
        if integral:
            h = to_hilbert_function(num)
            assert table == h and table.extrapolated == h.extrapolated, num
        else:
            seen["override"] += any(p.override is not None for p in num.basket)
            seen["cusp"] += any(p.kind is SingularityKind.NON_QGOR_CUSP for p in num.basket)
            seen["dihedral"] += any(p.kind is SingularityKind.DIHEDRAL_HALF for p in num.basket)
            seen["fractional"] += num.k1.denominator > 1 or num.k2.denominator > 1
            seen["negative chi"] += num.chi < 0
        verdicts[integral] += 1
    assert min(seen.values()) >= 20 and min(verdicts.values()) >= 100, (seen, verdicts)


def test_listed_values_match_hilbert_function_value():
    # enumerated_function_to_json lists P(m) from integers; HilbertFunction.value is the reference
    rng = random.Random(1806)
    for num in _accepted_numerics(rng, 300):
        h = to_hilbert_function(num)
        for function in (h, h.canonicalized()):
            values = enumerated_function_to_json(EnumeratedFunction(function, (num.basket,)))["values"]
            end = 2 * value_window(function)
            assert values == {str(m): format_rational(function.value(m)) for m in range(end + 1)}


def _fraction_value(h, m):
    """The definition of a HilbertFunction's value, in Fraction arithmetic."""
    correction = h.correction[m % h.period] if m >= 1 else F(0)
    return (h.k1 * m * m - h.k2 * m) / 2 + h.chi + correction


def test_value_matches_fraction_definition():
    # value reads a cached integer form; this is its independent reference
    rng = random.Random(1807)
    for _ in range(400):
        period = rng.randint(1, 8)
        h = HilbertFunction(
            k1=F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))),
            k2=F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))),
            chi=rng.randint(-5, 5),
            period=period,
            correction=tuple(F(-rng.randint(0, 9), rng.randint(1, 12)) for _ in range(period)),
        )
        copies = (h, h.canonicalized(), dataclasses.replace(h, chi=h.chi - rng.randint(1, 7)))
        for function in copies:
            for m in range(3 * function.period + 1):
                assert function.value(m) == _fraction_value(function, m), (function, m)


def _flag_basket(rng):
    profiles = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.randrange(5)
        n = rng.randint(2, 7)
        if roll == 0:
            profiles.append(rng.choice((dihedral_zero(1), dihedral_zero(2), dihedral_half())))
        elif roll == 1:
            profiles.append(cusp())
        elif roll == 2:
            profiles.append(terminal_cyclic(n, [F(0)] + [F(-rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n - 1)]))
        else:
            profiles.append(terminal_cyclic(n))
    return Basket(tuple(profiles * rng.choice((1, 2, 4))))


def test_extrapolated_flag_matches_the_residue_scan():
    # to_hilbert_function reads the flag at m = 2; the definition scans [1, T]
    rng = random.Random(1808)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        basket = _flag_basket(rng)
        period = q_index(basket)
        scanned = any(basket_uses_extrapolation(basket, m) for m in range(1, period + 1))
        assert basket_uses_extrapolation(basket, 2) == scanned, basket
        num = ModelNumerics(k1=F(rng.randint(1, 6), rng.choice((1, 2))), k2=F(rng.randint(-3, 3)), chi=0, basket=basket)
        if integrality_check(num):
            assert to_hilbert_function(num).extrapolated == scanned, basket
            seen[scanned] += 1
    assert min(seen.values()) >= 20, seen


def test_period_limit(monkeypatch):
    assert folcan.riemann_roch.MAX_PERIOD == 100_000
    monkeypatch.setattr(folcan.riemann_roch, "MAX_PERIOD", 12)
    accepted = ModelNumerics(k1=F(1), k2=F(0), chi=0, basket=Basket.of(terminal_cyclic(4), terminal_cyclic(3)))
    assert integrality_window(accepted) == 12
    integrality_check(accepted)
    refused = ModelNumerics(k1=F(1), k2=F(0), chi=0, basket=Basket.of(terminal_cyclic(13)))
    for call in (integrality_window, integrality_check, to_hilbert_function):
        with pytest.raises(InvalidInput) as info:
            call(refused)
        assert str(info.value) == "basket period 13 is above the limit of 12"
        assert info.value.code == "invalid_input"
        assert info.value.context == {"period": 13, "limit": 12}
    # the refusal comes before the profile's term table is built
    assert "term_numerators" not in vars(refused.basket.profiles[0])


def test_value_texts_match_value():
    # value_texts formats P(0..n) from the integer form; format_rational(value(m)) is the reference
    from folcan.bounds import EnumerationQuery, enumerate_hilbert

    rng = random.Random(1812)
    seen = dict.fromkeys(("fractional k", "chi != 0", "negative", "non-integer", "cusp"), 0)
    functions = []
    for _ in range(40):
        query = EnumerationQuery(
            k1=F(rng.randint(1, 6), rng.choice((1, 2, 3, 4))),
            k2=F(rng.randint(-6, 6), rng.choice((1, 2, 3))),
            s=rng.choice((1, 2, 3, 4, 6)),
            chi_set={rng.randint(-4, 4) for _ in range(2)},
            basket_cap=rng.randint(0, 3),
            max_cusps=rng.randint(0, 2),
            q_index_divides=rng.random() < 0.5,
        )
        functions += [(entry.function, entry.witnesses) for entry in enumerate_hilbert(query)]
    for _ in range(400):
        num = _random_numerics(rng)
        functions.append((hilbert_table(num), (num.basket,)))
    for h, baskets in functions:
        end = 2 * window_length(h.period, h.k1, h.k2) + rng.randint(0, 5)
        texts = h.value_texts(end)
        assert texts == [format_rational(h.value(m)) for m in range(end + 1)], h
        assert h.value_texts(0) == [str(h.chi)]
        seen["fractional k"] += h.k1.denominator > 1 or h.k2.denominator > 1
        seen["chi != 0"] += h.chi != 0
        seen["negative"] += any(t.startswith("-") for t in texts)
        seen["non-integer"] += any("/" in t for t in texts)
        seen["cusp"] += any(p.kind is SingularityKind.NON_QGOR_CUSP for b in baskets for p in b)
    assert min(seen.values()) >= 20 and len(functions) >= 450, (seen, len(functions))
    with pytest.raises(InvalidInput):
        functions[0][0].value_texts(-1)


def _witness(num):
    with pytest.raises(NotIntegral) as info:
        to_hilbert_function(num)
    return str(info.value), info.value.context


def test_cusp_variants_equal_the_numerics_of_their_basket():
    # ModelNumerics._with_cusps shifts a part's table by -1 per cusp and keeps
    # its verdict, if one is kept; it must agree with the numerics built from
    # the variant's basket, integral or not, NotIntegral's witness included
    rng = random.Random(20261020)
    letters = [dihedral_zero(1), dihedral_zero(2), dihedral_half()] + [terminal_cyclic(n) for n in (2, 3, 4, 5, 6)]
    verdicts = set()
    for draw in range(150):
        part = Basket(tuple(rng.choices(letters, k=rng.randint(0, 4))))
        k1, k2 = F(rng.randint(1, 6), rng.choice((1, 2, 3))), F(rng.randint(-6, 6), rng.choice((1, 2)))
        base = ModelNumerics(k1=k1, k2=k2, chi=rng.randint(-2, 2), basket=part)
        viewed = draw % 2 == 0
        if viewed:  # the part's Fraction view is built before the shift, and must not carry over
            assert len(hilbert_table(base).correction) == hilbert_table(base).period
        if draw % 3 == 0:  # the part's verdict is kept before the shift, and carries over
            integrality_check(base)
        for cusps in range(3):
            basket = Basket(part.profiles + (cusp(),) * cusps)
            shifted = base._with_cusps(basket, cusps)
            fresh = ModelNumerics(k1=k1, k2=k2, chi=base.chi, basket=basket)
            assert shifted == fresh
            assert hilbert_table(shifted)._integer_form == hilbert_table(fresh)._integer_form
            assert hilbert_table(shifted) == hilbert_table(fresh)
            assert hilbert_table(shifted).extrapolated == hilbert_table(fresh).extrapolated
            assert shifted._verdict == fresh._verdict
            if shifted._verdict is not None:
                assert _witness(shifted) == _witness(fresh)
            if viewed:
                assert hilbert_table(shifted).correction == hilbert_table(fresh).correction
            verdicts.add(integrality_check(shifted))
    assert verdicts == {False, True}


def test_chi_copies_differ_only_in_chi():
    h = HilbertFunction(k1=F(1, 2), k2=F(3), chi=0, period=4, correction=(F(0), F(-3, 8), F(-1, 2), F(-3, 8)),
                        extrapolated=True)
    assert h._with_chi(0) is h
    form = h._integer_form  # worked out before the copies, so they share it
    for chi in (-3, 1, 7):
        copy = h._with_chi(chi)
        public = HilbertFunction(h.k1, h.k2, chi, h.period, h.correction, extrapolated=True)
        assert dataclasses.astuple(copy) == dataclasses.astuple(public) and copy == public
        assert copy.correction is h.correction and copy._integer_form is form
        assert copy.value_texts(12) == public.value_texts(12)


def _kinds_basket(rng):
    """A seeded basket of repeated points, several overrides of one index and mixed indices, shuffled."""
    n = rng.randint(2, 6)
    overrides = [
        terminal_cyclic(n, [F(0)] + [F(-rng.randint(0, 5), rng.randint(1, 6)) for _ in range(n - 1)])
        for _ in range(rng.randint(2, 3))
    ]
    points = []
    for profile in overrides + [_random_profile(rng) for _ in range(rng.randint(1, 3))]:
        points += [profile] * rng.randint(1, 3)
        if rng.random() < 0.5:  # an equal point built anew, so a kind is not one object
            points.append(dataclasses.replace(profile))
    rng.shuffle(points)
    return Basket(tuple(points))


def test_the_kinds_pass_matches_the_per_point_reference():
    # ModelNumerics._table sums each kind of point once, scaled by its count,
    # and expands each index's rows to T once; hilbert_value sums every point's
    # local_term in Fractions, and the flag's definition scans [1, T]
    rng = random.Random(3101)
    seen = dict.fromkeys(("repeated", "equal objects", "overrides of one index", "mixed indices", "flagged"), 0)
    for _ in range(150):
        basket = _kinds_basket(rng)
        k1, k2 = F(rng.randint(-4, 4), rng.choice((1, 2, 3))), F(rng.randint(-4, 4), rng.choice((1, 2)))
        num = ModelNumerics(k1=k1, k2=k2, chi=rng.randint(-2, 2), basket=basket)
        table, period = hilbert_table(num), q_index(basket)
        assert table.period == period
        span = range(2 * period + 1)
        assert [table.value(m) for m in span] == [hilbert_value(num, m) for m in span], basket
        flagged = any(basket_uses_extrapolation(basket, m) for m in range(1, period + 1))
        assert table.extrapolated == flagged, basket
        points = basket.profiles
        seen["repeated"] += len(set(points)) < len(points)
        seen["equal objects"] += len(set(map(id, points))) > len(set(points))
        seen["overrides of one index"] += len({p.override for p in points if p.override is not None}) > 1
        seen["mixed indices"] += len({p.local_index for p in points}) > 2
        seen["flagged"] += flagged
    assert min(seen.values()) >= 20, seen


def test_the_period_limit_refuses_the_first_lcm_past_it(monkeypatch):
    # the running lcm of the kinds' indices is checked kind by kind: 2, 6, 30,
    # then 210 is refused, not the basket's 2310, and no later row is read
    monkeypatch.setattr(folcan.riemann_roch, "MAX_PERIOD", 40)
    basket = Basket.of(*map(terminal_cyclic, (11, 7, 5, 3, 2)))
    for call in (hilbert_table, integrality_window, integrality_check, to_hilbert_function):
        with pytest.raises(InvalidInput) as info:
            call(ModelNumerics(k1=F(1), k2=F(0), chi=0, basket=basket))
        assert info.value.context == {"period": 210, "limit": 40}
    assert [p.local_index for p in basket.profiles if "term_numerators" in vars(p)] == [2, 3, 5]


def _primes(count):
    """The first ``count`` primes, by a sieve."""
    bound = 200_000
    composite = bytearray(bound)
    primes = []
    for p in range(2, bound):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, bound, p))
    return primes[:count]


def test_documents_that_repeat_points_are_bounded_by_the_period(tmp_path):
    # a table costs O(points + T x distinct indices + override entries), and
    # the period limit refuses as the lcm of the indices grows: 200 copies of
    # one point (8 KB) and 3,000 distinct index-2 overrides beside an index
    # 49,999 point (197 KB) are admitted at once; 15,000 distinct prime
    # indices (604 KB) are refused at 2 x 3 x ... x 17 = 510,510, before the
    # basket's exact lcm, a 70,961-digit int, is built
    def point(n, **fields):
        return {"kind": "TerminalCyclic", "n": n, **fields}

    baskets = {
        "repeated": [point(99991)] * 200,
        "overrides": [point(2, override=["0", str(-F(1, k))]) for k in range(1, 3001)] + [point(49999)],
        "primes": [point(p) for p in _primes(15000)],
    }
    paths = {}
    for name, basket in baskets.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"k1": "1", "k2": "0", "chi": 1, "basket": basket}))
    assert [paths[name].stat().st_size // 1000 for name in baskets] == [8, 196, 604]
    for name, seconds in (("repeated", 5), ("overrides", 15)):
        with time_limit(seconds):
            status, out, err = invoke(["hilbert", "--numerics", str(paths[name]), "--mmax", "12"])
        assert status == 0 and err == "", err
        num = numerics_from_json(json.loads(paths[name].read_text()))
        assert json.loads(out)["values"] == [[m, format_rational(hilbert_value(num, m))] for m in range(13)]
    with time_limit(5):
        status, out, err = invoke(["hilbert", "--numerics", str(paths["primes"]), "--mmax", "12"])
    assert status == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input" and error["context"] == {"period": 510510, "limit": 100000}
