import random
from fractions import Fraction

import pytest

from folcan.errors import DimensionMismatch, InvalidInput, SingularMatrix
from folcan.exact_core import (
    HodgeVerdict,
    SymmetricPairing,
    _ratio_text,
    check_int,
    format_rational,
    hodge_check,
    is_negative_definite,
    parse_rational,
    signature,
    solve_linear,
    vec_add,
    vec_scale,
    vector,
)


def F(num, den=1):
    return Fraction(num, den)


# ---------------------------------------------------------------- rationals


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", F(3)),
        ("-3", F(-3)),
        ("0", F(0)),
        ("1/2", F(1, 2)),
        ("-7/3", F(-7, 3)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "", "1/0", "1/-2", "+3", "1.5", "a/b", "2/", "/3", "1 / 2",
        # non-canonical spellings of valid rationals, and non-ASCII digits
        "  4/6 ", "10/5", "2/4", "007", " 3 ", "-0", "1/02", "3\n", "\u0663", "1/1", "0/5",
    ],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_rejects_a_non_string():
    with pytest.raises(ValueError, match="expected a rational string"):
        parse_rational(3)


def test_format_rational():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(-7, 3)) == "-7/3"
    assert format_rational(F(4)) == "4"
    assert format_rational(F(-2, 4)) == "-1/2"
    assert format_rational(3) == "3"


def test_rational_round_trip_random():
    rng = random.Random(20260822)
    for _ in range(1000):
        q = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert parse_rational(format_rational(q)) == q


def test_one_speller_equals_the_stdlib_text():
    # str(Fraction(n, d)) is the canonical text, an oracle independent of the
    # one speller: zero, negatives, d dividing n and values of a few hundred digits
    rng = random.Random(20261020)
    pairs = [(0, 1), (0, 7), (-6, 3), (12, 4), (5, 1), (-5, 1), (-3, 9), (10**300, 10**299)]
    for _ in range(2000):
        digits = rng.choice((1, 3, 9, 40, 300))
        d = rng.randint(1, 10**digits)
        n = rng.randint(-(10**digits), 10**digits)
        pairs += [(n, d), (n * d, d), (-abs(n) * rng.randint(1, 99), d)]
    for n, d in pairs:
        assert _ratio_text(n, d) == format_rational(Fraction(n, d)) == str(Fraction(n, d)), (n, d)


def test_check_int():
    assert check_int(0, "n") == 0
    assert check_int(3, "n", 1) == 3
    assert check_int(-4, "n", None) == -4
    for value, minimum, message in (
        (-1, 0, "n must be a nonnegative integer, got -1"),
        (0, 1, "n must be a positive integer, got 0"),
        (2.5, 0, "n must be a nonnegative integer, got 2.5"),
        (2.0, 1, "n must be a positive integer, got 2.0"),
        (True, 0, "n must be a nonnegative integer, got True"),
        ("3", None, "n must be an integer, got '3'"),
        (F(2), None, "n must be an integer, got Fraction(2, 1)"),
        (1, 2, "n must be an integer >= 2, got 1"),
        (2.0, 3, "n must be an integer >= 3, got 2.0"),
        (-4, -3, "n must be an integer >= -3, got -4"),
    ):
        with pytest.raises(InvalidInput) as info:
            check_int(value, "n", minimum)
        assert str(info.value) == message


def test_vector_refuses_floats():
    with pytest.raises(TypeError):
        vector([1, 0.5])
    with pytest.raises(TypeError):
        vec_scale(0.5, [1, 2])


def test_vec_arithmetic():
    assert vec_add([1, 2], ["1/2", -1]) == (F(3, 2), F(1))
    assert vec_scale("2/3", [3, -6]) == (F(2), F(-4))
    with pytest.raises(DimensionMismatch):
        vec_add([1], [1, 2])


# ---------------------------------------------------------------- pairings


def test_pairing_validation():
    with pytest.raises(InvalidInput):
        SymmetricPairing(((F(0), F(1)), (F(2), F(0))))
    with pytest.raises(InvalidInput):
        SymmetricPairing(((F(0), F(1)),))
    # symmetry is checked on the integer form: the same failing entry whatever the input kind
    asymmetric = [[-2, 1, 0], [1, -2, 1], [0, 3, -2]]
    halves = [[F(a, 2) for a in row] for row in asymmetric]
    for rows in (
        asymmetric,
        [[str(a) for a in row] for row in asymmetric],
        [[F(a) for a in row] for row in asymmetric],
        halves,
        [[format_rational(a) for a in row] for row in halves],
        [[int(a) if a.denominator == 1 else a for a in row] for row in halves],  # ints and Fractions
    ):
        with pytest.raises(InvalidInput) as info:
            SymmetricPairing.from_rows(rows)
        assert str(info.value) == "pairing matrix is not symmetric at (2,1)"
        assert info.value.context == {"row": 2, "column": 1}


def test_pairing_basics():
    p = SymmetricPairing.from_rows([[-2, 1], [1, -2]])
    assert p.dimension == 2
    assert p.pair([1, 0], [0, 1]) == F(1)
    assert p.pair([1, 1], [1, 1]) == F(-2)
    assert p.apply([1, 1]) == (F(-1), F(-1))
    assert p.restrict([1]).entries == ((F(-2),),)
    with pytest.raises(DimensionMismatch):
        p.pair([1], [1, 0])
    with pytest.raises(InvalidInput):
        p.restrict([2])


def test_pairing_accepts_strings():
    p = SymmetricPairing.from_rows([["0", "1/2"], ["1/2", "0"]])
    assert p.pair([1, 1], [1, 1]) == F(1)


def test_pairing_construction_coerces_and_validates():
    expected = ((F(-2), F(1, 2), F(0)), (F(1, 2), F(3), F(0)), (F(0), F(0), F(-1)))
    for rows in (
        [[-2, "1/2", 0], ["1/2", 3, 0], [0, 0, -1]],
        [["-2", "1/2", "0"], ["1/2", "3", "0"], ["0", "0", "-1"]],
        [list(row) for row in expected],
        [[-2, F(1, 2), 0], [F(1, 2), 3, F(0)], [0, 0, -1]],
    ):
        p = SymmetricPairing.from_rows(rows)
        assert p.entries == expected
        assert all(type(x) is Fraction for row in p.entries for x in row)
    ints = SymmetricPairing.from_rows([[0, 1, 0], [1, 0, 7], [0, 7, 0]])
    assert all(type(x) is Fraction for row in ints.entries for x in row)
    for bad in (True, False, 1.0, 0.5):
        for rows in ([[bad, 0], [0, 1]], [[1, 0], [0, bad]], [[F(1), "0"], ["0", bad]]):
            with pytest.raises(TypeError):
                SymmetricPairing.from_rows(rows)
    for rows, shape in (([[1, 0], [0]], "1x2"), ([[1, 0, 0], [0, 1, 0]], "3x2"), ([[]], "0x1")):
        with pytest.raises(InvalidInput) as info:
            SymmetricPairing.from_rows(rows)
        assert str(info.value) == f"pairing matrix is not square: {shape} row"


def test_asymmetric_pairing_reports_its_first_failing_entry():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 7)
        rows = [[rng.choice((0, 0, 1, -1, "1/2")) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[j][i] = rows[i][j]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            rows[i][j] = Fraction(rows[i][j]) + rng.choice((1, 2, F(1, 3)))
        first = next(
            ((i, j) for i in range(n) for j in range(i) if Fraction(rows[i][j]) != Fraction(rows[j][i])), None
        )
        if first is None:
            SymmetricPairing.from_rows(rows)
            continue
        with pytest.raises(InvalidInput) as info:
            SymmetricPairing.from_rows(rows)
        assert str(info.value) == f"pairing matrix is not symmetric at ({first[0]},{first[1]})"
        assert info.value.context == {"row": first[0], "column": first[1]}


# ---------------------------------------------------------------- solving


def test_solve_single():
    p = SymmetricPairing.from_rows([[-2]])
    assert solve_linear(p, [-1]) == (F(1, 2),)


def test_solve_chain():
    p = SymmetricPairing.from_rows([[-2, 1], [1, -2]])
    assert solve_linear(p, [-1, 0]) == (F(2, 3), F(1, 3))


def test_solve_identity():
    p = SymmetricPairing.identity(3)
    assert solve_linear(p, ["1/2", -3, 0]) == (F(1, 2), F(-3), F(0))


def test_solve_singular():
    p = SymmetricPairing.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix):
        solve_linear(p, [1, 0])


def test_solve_random_exact():
    # random invertible-ish systems; skip the singular draws
    rng = random.Random(7)
    solved = 0
    while solved < 60:
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        p = SymmetricPairing.from_rows(rows)
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        try:
            x = solve_linear(p, b)
        except SingularMatrix:
            continue
        assert p.apply(x) == tuple(b)
        solved += 1


# ---------------------------------------------------------------- inertia


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[-2, 1], [1, -2]], (0, 2, 0)),
        ([[0, 1], [1, 0]], (1, 1, 0)),
        ([[1, 0], [0, 1]], (2, 0, 0)),
        ([[-2, 2], [2, -2]], (0, 1, 1)),
        ([[0, 0], [0, 0]], (0, 0, 2)),
        ([[1, 0, 0], [0, -1, 0], [0, 0, 0]], (1, 1, 1)),
    ],
)
def test_signature_cases(rows, expected):
    assert signature(SymmetricPairing.from_rows(rows)) == expected


def test_signature_congruence_invariant():
    # signature is unchanged under A -> P^T A P for invertible P
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        a = SymmetricPairing.from_rows(rows)
        # random unimodular P from elementary operations
        p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = F(rng.randint(-2, 2))
            for l in range(n):
                p[i][l] += c * p[j][l]
        transformed = [
            [
                sum((p[r][i] * a.entries[i][j] * p[s][j] for i in range(n) for j in range(n)), F(0))
            for s in range(n)]
        for r in range(n)]
        assert signature(SymmetricPairing.from_rows(transformed)) == signature(a)


def test_negative_definite():
    assert is_negative_definite(SymmetricPairing.from_rows([[-2, 1], [1, -2]]))
    assert not is_negative_definite(SymmetricPairing.from_rows([[-2, 2], [2, -2]]))
    assert not is_negative_definite(SymmetricPairing.from_rows([[1]]))
    # 0x0 form is vacuously negative definite
    assert is_negative_definite(SymmetricPairing(()))


def test_negative_definite_constructed():
    # -B^T B - I is always negative definite
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 5)
        b = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        rows = [
            [
                -sum((b[k][i] * b[k][j] for k in range(n)), F(0)) - (1 if i == j else 0)
            for j in range(n)]
        for i in range(n)]
        assert is_negative_definite(SymmetricPairing.from_rows(rows))


# ---------------------------------------------------------------- index lemma


def test_hodge_hyperbolic():
    # fiber and section classes on a ruled surface
    p = SymmetricPairing.from_rows([[0, 1], [1, 0]])
    verdict = hodge_check(p, [1, 0], [0, 1], 1, 1)
    assert verdict == HodgeVerdict(hypothesis_met=True, inequality_holds=True, equality=False)


def test_hodge_proportional():
    p = SymmetricPairing.diagonal([1, -1])
    verdict = hodge_check(p, [2, 0], [3, 0], 1, 0)
    assert verdict.hypothesis_met and verdict.inequality_holds and verdict.equality


def test_hodge_hypothesis_fails():
    p = SymmetricPairing.diagonal([-1, -1])
    verdict = hodge_check(p, [1, 0], [0, 1], 1, 1)
    assert not verdict.hypothesis_met
    # on a negative definite form the inequality can genuinely fail
    assert not verdict.inequality_holds


def test_hodge_random_lorentzian():
    # in signature (1, n) the inequality holds whenever the hypothesis does,
    # with equality exactly when the 2x2 Gram matrix is singular
    rng = random.Random(17)
    p = SymmetricPairing.diagonal([1, -1, -1, -1])
    seen_equality = seen_strict = 0
    for trial in range(500):
        d1 = [F(rng.randint(-5, 5)) for _ in range(4)]
        if trial % 10 == 0:
            d2 = [F(rng.randint(-2, 2)) * x for x in d1]
        else:
            d2 = [F(rng.randint(-5, 5)) for _ in range(4)]
        a1, a2 = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        verdict = hodge_check(p, d1, d2, a1, a2)
        s11, s12, s22 = p.pair(d1, d1), p.pair(d1, d2), p.pair(d2, d2)
        if verdict.hypothesis_met:
            assert verdict.inequality_holds
        assert verdict.equality == (s11 * s22 - s12 * s12 == 0)
        if verdict.hypothesis_met:
            if verdict.equality:
                seen_equality += 1
            else:
                seen_strict += 1
    assert seen_equality and seen_strict
