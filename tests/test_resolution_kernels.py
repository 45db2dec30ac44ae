"""The resolution kernels' fast paths against their definitions.

``SymmetricPairing`` keeps int rows as given, ``_integer_form`` reads ints
and Fractions without coercing them, ``solve_linear`` builds its Fractions
in one map, and the factor updates each row in one pass. Each is checked
here against the slow form it replaces: the refusals of the coercing path,
:func:`vector`'s definition, the type of every solved entry, and a
three-pass reference of the row update kept below. The factor is one
elimination over each entry's row of lower position: a form whose leading
minors are all nonzero is factored in order over its upper triangle,
exactly as the reference, and any other takes out-of-order pivots, shears
or a zero block within the same pass, giving the reference's factor up to
the order of each pivot row's pairs.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from folcan.errors import InvalidInput
from folcan.exact_core import _integer_form, format_rational, vector
from folcan.lattice import Factor, SymmetricPairing, signature, solve_linear
from test_basket_resolutions import basket_case
from test_congruence_oracle import chain, congruent, dense_negative, random_forms

F = Fraction


class Tenth(Fraction):
    """A Fraction subclass: not read as a Fraction by the fast path, but accepted through :func:`vector`."""


@pytest.mark.parametrize(
    "rows",
    [
        [[1, True], [True, 1]],
        [[False, 0], [0, 1]],
        [[1, 2.0], [2.0, 1]],
        [[1.5]],
        [[1, 0, 0], [0, 1, 0], [0, 0, True]],
    ],
)
def test_int_rows_with_a_bool_or_a_float_are_refused_as_before(rows):
    # the coercing path raises TypeError on these; the kept int rows must not let them in
    with pytest.raises(TypeError):
        SymmetricPairing.from_rows(rows)
    with pytest.raises(TypeError):
        SymmetricPairing(tuple(map(tuple, rows)))


def test_int_rows_are_kept_as_given_and_still_checked():
    rows = tuple(tuple(row) for row in chain(6))
    pairing = SymmetricPairing(rows)
    assert pairing._scale == 1 and all(kept is row for kept, row in zip(pairing._numerators, rows))
    listed = SymmetricPairing.from_rows([list(row) for row in rows])
    assert listed._numerators == rows and listed == pairing and hash(listed) == hash(pairing)
    assert SymmetricPairing.from_rows([[F(x) for x in row] for row in rows]) == pairing
    assert SymmetricPairing.from_rows([[format_rational(x) for x in row] for row in rows]) == pairing
    with pytest.raises(InvalidInput, match="not symmetric at \\(1,0\\)"):
        SymmetricPairing.from_rows([[1, 2], [3, 1]])
    with pytest.raises(InvalidInput, match="not square"):
        SymmetricPairing.from_rows([[1, 2], [2]])


def reference_integer_form(values):
    # the definition: vector's Fractions over their least common positive denominator
    values = vector(values)
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def test_integer_form_equals_its_vector_definition():
    rng = random.Random(3202)
    spellings = [
        lambda: rng.randint(-40, 40),
        lambda: F(rng.randint(-40, 40), rng.randint(1, 12)),
        lambda: format_rational(F(rng.randint(-40, 40), rng.randint(1, 12))),
        lambda: Tenth(rng.randint(-40, 40), 10),
    ]
    for _ in range(600):
        kinds = rng.sample(spellings, rng.randint(1, len(spellings)))
        values = [rng.choice(kinds)() for _ in range(rng.randint(0, 9))]
        numerators, den = _integer_form(values)
        assert (numerators, den) == reference_integer_form(values)
        assert all(type(x) is int for x in numerators) and type(den) is int and den >= 1
    assert _integer_form([]) == ((), 1) == reference_integer_form([])
    for bad, error in (([1, True], TypeError), ([F(1, 2), 0.5], TypeError), ([2, "2/4"], ValueError)):
        with pytest.raises(error):
            vector(bad)
        with pytest.raises(error):
            _integer_form(bad)


def test_every_solved_entry_is_a_fraction():
    rng = random.Random(3203)
    forms = [chain(n) for n in (1, 2, 7, 40)] + [dense_negative(rng, n) for n in (3, 9)]
    forms += [[[F(a, 3) for a in row] for row in chain(5)], [["-1/2", "1/3"], ["1/3", "-2"]]]
    for rows in forms:
        pairing = SymmetricPairing.from_rows(rows)
        for rhs in (
            [rng.randint(-5, 5) for _ in rows],
            [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in rows],
            [format_rational(F(rng.randint(-5, 5), rng.randint(1, 4))) for _ in rows],
            [0] * len(rows),
        ):
            x = solve_linear(pairing, rhs)
            assert len(x) == len(rows) and all(type(a) is Fraction for a in x)
            assert pairing.apply(x) == vector(rhs)


def three_pass_factor(pairing):
    """The factor with each pivot's row update made in three dict passes: scale, subtract, divide and drop zeros."""
    rows = list(map(dict, pairing.nonzeros))
    seen = [0] * len(rows)
    minors, order, pivots, shears = [1], [], [], []

    def at(i, t):
        s = seen[i]
        if s != t:
            rows[i] = {m: a * minors[t] // minors[s] for m, a in rows[i].items()}
            seen[i] = t
        return rows[i]

    pending = list(range(len(rows)))
    while pending:
        t = len(order)
        k = next((i for i in pending if i in rows[i]), None)
        if k is None:
            k = next((i for i in pending if rows[i]), None)
            if k is None:
                break
            j = min(rows[k])
            shears.append((k, j))
            rk, rj = at(k, t), at(j, t)
            keys = rk.keys() | rj.keys()
            new = {m: rk.get(m, 0) + rj.get(m, 0) for m in keys}
            new[k] += new[j]
            for row in pivots + [rows[m] for m in keys - {k}]:
                row[k] = row.get(k, 0) + row.get(j, 0)
                if not row[k]:
                    del row[k]
            rows[k] = {m: a for m, a in new.items() if a}
        pending.remove(k)
        pivot = at(k, t)
        p = pivot.pop(k)
        for l in pivot:
            row = rows[l]
            c = row.pop(k)
            new = {m: p * a for m, a in row.items()}
            for m, a in pivot.items():
                new[m] = new.get(m, 0) - c * a
            d = minors[seen[l]]
            rows[l] = {m: a // d for m, a in new.items() if a}
            seen[l] = t + 1
        minors.append(p)
        order.append(k)
        pivots.append(pivot)
    return Factor(tuple(order), tuple(tuple(row.items()) for row in pivots), tuple(minors), tuple(shears), tuple(pending))


def sparse(rng, n, density, zero_diagonal=False):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < density and not (zero_diagonal and i == j):
                rows[i][j] = rows[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return rows


def assert_same_factor(factor, reference, kind=None):
    """Order, minors, shears and zeros equal; each pivot row equal as a dict, since an out-of-order pivot's pairs come in no fixed order."""
    for name in ("order", "minors", "shears", "zeros"):
        assert getattr(factor, name) == getattr(reference, name), (kind, name)
    assert list(map(dict, factor.rows)) == list(map(dict, reference.rows)), kind


def test_the_one_pass_update_equals_the_three_pass_reference():
    rng = random.Random(3204)
    forms = {
        "dense": [dense_negative(rng, n) for n in (2, 6, 12, 20)],
        "sparse": [sparse(rng, n, 0.15) for n in (8, 16, 30, 40) for _ in range(3)],
        "sheared": [sparse(rng, n, 0.4, zero_diagonal=True) for n in (4, 9, 15, 24) for _ in range(3)],
        "singular": [congruent(rng, n, [rng.choice((-1, 1, 2)) for _ in range(rank)]) for n, rank in ((5, 2), (10, 7), (16, 9))],
        "small": random_forms(),
    }
    forms["chain"] = [chain(n) for n in (1, 3, 64)]
    out_of_order = sheared = singular = 0
    for kind, group in forms.items():
        for rows in group:
            pairing = SymmetricPairing.from_rows(rows)
            factor = pairing.congruence
            assert_same_factor(factor, three_pass_factor(pairing), kind)
            out_of_order += factor.order != tuple(sorted(factor.order))
            sheared += bool(factor.shears)
            singular += bool(factor.zeros)
    assert out_of_order > 10 and sheared > 10 and singular > 10


def strongly_regular(rng, n):
    """L D L^T for a unit lower triangular integer L and a nonzero diagonal D of both signs.

    Its k-th leading minor is d_1 ... d_k, so none vanishes, and it is indefinite when D's signs differ.
    """
    low = [[int(i == j) if j >= i else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    return [[sum(low[i][k] * d[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def permuted(rng, rows):
    order = rng.sample(range(len(rows)), len(rows))
    return [[rows[i][j] for j in order] for i in order]


def test_forms_with_nonzero_leading_minors_take_the_upper_pass():
    rng = random.Random(3301)
    forms = {
        "chain": [chain(rng.randint(1, 130)) for _ in range(6)] + [permuted(rng, chain(rng.randint(2, 40))) for _ in range(4)],
        "dense": [dense_negative(rng, n) for n in (1, 8, 12, 16, 20, 24, 28)],
        "indefinite": [strongly_regular(rng, n) for n in (2, 3, 5, 9, 14, 20) for _ in range(2)],
        # a zero on the diagonal that its Schur complement fills: minors -2, -1, 4
        "zero diagonal": [[[-2, 1, 0], [1, 0, 1], [0, 1, -2]]],
    }
    # each resolution factors its Gram when it is built
    grams = [basket_case(rng, hub_first=draw % 2 == 0).res.exceptional_gram for draw in range(6)]
    forms["basket"] = [gram.entries for gram in grams]
    indefinite = 0
    for kind, group in forms.items():
        for rows in group:
            pairing = SymmetricPairing.from_rows(rows)
            factor = pairing.congruence
            assert factor == three_pass_factor(pairing), kind
            assert factor.order == tuple(range(len(rows))) and not factor.shears and not factor.zeros
            positives, negatives, _ = signature(pairing)
            indefinite += bool(positives and negatives)
    assert indefinite > 5
    for gram in grams:
        assert gram.congruence == three_pass_factor(gram)


def copy_of_the_first_last(rows):
    """``rows`` with its last row and column replaced by its first: every leading minor but the last is unchanged."""
    rows = [list(row) for row in rows]
    rows[-1] = list(rows[0])
    rows[-1][-1] = rows[0][0]
    for j, a in enumerate(rows[-1]):
        rows[j][-1] = a
    return rows


def test_a_vanishing_leading_minor_hands_over_to_the_general_elimination(monkeypatch):
    calls = []
    scan = SymmetricPairing.nonzeros.func

    def counting(self):
        calls.append(self)
        return scan(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(SymmetricPairing, "nonzeros")
    monkeypatch.setattr(SymmetricPairing, "nonzeros", counted)
    rng = random.Random(3302)
    definite = dense_negative(rng, 12)
    forms = [
        [[0, 1], [1, 0]],
        congruent(rng, 6, [-1, 2, 1]),
        [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],  # minors -2, 3, 0
        copy_of_the_first_last(definite),
    ]
    for rows in forms:
        pairing = SymmetricPairing.from_rows(rows)
        factor = pairing.congruence
        # the pass goes on from the vanishing minor over the int rows, and scans no row whole
        assert calls == [] and not pairing._scanned
        assert_same_factor(factor, three_pass_factor(pairing))
        calls.clear()
    # the copy fails only at its last minor: every minor before it is the definite form's
    copied = pairing.congruence
    assert copied.minors[:12] == SymmetricPairing.from_rows(definite).congruence.minors[:12]
    assert copied.zeros == (11,)
