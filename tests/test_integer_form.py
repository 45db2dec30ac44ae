"""The integer form of a pairing against a Fraction oracle, on rational forms.

A ``SymmetricPairing`` keeps its matrix as int rows over one positive
denominator ``_scale`` and computes products, solves and pullbacks from
them. Every Gram of the benchmark is integral (``_scale`` 1), so these
seeded forms with denominators up to 6, zero rows, 0x0 and 1x1 forms and
restrictions that drop a denominator are what exercise the scale: a
product that forgets to divide by ``_scale``, a restriction that keeps its
parent's scale, or a pullback that drops the strict transform's
denominator all fail here. The integer form is the pairing's only state,
so the same forms check that it is canonical (one matrix, however it is
spelled, gives equal pairings with equal hashes) and that the Fraction
view ``entries`` is built on its first read, not by a query.
"""

import math
import random
from fractions import Fraction

import pytest

from folcan.errors import SingularMatrix
from folcan.exact_core import SymmetricPairing, format_rational, solve_linear
from folcan.surface_model import ResolutionData, SurfaceModel, mumford_pullback, weil_intersect
from test_congruence_oracle import chain

F = Fraction
DENOMINATORS = (1, 2, 3, 4, 5, 6)


def rational(rng, lo=-6, hi=6):
    return F(rng.randint(lo, hi), rng.choice(DENOMINATORS))


def symmetric(rng, n, zero_rows=()):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if i not in zero_rows and j not in zero_rows and rng.random() < 0.7:
                rows[i][j] = rows[j][i] = rational(rng)
    return rows


def negative_definite(rng, n):
    """-(B^T B + I / d) for a random rational B: negative definite, denominators up to 6."""
    b = [[rational(rng, -2, 2) for _ in range(n)] for _ in range(n)]
    shift = F(1, rng.choice(DENOMINATORS))

    def entry(i, j):
        return -sum((b[k][i] * b[k][j] for k in range(n)), F(0)) - shift * (i == j)

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def matvec(rows, x):
    return tuple(sum((a * b for a, b in zip(row, x)), F(0)) for row in rows)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def oracle_solve(rows, b):
    """Gauss-Jordan elimination in Fractions; None when the matrix is singular."""
    n = len(rows)
    m = [list(row) + [x] for row, x in zip(rows, b)]
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        for i in range(n):
            if i != k and m[i][k]:
                c = m[i][k] / m[k][k]
                m[i] = [a - c * b for a, b in zip(m[i], m[k])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def fresh_scale(rows):
    return math.lcm(1, *(F(a).denominator for row in rows for a in row))


def rational_forms():
    rng = random.Random(6006)
    forms = [[], [[F(0)]], [[F(5, 6)]], [[F(-3)]], [[0, F(1, 2)], [F(1, 2), 0]]]
    for _ in range(60):
        n = rng.randint(1, 7)
        zero_rows = set(rng.sample(range(n), rng.randint(0, min(2, n - 1))))
        forms.append(symmetric(rng, n, zero_rows))
    for n in (1, 2, 5):
        forms.append(negative_definite(rng, n))
    return forms


def test_products_and_solves_equal_the_fraction_oracle():
    rng = random.Random(61)
    scaled = 0
    for rows in rational_forms():
        n = len(rows)
        pairing = SymmetricPairing.from_rows(rows)
        assert pairing._scale == fresh_scale(rows)
        scaled += pairing._scale > 1
        for _ in range(3):
            u = tuple(rational(rng) if rng.random() < 0.6 else 0 for _ in range(n))
            v = tuple(rational(rng) for _ in range(n))
            assert pairing.apply(v) == matvec(rows, v)
            assert pairing.pair(u, v) == dot(u, matvec(rows, v))
            expected = oracle_solve(rows, v)
            if expected is None:
                with pytest.raises(SingularMatrix):
                    solve_linear(pairing, v)
            else:
                assert solve_linear(pairing, v) == expected
    assert scaled > 40


def test_restrictions_take_the_scale_of_a_fresh_construction():
    rng = random.Random(62)
    dropped = 0
    forms = rational_forms()
    # one row and column with a denominator no other entry has: dropping it divides the scale
    base = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
    base = [[base[max(i, j)][min(i, j)] for j in range(4)] for i in range(4)]
    base[2][2] = F(1, 5)
    base[0][2] = base[2][0] = F(-2, 5)
    forms.append(base)
    for rows in forms:
        n = len(rows)
        pairing = SymmetricPairing.from_rows(rows)
        choices = [rng.sample(range(n), rng.randint(0, n)) for _ in range(3)]
        for indices in choices + [[i for i in range(n) if i != 2]]:
            sub = pairing.restrict(indices)
            fresh = SymmetricPairing.from_rows([[rows[i][j] for j in indices] for i in indices])
            assert sub == fresh and sub._scale == fresh._scale
            assert sub._numerators == fresh._numerators
            dropped += sub._scale < pairing._scale
            w = tuple(rational(rng) for _ in indices)
            assert sub.apply(w) == fresh.apply(w) == matvec(fresh.entries, w)
    assert dropped > 10


def resolutions(rng):
    """Rational ambients around negative definite rational Grams.

    The exceptional curves take random positions in a shuffled order.
    """
    for ne, ns in ((0, 2), (1, 1), (1, 2), (3, 2), (6, 3)):
        gram = negative_definite(rng, ne)
        n = ne + ns
        exceptional = rng.sample(range(n), ne)
        strict = [i for i in range(n) if i not in exceptional]
        rows = [[F(0)] * n for _ in range(n)]
        for a, i in enumerate(exceptional):
            for b, j in enumerate(exceptional):
                rows[i][j] = gram[a][b]
        for s in strict:
            for t in strict:
                rows[s][t] = rows[t][s] = rational(rng)
            for e in exceptional:
                if rng.random() < 0.6:
                    rows[s][e] = rows[e][s] = rational(rng, -3, 3)
        model = SurfaceModel(tuple(f"c{i}" for i in range(n)), SymmetricPairing.from_rows(rows))
        yield rows, ResolutionData(model, tuple(exceptional))


def oracle_pullback(rows, exceptional, strict):
    gram = [[rows[i][j] for j in exceptional] for i in exceptional]
    image = matvec(rows, strict)
    x = oracle_solve(gram, [-image[j] for j in exceptional]) if exceptional else ()
    pulled = list(strict)
    for position, c in zip(exceptional, x):
        pulled[position] += c
    return tuple(pulled)


def test_pullbacks_and_intersections_equal_the_fraction_oracle():
    rng = random.Random(63)
    for rows, res in resolutions(rng):
        n = len(rows)
        exceptional = res.exceptional_indices
        for _ in range(6):
            # strict transforms with denominators, some all-int, some zero on the exceptional positions
            u, v = (
                tuple(rational(rng) if rng.random() < 0.5 else rng.randint(-2, 2) for _ in range(n))
                for _ in range(2)
            )
            if rng.random() < 0.5:
                u = tuple(0 if i in exceptional else x for i, x in enumerate(u))
            if rng.random() < 0.3:
                v = tuple(rng.randint(-2, 2) for _ in range(n))
            p1, p2 = mumford_pullback(res, u), mumford_pullback(res, v)
            assert p1 == oracle_pullback(rows, exceptional, u)
            assert p2 == oracle_pullback(rows, exceptional, v)
            assert all(type(a) is F for a in p1 + p2)
            value = weil_intersect(res, u, v)
            assert value == dot(p1, matvec(rows, p2)) and type(value) is F


def test_one_matrix_is_one_pairing_however_it_is_spelled():
    rng = random.Random(64)
    built = []
    for rows in rational_forms():
        n, scale = len(rows), fresh_scale(rows)
        # the form, and the form times its scale, whose own scale is 1
        for matrix, own_scale in ((rows, scale), ([[int(a * scale) for a in row] for row in rows], 1)):
            exact = [[F(a) for a in row] for row in matrix]
            # the matrix at shuffled positions of a larger rational form with its own denominators
            extra = rng.randint(1, 3)
            big, positions = symmetric(rng, n + extra), rng.sample(range(n + extra), n)
            for a, i in enumerate(positions):
                for b, j in enumerate(positions):
                    big[i][j] = exact[a][b]
            pairing = SymmetricPairing.from_rows(exact)
            for spelling in (
                SymmetricPairing.from_rows([[int(a) if a.denominator == 1 else a for a in row] for row in exact]),
                SymmetricPairing.from_rows([[format_rational(a) for a in row] for row in exact]),
                SymmetricPairing.from_rows(big).restrict(positions),
            ):
                assert spelling == pairing and hash(spelling) == hash(pairing)
                assert spelling._numerators == pairing._numerators and spelling._scale == own_scale
            built.append((exact, pairing))
            if n:
                i, j = rng.randrange(n), rng.randrange(n)
                changed = [list(row) for row in exact]
                changed[i][j] = changed[j][i] = exact[i][j] + F(1, rng.choice(DENOMINATORS))
                built.append((changed, SymmetricPairing.from_rows(changed)))
                assert built[-1][1] != pairing
    # pairings are equal exactly when their matrices are
    unequal = 0
    for a, (rows_a, p) in enumerate(built):
        for rows_b, q in built[a + 1 :]:
            assert (p == q) == (rows_a == rows_b)
            unequal += p != q
    assert unequal > len(built) ** 2 // 3


def test_queries_leave_the_fraction_view_unbuilt():
    # a (-2)-chain of length 12 with a strict (-1)-curve meeting each end
    length, n = 12, 14
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = rows[1][1] = -1
    rows[0][2] = rows[2][0] = rows[1][n - 1] = rows[n - 1][1] = 1
    for i, row in enumerate(chain(length)):
        rows[2 + i][2:] = row
    model = SurfaceModel(tuple(f"c{i}" for i in range(n)), SymmetricPairing.from_rows(rows))
    cases = [(rows, ResolutionData(model, tuple(range(2, n))))]
    for rows, res in cases + list(resolutions(random.Random(65))):
        n, exceptional = len(rows), res.exceptional_indices
        exact = [[F(a) for a in row] for row in rows]
        strict = [a for a in range(n) if a not in exceptional]
        u, v = (tuple(int(k == a) for k in range(n)) for a in (strict[0], strict[-1]))
        pulled = oracle_pullback(exact, exceptional, u), oracle_pullback(exact, exceptional, v)
        assert weil_intersect(res, u, v) == dot(pulled[0], matvec(exact, pulled[1]))
        ambient, gram = res.ambient.pairing, res.exceptional_gram
        assert "entries" not in vars(ambient) and "entries" not in vars(gram)
        assert ambient.entries == tuple(tuple(map(F, row)) for row in rows)
        assert gram.entries == tuple(tuple(F(rows[i][j]) for j in exceptional) for i in exceptional)
        assert all(type(a) is F for row in ambient.entries + gram.entries for a in row)
