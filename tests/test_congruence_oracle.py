"""The cached congruence P^T A P = D against an independent stdlib oracle.

The oracle is the Faddeev-LeVerrier characteristic polynomial, computed in
integers after clearing denominators (scaling A by a positive constant
scales its eigenvalues and keeps their signs), with Descartes' rule of
signs read off it. Descartes' count is exact here: the characteristic
polynomial of a symmetric matrix has only real roots, so the sign changes
of p(t) and p(-t) count its positive and negative roots, and the lowest
nonzero coefficient's degree counts the zero roots.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from folcan.errors import DimensionMismatch, InvalidInput, SingularMatrix
from folcan.exact_core import SymmetricPairing, signature, solve_linear
from folcan.surface_model import ResolutionData, SurfaceModel, mumford_pullback, weil_intersect

F = Fraction


def charpoly(rows):
    """Coefficients c_0..c_n of det(t I - A) for A scaled to integers.

    Faddeev-LeVerrier: M_1 = I, c_{n-k} = -tr(A M_k) / k and
    M_{k+1} = A M_k + c_{n-k} I; every division is exact over the integers.
    """
    n = len(rows)
    scale = math.lcm(1, *(F(a).denominator for row in rows for a in row))
    sparse = [[(l, int(F(a) * scale)) for l, a in enumerate(row) if a] for row in rows]
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = []
        for row in sparse:
            acc = [0] * n
            for l, a in row:
                acc = [x + a * y for x, y in zip(acc, m[l])]
            am.append(acc)
        trace = sum(am[i][i] for i in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
        m = am
        for i in range(n):
            m[i][i] += coeffs[n - k]
    return coeffs


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def oracle_inertia(rows):
    coeffs = charpoly(rows)
    zeros = next(k for k, c in enumerate(coeffs) if c)
    rest = coeffs[zeros:]
    positives = sign_changes(rest)
    negatives = sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(rest)])
    assert positives + negatives + zeros == len(rows)
    return (positives, negatives, zeros), coeffs[0]


def matvec(rows, x):
    return tuple(sum((F(a) * b for a, b in zip(row, x)), F(0)) for row in rows)


def symmetric(n, entry):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = entry()
    return rows


def congruent(rng, n, diag):
    """B^T diag(d) B for a random integer B with len(d) rows: rank <= len(d)."""
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(len(diag))]
    return [
        [F(sum(diag[k] * b[k][i] * b[k][j] for k in range(len(diag)))) for j in range(n)]
        for i in range(n)
    ]


def chain(length):
    return [[-2 if i == j else int(abs(i - j) == 1) for j in range(length)] for i in range(length)]


def dense_negative(rng, n):
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [[-sum(b[k][i] * b[k][j] for k in range(n)) - (i == j) for j in range(n)] for i in range(n)]


def random_forms():
    rng = random.Random(20261018)
    forms = [
        [[0, 1], [1, 0]],
        [[0, 1], [1, 1]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]],
        [[0]],
        [],
    ]
    for _ in range(150):
        n = rng.randint(1, 6)
        kind = rng.randrange(4)
        if kind == 0:  # indefinite, mixed denominators
            forms.append(symmetric(n, lambda: F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))))
        elif kind == 1:  # zero diagonal: hyperbolic steps
            rows = symmetric(n, lambda: F(rng.choice([-1, 0, 0, 1, 2])))
            for i in range(n):
                rows[i][i] = F(0)
            forms.append(rows)
        elif kind == 2:  # singular of a chosen rank, possibly indefinite
            rank = rng.randint(0, n - 1)
            forms.append(congruent(rng, n, [rng.choice([-1, 1, 2]) for _ in range(rank)]))
        else:  # sparse, with zeros scattered on the diagonal
            forms.append(symmetric(n, lambda: F(rng.choice([0, 0, 0, -1, 1]))))
    return forms


def check_against_oracle(rows, rng):
    pairing = SymmetricPairing.from_rows(rows)
    inertia, constant = oracle_inertia(rows)
    assert signature(pairing) == inertia
    b = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in rows)
    if constant == 0:
        with pytest.raises(SingularMatrix):
            solve_linear(pairing, b)
    else:
        x = solve_linear(pairing, b)
        assert matvec(rows, x) == b
    return constant


def test_random_forms_match_the_oracle():
    rng = random.Random(7)
    verdicts = set()
    for rows in random_forms():
        verdicts.add(check_against_oracle(rows, rng) == 0)
    assert verdicts == {True, False}


def test_oracle_on_known_forms():
    assert oracle_inertia([[0, 1], [1, 0]]) == ((1, 1, 0), -1)
    assert oracle_inertia([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) == ((1, 1, 1), 0)
    assert oracle_inertia(chain(3)) == ((0, 3, 0), 4)  # c_0 = det(-A)


@pytest.mark.parametrize("length", [1, 2, 5, 16, 64, 128])
def test_chains_match_the_oracle(length):
    rows = chain(length)
    check_against_oracle(rows, random.Random(length))
    assert signature(SymmetricPairing.from_rows(rows)) == (0, length, 0)


def test_dense_negative_grams_match_the_oracle():
    rng = random.Random(28)
    for n in (1, 3, 8, 14):
        check_against_oracle(dense_negative(rng, n), rng)


def test_the_runs_rebuild_the_congruence():
    """P rebuilt from the runs alone carries A to the recorded diagonal, exactly."""
    rng = random.Random(1019)
    lengths = (1, 2, 9, 33)
    forms = random_forms() + [chain(n) for n in lengths] + [dense_negative(rng, n) for n in (3, 8)]
    hyperbolic = 0  # runs of the hyperbolic step's shape (j, ((i, 1),), 1)
    for rows in forms:
        runs, diagonal = SymmetricPairing.from_rows(rows).congruence
        n = len(rows)
        p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for k, terms, m in runs:
            assert m != 0 and terms and all(c != 0 and l != k for l, c in terms)
            hyperbolic += m == 1 and len(terms) == 1 and terms[0][1] == 1
            for l, c in terms:
                for row in p:
                    row[l] += F(c, m) * row[k]
        columns = list(zip(*p))
        images = [matvec(rows, v) for v in columns]
        d = [[sum((a * b for a, b in zip(u, image)), F(0)) for image in images] for u in columns]
        assert all(q > 0 and math.gcd(num, q) == 1 for num, q in diagonal)
        assert d == [[F(*diagonal[i]) if i == j else 0 for j in range(n)] for i in range(n)]
    assert hyperbolic > 0
    for n in lengths:
        runs, _ = SymmetricPairing.from_rows(chain(n)).congruence
        assert len(runs) == n - 1 and all(len(terms) == 1 for _, terms, _ in runs)


def a_chain_model(length, meets):
    """Strict curves of square -1, curve a meeting the chain curve meets[a] (1-based)."""
    ns = len(meets)
    n = ns + length
    rows = [[0] * n for _ in range(n)]
    for a, i in enumerate(meets):
        rows[a][a] = -1
        rows[a][ns + i - 1] = rows[ns + i - 1][a] = 1
    for i, row in enumerate(chain(length)):
        rows[ns + i][ns:] = row
    model = SurfaceModel(tuple(f"c{i}" for i in range(n)), SymmetricPairing.from_rows(rows))
    return ResolutionData(model, tuple(range(ns, n)))


def test_weil_intersect_on_a_long_chain_is_the_a_n_closed_form():
    length = 128
    meets = (1, 40, 64, 128)
    res = a_chain_model(length, meets)

    def inverse_cartan(i, j):
        return F(min(i, j) * (length + 1 - max(i, j)), length + 1)

    unit = [tuple(int(k == a) for k in range(res.ambient.rank)) for a in range(len(meets))]
    for a, i in enumerate(meets):
        for b, j in enumerate(meets):
            expected = (-1 if a == b else 0) + inverse_cartan(i, j)
            assert weil_intersect(res, unit[a], unit[b]) == expected


def test_one_resolution_factors_its_gram_once(monkeypatch):
    calls = []
    factor = SymmetricPairing.congruence.func

    def counting(self):
        calls.append(self)
        return factor(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(SymmetricPairing, "congruence")
    monkeypatch.setattr(SymmetricPairing, "congruence", counted)
    res = a_chain_model(32, (3, 17))
    assert len(calls) == 1
    rng = random.Random(3)
    for _ in range(20):
        strict = tuple(F(rng.randint(-3, 3)) for _ in range(res.ambient.rank))
        mumford_pullback(res, strict)
    assert weil_intersect(res, (1, 0) + (0,) * 32, (0, 1) + (0,) * 32) == F(3 * 16, 33)
    assert len(calls) == 1 and calls[0] is res.exceptional_gram


def test_sparse_products_match_a_dense_reference():
    rng = random.Random(1018)
    zero_rows = [[0, 0, 0], [0, -2, 1], [0, 1, 0]]
    forms = random_forms() + [chain(n) for n in (1, 2, 9, 33)] + [dense_negative(rng, 6), zero_rows]

    def sparse_vector(n):
        return tuple(F(rng.choice((0, 0, rng.randint(-5, 5))), rng.randint(1, 3)) for _ in range(n))

    for rows in forms:
        pairing = SymmetricPairing.from_rows(rows)
        n = len(rows)
        for _ in range(3):
            u, v = sparse_vector(n), sparse_vector(n)
            image = pairing.apply(v)
            assert image == matvec(rows, v) and all(type(x) is F for x in image)
            value = pairing.pair(u, v)
            assert value == sum((a * b for a, b in zip(u, matvec(rows, v))), F(0)) and type(value) is F
        for length in {n - 1, n + 1} - {-1}:
            bad = (F(1),) * length
            with pytest.raises(DimensionMismatch):
                pairing.apply(bad)
            with pytest.raises(DimensionMismatch):
                pairing.pair(bad, (F(0),) * n)
            with pytest.raises(DimensionMismatch):
                pairing.pair((F(0),) * n, bad)
        # a restriction equals the validated submatrix, in products and in its factor
        indices = rng.sample(range(n), rng.randint(0, n))
        sub = pairing.restrict(indices)
        reference = SymmetricPairing.from_rows([[rows[i][j] for j in indices] for i in indices])
        assert sub == reference and sub.nonzeros == reference.nonzeros
        assert signature(sub) == signature(reference)
        w = sparse_vector(len(indices))
        assert sub.apply(w) == reference.apply(w)
        for bad_indices in ([n], [True], [1.0]):
            with pytest.raises(InvalidInput):
                pairing.restrict(bad_indices)


def rational_dense_negative(rng, n):
    """-(B^T B + I) for a random B with entries of denominator 1, 2 or 3."""
    b = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
    return [[-sum((b[k][i] * b[k][j] for k in range(n)), F(0)) - (i == j) for j in range(n)] for i in range(n)]


def embed(rng, gram, strict_count):
    """An ambient model with the exceptional Gram ``gram`` and strict curves at random positions.

    The exceptional curves take the remaining positions in a shuffled
    order, so neither set is a contiguous block.
    """
    ne = len(gram)
    n = ne + strict_count
    strict = rng.sample(range(1, n - 1), strict_count)
    exceptional = [i for i in range(n) if i not in strict]
    rng.shuffle(exceptional)
    rows = [[F(0)] * n for _ in range(n)]
    for a, i in enumerate(exceptional):
        for b, j in enumerate(exceptional):
            rows[i][j] = F(gram[a][b])
    for s in strict:
        for t in strict:
            rows[s][t] = rows[t][s] = F(rng.randint(-3, 3), rng.choice((1, 2)))
        for e in rng.sample(exceptional, min(ne, 3)):
            rows[s][e] = rows[e][s] = F(rng.randint(-2, 2), rng.choice((1, 1, 3)))
    model = SurfaceModel(tuple(f"c{i}" for i in range(n)), SymmetricPairing.from_rows(rows))
    return ResolutionData(model, tuple(exceptional))


def check_at_bench_size(gram, res, rng):
    pairing = SymmetricPairing.from_rows(gram)
    inertia, _ = oracle_inertia(gram)
    assert signature(pairing) == inertia == (0, len(gram), 0)
    assert signature(res.exceptional_gram) == inertia
    for _ in range(2):
        b = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in gram)
        x = solve_linear(pairing, b)
        assert matvec(gram, x) == b and all(type(v) is F for v in x)
    n = res.ambient.rank
    for _ in range(3):
        u, v = (
            tuple(F(rng.choice((0, 0, rng.randint(-4, 4))), rng.choice((1, 2))) for _ in range(n))
            for _ in range(2)
        )
        p1, p2 = mumford_pullback(res, u), mumford_pullback(res, v)
        assert all(type(a) is F for a in p1 + p2)
        image = res.ambient.pairing.apply(p2)
        assert all(image[j] == 0 for j in res.exceptional_indices)
        value = weil_intersect(res, u, v)
        assert value == res.ambient.pairing.pair(p1, p2) and type(value) is F


@pytest.mark.parametrize("rank", [8, 17, 30])
def test_dense_rational_grams_at_bench_size(rank):
    rng = random.Random(1000 + rank)
    gram = rational_dense_negative(rng, rank)
    check_at_bench_size(gram, embed(rng, gram, 3), rng)


@pytest.mark.parametrize("length", [16, 77, 128])
def test_chains_with_scattered_strict_curves_at_bench_size(length):
    rng = random.Random(2000 + length)
    gram = chain(length)
    check_at_bench_size(gram, embed(rng, gram, 4), rng)


def test_an_empty_exceptional_set_pairs_in_the_ambient():
    rng = random.Random(3000)
    rows = symmetric(9, lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3))))
    res = ResolutionData(SurfaceModel(tuple(f"c{i}" for i in range(9)), SymmetricPairing.from_rows(rows)), ())
    for _ in range(5):
        u = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(9))
        v = tuple(rng.randint(-3, 3) for _ in range(9))
        assert mumford_pullback(res, u) == u
        value = weil_intersect(res, u, v)
        assert value == sum((a * b for a, b in zip(u, matvec(rows, v))), F(0)) and type(value) is F


def test_zero_diagonal_forms_with_denominators_match_the_oracle():
    """Hyperbolic steps on rows whose entries have denominators other than 1."""
    rng = random.Random(99)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        rows = symmetric(n, lambda: F(rng.choice([0, 0, 1, -1, 2]), rng.choice([1, 2, 3, 5])))
        for i in range(n):
            if rng.random() < 0.8:
                rows[i][i] = F(0)
        verdicts.add(check_against_oracle(rows, rng) == 0)
    assert verdicts == {True, False}
