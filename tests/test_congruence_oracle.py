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

from folcan.errors import DimensionMismatch, InvalidInput, NotNegativeDefinite, SingularMatrix
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


def test_the_factor_rebuilds_the_congruence():
    """The shears and pivot rows alone carry the integer form to Q^T N Q = U^T diag(1 / (p_{t-1} p_t)) U, exactly."""
    rng = random.Random(1019)
    lengths = (1, 2, 9, 33)
    forms = random_forms() + [chain(n) for n in lengths] + [dense_negative(rng, n) for n in (3, 8)]
    sheared = 0
    for rows in forms:
        pairing = SymmetricPairing.from_rows(rows)
        order, pivot_rows, minors, shears, zeros = pairing.congruence
        n = len(rows)
        assert sorted(order + zeros) == list(range(n)) and list(zeros) == sorted(zeros)
        assert len(minors) == len(order) + 1 and minors[0] == 1 and 0 not in minors
        sheared += bool(shears)
        # N = A * scale, then each shear e_k -> e_k + e_j on columns and rows, in order
        m = [[F(a) * pairing._scale for a in row] for row in rows]
        for k, j in shears:
            for row in m:
                row[k] += row[j]
            m[k] = [a + b for a, b in zip(m[k], m[j])]
        u = []
        for t, (k, row) in enumerate(zip(order, pivot_rows)):
            line = [0] * n
            line[k] = minors[t + 1]
            for l, a in row:
                # only columns still pending at pivot t, each at most once, none zero
                assert a != 0 and l not in order[: t + 1] and line[l] == 0
                line[l] = a
            u.append(line)
        dens = [minors[t] * minors[t + 1] for t in range(len(u))]
        rebuilt = [
            [sum((F(line[i] * line[j], d) for line, d in zip(u, dens)), F(0)) for j in range(n)]
            for i in range(n)
        ]
        assert rebuilt == m
    assert sheared > 0
    for n in lengths:
        _, pivot_rows, _, _, _ = SymmetricPairing.from_rows(chain(n)).congruence
        assert sum(map(len, pivot_rows)) == n - 1


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


def test_a_singular_solve_names_the_first_position_of_the_zero_block():
    """``SingularMatrix``'s ``column`` is the least position the elimination leaves unpivoted.

    Identically zero rows are never pivots, so on a nonsingular form with
    zero rows put in (some before every nonzero row) it is the first zero
    row; the written-out cases fix it where the zero block is not a zero row.
    """
    cases = [
        ([[0]], 0),
        ([[1, 1], [1, 1]], 1),
        ([[0, 0], [0, 1]], 0),
        ([[0, 0, 0], [0, -2, 1], [0, 1, 0]], 0),
        ([[1, 1, 0], [1, 1, 0], [0, 0, -1]], 1),
        ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2),
        ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], 0),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 2]], 1),
    ]
    rng = random.Random(2027)
    before = 0
    for rows in random_forms()[:60]:
        if not rows or oracle_inertia(rows)[1] == 0:
            continue
        n = len(rows) + rng.randint(1, 3)
        zero = sorted(rng.sample(range(n), n - len(rows)))
        before += zero[0] == 0
        padded = [[F(0)] * n for _ in range(n)]
        live = [i for i in range(n) if i not in zero]
        for i, row in zip(live, rows):
            for j, a in zip(live, row):
                padded[i][j] = F(a)
        cases.append((padded, zero[0]))
    assert before > 3
    for rows, column in cases:
        assert oracle_inertia(rows)[1] == 0
        with pytest.raises(SingularMatrix) as info:
            solve_linear(SymmetricPairing.from_rows(rows), [1] * len(rows))
        assert info.value.context["column"] == column


# Seeded faults: each one is put into a correct factor (or into ``restrict``)
# by monkeypatching, and each check named with it, which passes on the true
# factor as a test of its own, must then fail.


def first_minor_flipped(factor):
    minors = factor.minors
    return factor._replace(minors=minors[:1] + (-minors[1],) + minors[2:]) if len(minors) > 1 else factor


def first_shear_dropped(factor):
    return factor._replace(shears=factor.shears[1:])


def first_entry_dropped(factor):
    rows = list(factor.rows)
    t = next((t for t, row in enumerate(rows) if row), None)
    if t is not None:
        rows[t] = rows[t][1:]
    return factor._replace(rows=tuple(rows))


def first_pivots_swapped(factor):
    order = factor.order
    return factor._replace(order=order[1::-1] + order[2:]) if len(order) > 1 else factor


def oracle_check():
    rng = random.Random(7)
    for rows in random_forms():
        check_against_oracle(rows, rng)


def integer_form_checks():
    import test_integer_form

    test_integer_form.test_products_and_solves_equal_the_fraction_oracle()
    test_integer_form.test_pullbacks_and_intersections_equal_the_fraction_oracle()


CHECKS = {
    "oracle": oracle_check,
    "integer form": integer_form_checks,
    "A_n closed form": test_weil_intersect_on_a_long_chain_is_the_a_n_closed_form,
}


@pytest.mark.parametrize(
    "fault, check",
    [
        (first_minor_flipped, "oracle"),
        (first_minor_flipped, "integer form"),
        (first_minor_flipped, "A_n closed form"),
        (first_shear_dropped, "oracle"),
        (first_shear_dropped, "integer form"),
        (first_entry_dropped, "oracle"),
        (first_entry_dropped, "integer form"),
        (first_entry_dropped, "A_n closed form"),
        (first_pivots_swapped, "oracle"),
        (first_pivots_swapped, "integer form"),
        (first_pivots_swapped, "A_n closed form"),
    ],
)
def test_a_seeded_fault_in_the_factor_is_caught(monkeypatch, fault, check):
    factor = SymmetricPairing.congruence.func
    faulty = functools.cached_property(lambda self: fault(factor(self)))
    faulty.__set_name__(SymmetricPairing, "congruence")
    monkeypatch.setattr(SymmetricPairing, "congruence", faulty)
    # a wrong inertia stops a resolution at its validation, a wrong solve at an assertion
    with pytest.raises((AssertionError, NotNegativeDefinite)):
        CHECKS[check]()


@pytest.mark.parametrize("check", ["integer form", "A_n closed form"])
def test_a_factor_left_cached_across_restrict_is_caught(monkeypatch, check):
    restrict = SymmetricPairing.restrict

    def stale(self, indices):
        sub = restrict(self, indices)
        sub.__dict__["congruence"] = self.congruence
        return sub

    monkeypatch.setattr(SymmetricPairing, "restrict", stale)
    with pytest.raises((AssertionError, NotNegativeDefinite)):
        CHECKS[check]()
