"""Pullbacks and pairings read the ambient rows they use, not the whole form.

A pairing scans a row of its integer form for its nonzeros the first time
the row is read and keeps it (``SymmetricPairing._row``); the full tuple
``nonzeros`` is built only for the congruence, which reads every row.
"""

import functools
import random
from fractions import Fraction

from folcan.exact_core import SymmetricPairing
from folcan.surface_model import mumford_pullback, weil_intersect
from test_congruence_oracle import a_chain_model, chain, random_forms, rational_dense_negative

F = Fraction


def test_pullbacks_read_only_the_rows_they_use(monkeypatch):
    calls = []
    scan = SymmetricPairing.nonzeros.func

    def counting(self):
        calls.append(self)
        return scan(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(SymmetricPairing, "nonzeros")
    monkeypatch.setattr(SymmetricPairing, "nonzeros", counted)
    meets = (3, 17, 64, 128)
    res = a_chain_model(128, meets)
    ambient, rank, strict_count = res.ambient.pairing, res.ambient.rank, len(meets)
    # the congruence reads every row of the exceptional Gram, and nothing else is scanned whole
    assert len(calls) == 1 and calls[0] is res.exceptional_gram
    rng = random.Random(14)
    read = set(range(strict_count))  # weil_intersect pairs over the strict rows
    for _ in range(20):
        strict = [F(0)] * rank
        for a in rng.sample(range(strict_count), 2):
            strict[a] = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))
        strict[rng.randrange(strict_count, rank)] = F(rng.randint(1, 3))
        read |= {i for i, x in enumerate(strict) if x}
        pulled = mumford_pullback(res, strict)
        # a written-out product: the pullback pairs to zero with every exceptional curve
        assert all(sum(a * x for a, x in zip(ambient.entries[e], pulled)) == 0 for e in res.exceptional_indices)
    unit = [tuple(int(k == a) for k in range(rank)) for a in range(strict_count)]
    assert weil_intersect(res, unit[0], unit[1]) == F(3 * (129 - 17), 129)
    assert len(calls) == 1 and calls[0] is res.exceptional_gram
    assert set(ambient._scanned) == read


def separate_zeros(rng, n):
    """A symmetric Fraction matrix whose every zero is its own ``Fraction(0)``."""
    rows = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
    return rows


def test_rows_read_on_demand_equal_the_full_scan():
    rng = random.Random(2815)
    zero_rows = [[0, 0, 0, 0], [0, -2, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    forms = random_forms() + [chain(9), rational_dense_negative(rng, 7), zero_rows]
    forms += [separate_zeros(rng, n) for n in (1, 4, 9, 16)]
    for rows in forms:
        n = len(rows)
        whole = SymmetricPairing.from_rows(rows)
        lazy = SymmetricPairing.from_rows(rows)
        if rows is forms[-1]:
            zeros = [a for row in rows for a in row if a == 0]
            assert len(zeros) > 1 and len(set(map(id, zeros))) == len(zeros)
        # the rows hold numerators over the scale: the Fraction entries times _scale
        scale = whole._scale
        assert lazy._scale == scale
        reference = tuple(tuple((j, F(a) * scale) for j, a in enumerate(row) if F(a) != 0) for row in rows)
        assert whole.nonzeros == reference
        assert all(type(a) is int for row in whole.nonzeros for _, a in row)
        order = rng.sample(range(n), n)
        for i in order[: (n + 1) // 2]:
            row = lazy._row(i)
            assert row == reference[i] and lazy._row(i) is row
            assert all(type(a) is int for _, a in row)
        # the full tuple reuses the rows already read and scans the rest
        assert lazy.nonzeros == reference
        assert all(lazy.nonzeros[i] is lazy._row(i) for i in range(n))

