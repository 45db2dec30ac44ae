import random
from fractions import Fraction

import pytest

import folcan.surface_model
from folcan.errors import DimensionMismatch, InvalidInput, NotNegativeDefinite
from folcan.lattice import SymmetricPairing
from folcan.surface_model import (
    AmplitudeVerdict,
    ResolutionData,
    SurfaceModel,
    mumford_pullback,
    nef_check,
    numerical_amplitude_check,
    validate_resolution,
    weil_intersect,
)


def F(num, den=1):
    return Fraction(num, den)


def model(rows, labels=None, **kwargs):
    labels = labels or tuple(f"e{i}" for i in range(len(rows)))
    return SurfaceModel(tuple(labels), SymmetricPairing.from_rows(rows), **kwargs)


# ruled-surface lattice <C0, F>: C0^2 = -2, F^2 = 0, C0.F = 1
RULED = model([[-2, 1], [1, 0]], labels=("C0", "f"))


def test_model_validation():
    with pytest.raises(DimensionMismatch):
        model([[0, 1], [1, 0]], labels=("a",))
    with pytest.raises(InvalidInput):
        model([[0, 1], [1, 0]], labels=("a", "a"))
    with pytest.raises(InvalidInput, match="nonempty strings"):
        model([[0, 1], [1, 0]], labels=("a", ""))
    with pytest.raises(DimensionMismatch):
        model([[1]], canonical_class=(1, 2))
    with pytest.raises(DimensionMismatch):
        model([[1]], distinguished_classes={"D": (1, 2)})


def test_resolve_class():
    m = model([[0, 1], [1, 0]], labels=("a", "b"), canonical_class=(1, 1), distinguished_classes={"D": (2, 3)})
    assert m.resolve_class("K") == (F(1), F(1))
    assert m.resolve_class("D") == (F(2), F(3))
    assert m.resolve_class("b") == (F(0), F(1))
    with pytest.raises(InvalidInput):
        m.resolve_class("missing")


def test_resolution_validation():
    good = model([[0, 1], [1, -2]])
    ResolutionData(good, (1,))
    chain = model([[1, 0, 0], [0, -2, 1], [0, 1, -2]])
    res = ResolutionData(chain, (1, 2))
    validate_resolution(res)
    with pytest.raises(NotNegativeDefinite) as info:
        ResolutionData(model([[0, 1], [1, 0]]), (1,))
    assert info.value.context["signature"] == (0, 0, 1)
    with pytest.raises(InvalidInput):
        ResolutionData(good, (1, 1))
    with pytest.raises(InvalidInput):
        ResolutionData(good, (2,))


def test_resolution_rejects_non_integer_positions():
    good = model([[0, 1], [1, -2]])
    for bad in (1.7, True, "1", 1.0):
        with pytest.raises(InvalidInput, match="exceptional position must be an integer"):
            ResolutionData(good, (bad,))
    with pytest.raises(InvalidInput, match="exceptional position -1 outside lattice of rank 2"):
        ResolutionData(good, (-1,))


def chain(n):
    # a (-2)-chain of n curves, all of them exceptional
    return model([[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)])


def test_exceptional_rank_limit_admits_long_chains():
    assert folcan.surface_model.MAX_EXCEPTIONAL_RANK == 160
    assert ResolutionData(chain(128), tuple(range(128))).exceptional_gram.dimension == 128
    with pytest.raises(InvalidInput) as info:
        ResolutionData(chain(161), tuple(range(161)))
    assert str(info.value) == "the exceptional rank 161 is above the limit of 160"
    assert info.value.context == {"exceptional_rank": 161, "limit": 160}


def test_exceptional_rank_limit_refuses_before_the_factor(monkeypatch):
    def never(res):
        raise AssertionError("a refused resolution was factored")

    monkeypatch.setattr(folcan.surface_model, "MAX_EXCEPTIONAL_RANK", 3)
    assert ResolutionData(chain(3), (0, 1, 2)).exceptional_indices == (0, 1, 2)
    monkeypatch.setattr(folcan.surface_model, "validate_resolution", never)
    for indices in ((0, 1, 2, 3), (0, 1, 2, 3, 4)):
        with pytest.raises(InvalidInput) as info:
            ResolutionData(chain(5), indices)
        assert info.value.context == {"exceptional_rank": len(indices), "limit": 3}


def test_pullback_single_curve():
    # one exceptional curve with square -2 met once by the strict transform
    res = ResolutionData(model([[0, 1], [1, -2]]), (1,))
    assert mumford_pullback(res, (1, 0)) == (F(1), F(1, 2))


def test_pullback_orthogonal_is_identity():
    res = ResolutionData(model([[3, 0], [0, -2]]), (1,))
    assert mumford_pullback(res, (5, 0)) == (F(5), F(0))


def test_pullback_chain():
    rows = [[1, 1, 0], [1, -2, 1], [0, 1, -2]]
    res = ResolutionData(model(rows), (1, 2))
    assert mumford_pullback(res, (1, 0, 0)) == (F(1), F(2, 3), F(1, 3))


def test_pullback_no_exceptional():
    res = ResolutionData(model([[2]]), ())
    assert mumford_pullback(res, (7,)) == (F(7),)


def test_weil_intersect_examples():
    res = ResolutionData(model([[0, 1], [1, -2]]), (1,))
    assert weil_intersect(res, (1, 0), (1, 0)) == F(1, 2)

    diag = ResolutionData(model([[3, 0], [0, -2]]), (1,))
    assert weil_intersect(diag, (2, 0), (1, 0)) == 6

    # one factor orthogonal to the exceptional curve kills its correction
    mixed = ResolutionData(model([[1, 0, 0], [0, 2, 1], [0, 1, -2]]), (2,))
    assert weil_intersect(mixed, (3, 0, 0), (1, 1, 0)) == 3


def random_resolution(rng, ne, ns):
    # exceptional block -B^T B - I, arbitrary strict block and cross terms
    n = ne + ns
    b = [[rng.randint(-3, 3) for _ in range(ne)] for _ in range(ne)]
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(ne):
        for j in range(ne):
            rows[ns + i][ns + j] = F(-sum(b[k][i] * b[k][j] for k in range(ne)) - (1 if i == j else 0))
    for i in range(ns):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = F(rng.randint(-4, 4))
        for j in range(ne):
            rows[i][ns + j] = rows[ns + j][i] = F(rng.randint(-3, 3))
    ambient = model(rows)
    return ResolutionData(ambient, tuple(range(ns, n)))


def test_pullback_orthogonality_property():
    rng = random.Random(20260822)
    for _ in range(120):
        ne, ns = rng.randint(1, 4), rng.randint(1, 3)
        res = random_resolution(rng, ne, ns)
        strict = [F(rng.randint(-5, 5), rng.choice([1, 2])) for _ in range(ne + ns)]
        pulled = mumford_pullback(res, strict)
        image = res.ambient.pairing.apply(pulled)
        for j in res.exceptional_indices:
            assert image[j] == 0
        # Cartier case: an already-orthogonal class is untouched
        if all(res.ambient.pairing.apply(strict)[j] == 0 for j in res.exceptional_indices):
            assert pulled == tuple(strict)


def test_weil_bilinear_symmetric():
    rng = random.Random(31)
    for _ in range(40):
        res = random_resolution(rng, rng.randint(1, 3), rng.randint(1, 2))
        n = res.ambient.rank
        a = [F(rng.randint(-4, 4)) for _ in range(n)]
        b = [F(rng.randint(-4, 4)) for _ in range(n)]
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        lam = F(rng.randint(-3, 3), rng.choice([1, 2]))
        assert weil_intersect(res, a, b) == weil_intersect(res, b, a)
        combo = tuple(x + lam * y for x, y in zip(b, c))
        assert weil_intersect(res, a, combo) == weil_intersect(res, a, b) + lam * weil_intersect(res, a, c)


def test_amplitude_examples():
    point = model([[1]])
    assert numerical_amplitude_check(point, (1,), [(1,)]) == AmplitudeVerdict(True, True)

    d = (1, 2)  # C0 + 2f
    verdict = numerical_amplitude_check(RULED, d, [(1, 0), (0, 1)])
    assert RULED.square(d) == 2
    assert verdict.big and not verdict.strictly_positive_on_curves

    verdict = numerical_amplitude_check(RULED, (1, 3), [(1, 0), (0, 1)])
    assert verdict == AmplitudeVerdict(True, True)


def test_nef_examples():
    assert nef_check(RULED, (0, 0), [(1, 0), (0, 1)])
    assert nef_check(RULED, (1, 2), [(1, 0), (0, 1)])
    assert not nef_check(RULED, (1, 1), [(1, 0), (0, 1)])
    with pytest.raises(DimensionMismatch):
        nef_check(RULED, (1, 1, 1), [])
