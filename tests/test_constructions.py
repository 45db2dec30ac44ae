import itertools
import random
from fractions import Fraction

import pytest

from folcan.constructions import (
    AbelianCoverInput,
    ConstructionReport,
    FibrationNumbers,
    RuledCoverInput,
    abelian_double_cover,
    fibration_identities,
    riemann_hurwitz,
    ruled_double_cover,
    to_model_numerics,
)
from folcan.baskets import terminal_cyclic
from folcan.bounds import kx2_bounds
from folcan.errors import InvalidInput, NegativeGenus, NonIntegralGenus
from folcan.lattice import SymmetricPairing
from folcan.riemann_roch import hilbert_value, integrality_check


def F(num, den=1):
    return Fraction(num, den)


# (call taking the checked value, name in the message, minimum)
INTEGER_ARGUMENTS = [
    (lambda v: RuledCoverInput(k=v, g=2, q=0), "k", 1),
    (lambda v: RuledCoverInput(k=2, g=v, q=0), "g", 2),
    (lambda v: RuledCoverInput(k=2, g=2, q=v), "q", 0),
    (lambda v: AbelianCoverInput(d=v, n=0), "d", 2),
    (lambda v: AbelianCoverInput(d=2, n=v), "n", 0),
    (lambda v: riemann_hurwitz(v, 2, 6), "g_base", 0),
    (lambda v: riemann_hurwitz(0, v, 6), "degree", 1),
    (lambda v: riemann_hurwitz(0, 2, v), "ram_degree", 0),
    (lambda v: fibration_identities(1, v, 0), "fiber_genus", 2),
    (lambda v: fibration_identities(1, 2, v), "base_genus", 0),
    (terminal_cyclic, "terminal cyclic index", 2),
]


@pytest.mark.parametrize("call,name,minimum", INTEGER_ARGUMENTS, ids=[a[1] for a in INTEGER_ARGUMENTS])
def test_integer_arguments_reject_non_integers_and_small_values(call, name, minimum):
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(minimum, f"an integer >= {minimum}")
    for bad in (2.0, True, "2", minimum - 1):
        with pytest.raises(InvalidInput) as info:
            call(bad)
        assert str(info.value) == f"{name} must be {kind}, got {bad!r}"


def test_input_validation():
    with pytest.raises(InvalidInput):
        RuledCoverInput(k=3, g=2, q=0)  # odd twist
    with pytest.raises(InvalidInput):
        RuledCoverInput(k=0, g=2, q=0)
    with pytest.raises(InvalidInput):
        RuledCoverInput(k=2, g=1, q=0)
    with pytest.raises(InvalidInput):
        RuledCoverInput(k=2, g=2, q=-1)
    with pytest.raises(InvalidInput):
        AbelianCoverInput(d=1, n=0)
    with pytest.raises(InvalidInput):
        AbelianCoverInput(d=2, n=-1)


def test_ruled_reference_values():
    report = ruled_double_cover(RuledCoverInput(k=2, g=2, q=2))
    assert report.kf2 == 8
    assert report.kf_dot_kx == 12
    assert report.fiber_genus == 2

    far_base = ruled_double_cover(RuledCoverInput(k=2, g=2, q=5))
    assert far_base.kf2 == 8  # unchanged by the base genus
    assert far_base.kf_dot_kx == 24


def test_ruled_grid_matches_closed_forms():
    for k in (2, 4, 6):
        for g in (2, 3, 4):
            for q in (0, 2, 5):
                report = ruled_double_cover(RuledCoverInput(k=k, g=g, q=q))
                assert report.kf2 == 2 * k * g * (g - 1)
                assert report.fiber_genus == g
                assert report.kf_dot_kx - report.kf2 == 4 * (g - 1) * (q - 1)


def test_ruled_auxiliary():
    report = ruled_double_cover(RuledCoverInput(k=2, g=2, q=0))
    aux = report.auxiliary
    assert aux["branch_dot_fiber"] == 6  # 2g + 2 branch points per fiber
    assert aux["branch_class"] == (F(6), F(10))
    assert aux["section_square"] == -2
    assert aux["K_foliation_rep"] == (F(1), F(3))
    assert len(report.assumptions) == 2


def test_abelian_reference_values():
    report = abelian_double_cover(AbelianCoverInput(d=2, n=1))
    assert report.fiber_genus == 5
    assert report.auxiliary["polarization_dot_graph"] == 8
    assert report.kf2 == report.kf_dot_kx == 16
    assert report.auxiliary["polarization_square"] == 32
    assert report.auxiliary["graph_square"] == 0

    assert abelian_double_cover(AbelianCoverInput(d=2, n=3)).fiber_genus == 21
    assert abelian_double_cover(AbelianCoverInput(d=2, n=3)).kf2 == 16

    degenerate = abelian_double_cover(AbelianCoverInput(d=2, n=0))
    assert degenerate.fiber_genus == 3
    assert degenerate.auxiliary["polarization_dot_graph"] == 4


def test_abelian_grid():
    for d in (2, 3):
        for n in (0, 1, 2, 3, 5):
            report = abelian_double_cover(AbelianCoverInput(d=d, n=n))
            assert report.fiber_genus == d * (n * n + 1) + 1
            assert report.auxiliary["polarization_dot_graph"] == 2 * d * (n * n + 1)
            assert report.kf2 == report.kf_dot_kx == 4 * d * d


def test_riemann_hurwitz():
    assert riemann_hurwitz(0, 2, 6) == 2
    assert riemann_hurwitz(1, 2, 10) == 6
    for g in range(0, 8):
        assert riemann_hurwitz(0, 2, 2 * g + 2) == g
    assert riemann_hurwitz(1, 2, 0) == 1  # unramified cover of an elliptic curve
    with pytest.raises(NonIntegralGenus):
        riemann_hurwitz(0, 1, 1)
    with pytest.raises(NegativeGenus):
        riemann_hurwitz(0, 3, 0)
    with pytest.raises(InvalidInput):
        riemann_hurwitz(-1, 2, 0)


def test_fibration_identities():
    assert fibration_identities(16, 2, 2) == FibrationNumbers(F(8), F(12), F(16))
    flat = fibration_identities(F(7, 3), 4, 1)
    assert flat.kxc2 == flat.kf_dot_kx == flat.kx2_back == F(7, 3)
    signs = fibration_identities(0, 3, 0)
    assert (signs.kxc2, signs.kf_dot_kx) == (16, 8)


def test_fibration_round_trip_random():
    rng = random.Random(20260822)
    for _ in range(100):
        kx2 = F(rng.randint(-50, 50), rng.randint(1, 12))
        numbers = fibration_identities(kx2, rng.randint(2, 9), rng.randint(0, 6))
        assert numbers.kx2_back == kx2


def test_report_validation():
    with pytest.raises(InvalidInput):
        ConstructionReport(kf2=F(0), kf_dot_kx=F(1), fiber_genus=2)
    with pytest.raises(InvalidInput):
        ConstructionReport(kf2=F(4), kf_dot_kx=F(1), fiber_genus=F(1, 2))


def test_to_model_numerics():
    report = ruled_double_cover(RuledCoverInput(k=2, g=2, q=2))
    for chi in (-1, 0, 1, 3):
        numerics = to_model_numerics(report, chi)
        assert numerics.general_type
        assert len(numerics.basket) == 0
        assert hilbert_value(numerics, 0) == chi
        assert integrality_check(numerics)

    abelian = to_model_numerics(abelian_double_cover(AbelianCoverInput(d=3, n=2)), 0, kx2=F(1))
    assert abelian.k1 == 36
    assert abelian.kx2 == 1
    assert integrality_check(abelian)


def test_the_paper_examples_lie_in_the_bounds_window():
    # each example's K_X^2 against kx2_bounds(K_F^2, K_F.K_X, s = 1): a ruled cover's is
    # twice the square of K_surface_rep on the base, an abelian cover's is K_F^2, the upper bound
    examples = []
    for k, g, q in itertools.product((2, 4, 6), (2, 3, 4), range(4)):
        report = ruled_double_cover(RuledCoverInput(k=k, g=g, q=q))
        k_surface = report.auxiliary["K_surface_rep"]
        examples.append((report, 2 * SymmetricPairing.from_rows([[-k, 1], [1, 0]]).pair(k_surface, k_surface)))
    for d, n in itertools.product(range(2, 7), (0, 1)):
        report = abelian_double_cover(AbelianCoverInput(d=d, n=n))
        examples.append((report, report.kf2))
        assert kx2_bounds(report.kf2, report.kf_dot_kx, 1).kx2_upper == report.kf2
    assert len(examples) == 46
    for report, kx2 in examples:
        window = kx2_bounds(report.kf2, report.kf_dot_kx, 1)
        assert window.kx2_lower_exclusive < kx2 <= window.kx2_upper, report
