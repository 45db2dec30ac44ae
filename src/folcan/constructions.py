"""Two double-cover families with computable invariants, plus fibration identities.

Both constructions live downstairs on a small explicit lattice and push
every number through the double-cover rule (pullback doubles products)
rather than quoting closed forms, so the closed forms can be tested
against them as independent oracles.

Ruled family: the base is a projective bundle over a curve of genus q with
section C0 of square -k and fiber f. A double cover branched along a
divisor in |(2g+2)C0 + (2g+1)k f| has fibers of genus g; the foliation by
pulled-back fibers has canonical square 2kg(g-1), independent of q, while
the product against the surface canonical class grows linearly in q. This
family shows which invariants stay bounded when the base genus runs away.

Abelian family: on a product of an elliptic curve with itself, take the
graph of the n-multiplication map and a polarization A of bidegree
(2d, 2d). The double cover branched along a member of |A| is fibered by
the preimages of graph translates; fiber genus grows with n but the
canonical square of the fibration stays 4d^2.

``fibration_identities`` relates the ambient square, the relative square
and the mixed product for a genus-gF fibration over a genus-gC base, with
an exact round-trip of the ambient square as a built-in consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .baskets import Basket
from .errors import InvalidInput, NegativeGenus, NonIntegralGenus
from .exact_core import SymmetricPairing, as_rational, check_int, vec_add, vector
from .riemann_roch import ModelNumerics
from .surface_model import SurfaceModel


@dataclass(frozen=True)
class RuledCoverInput:
    k: int  # degree of the twisting divisor on the base; must be even
    g: int  # genus of the covering fibers
    q: int  # genus of the base curve

    def __post_init__(self):
        check_int(self.k, "k", 1)
        if self.k % 2:
            raise InvalidInput(f"k must be even, got {self.k}")
        check_int(self.g, "g", 2)
        check_int(self.q, "q", 0)


@dataclass(frozen=True)
class AbelianCoverInput:
    d: int  # bidegree of the polarization
    n: int  # multiplication-map parameter for the graph curve

    def __post_init__(self):
        check_int(self.d, "d", 2)
        check_int(self.n, "n", 0)


@dataclass(frozen=True)
class ConstructionReport:
    kf2: Fraction
    kf_dot_kx: Fraction
    fiber_genus: int
    auxiliary: Mapping[str, object] = field(default_factory=dict)
    assumptions: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kf2", as_rational(self.kf2))
        object.__setattr__(self, "kf_dot_kx", as_rational(self.kf_dot_kx))
        check_int(self.fiber_genus, "fiber_genus", 0)
        if self.kf2 <= 0:
            raise InvalidInput(f"construction produced nonpositive kf2 = {self.kf2}")
        object.__setattr__(self, "auxiliary", dict(self.auxiliary))


def riemann_hurwitz(g_base: int, degree: int, ram_degree: int) -> int:
    """Genus of a degree-d cover of a genus-g_base curve with given ramification."""
    check_int(g_base, "g_base", 0)
    check_int(degree, "degree", 1)
    check_int(ram_degree, "ram_degree", 0)
    total = degree * (2 * g_base - 2) + ram_degree
    if total % 2:
        raise NonIntegralGenus(
            f"2g - 2 = {total} is odd; no such cover exists",
            g_base=g_base,
            degree=degree,
            ram_degree=ram_degree,
        )
    genus = total // 2 + 1
    if genus < 0:
        raise NegativeGenus(f"cover would need genus {genus}")
    return genus


def _double_pair(model: SurfaceModel, u, v) -> Fraction:
    # products of pullbacks under a double cover: twice the downstairs product
    return 2 * model.pair(u, v)


def ruled_double_cover(data: RuledCoverInput) -> ConstructionReport:
    k, g, q = data.k, data.g, data.q
    base = SurfaceModel(
        ("C0", "f"),
        SymmetricPairing.from_rows([[-k, 1], [1, 0]]),
    )
    k_base = vector((-2, 2 * q - 2 - k))
    fiber = vector((0, 1))
    section = vector((1, 0))
    # adjunction fixes the canonical class: genus 0 fibers, genus q section
    assert base.pair(vec_add(k_base, fiber), fiber) == -2
    assert base.pair(vec_add(k_base, section), section) == 2 * q - 2

    branch = vector((2 * g + 2, (2 * g + 1) * k))
    k_surface = vec_add(k_base, tuple(Fraction(b, 2) for b in branch))
    pullback_of_base_canonical = vector((0, 2 * q - 2))
    k_foliation = tuple(a - b for a, b in zip(k_surface, pullback_of_base_canonical))

    branch_per_fiber = base.pair(branch, fiber)
    genus = riemann_hurwitz(0, 2, int(branch_per_fiber))
    report = ConstructionReport(
        kf2=_double_pair(base, k_foliation, k_foliation),
        kf_dot_kx=_double_pair(base, k_foliation, k_surface),
        fiber_genus=genus,
        auxiliary={
            "K_base": k_base,
            "branch_class": branch,
            "K_surface_rep": k_surface,
            "K_foliation_rep": k_foliation,
            "branch_dot_fiber": branch_per_fiber,
            "section_square": base.square(section),
        },
        assumptions=(
            "the branch linear system contains a smooth member",
            "the branch member is transverse to the fibers it does not contain",
        ),
    )
    return report


def abelian_double_cover(data: AbelianCoverInput) -> ConstructionReport:
    d, n = data.d, data.n
    # lattice of the two fiber classes and the graph of n-multiplication
    product = SurfaceModel(
        ("f1", "f2", "graph"),
        SymmetricPairing.from_rows([[0, 1, 1], [1, 0, n * n], [1, n * n, 0]]),
    )
    polarization = vector((2 * d, 2 * d, 0))
    graph = vector((0, 0, 1))
    a_square = product.square(polarization)
    a_dot_graph = product.pair(polarization, graph)
    genus = riemann_hurwitz(1, 2, int(a_dot_graph))
    # the surface canonical class is the pullback of half the polarization
    half = tuple(Fraction(x, 2) for x in polarization)
    kf2 = _double_pair(product, half, half)
    return ConstructionReport(
        kf2=kf2,
        kf_dot_kx=kf2,
        fiber_genus=genus,
        auxiliary={
            "polarization": polarization,
            "polarization_square": a_square,
            "polarization_dot_graph": a_dot_graph,
            "graph_square": product.square(graph),
        },
        assumptions=(
            "graph translates form a disjoint cover, so the graph class has square 0",
            "the polarization system contains a smooth member transverse to the graphs",
        ),
    )


class FibrationNumbers(NamedTuple):
    kxc2: Fraction
    kf_dot_kx: Fraction
    kx2_back: Fraction


def fibration_identities(kx2, fiber_genus: int, base_genus: int) -> FibrationNumbers:
    """Relative square and mixed product of a fibration, with exact round-trip.

    kxc2 = kx2 - 8(gF-1)(gC-1) and kf_dot_kx = kx2 - 4(gF-1)(gC-1);
    eliminating the genus factor gives back kx2 = 2*kf_dot_kx - kxc2,
    asserted exactly.
    """
    kx2 = as_rational(kx2)
    check_int(fiber_genus, "fiber_genus", 2)
    check_int(base_genus, "base_genus", 0)
    factor = (fiber_genus - 1) * (base_genus - 1)
    kxc2 = kx2 - 8 * factor
    kf_dot_kx = kx2 - 4 * factor
    back = 2 * kf_dot_kx - kxc2
    assert back == kx2
    return FibrationNumbers(kxc2=kxc2, kf_dot_kx=kf_dot_kx, kx2_back=back)


def to_model_numerics(
    report: ConstructionReport, chi: int, kx2: Optional[Fraction] = None
) -> ModelNumerics:
    """Carry a construction's invariants into table evaluation.

    The structure-sheaf characteristic of the covering surface is not
    derived here; the caller supplies it as a free parameter.
    """
    return ModelNumerics(
        k1=report.kf2,
        k2=report.kf_dot_kx,
        chi=chi,
        basket=Basket(),
        kx2=kx2,
        general_type=True,
    )
