"""Divisor lattices on surfaces and intersection numbers through a resolution.

A :class:`SurfaceModel` is a free lattice of curve classes with an exact
symmetric pairing, a labelled basis, and optionally a canonical class and
further named classes. Divisors on a singular surface never appear
directly: a :class:`ResolutionData` declares which basis positions of a
smooth model are the exceptional curves of a resolution, and downstairs
divisors enter as their strict transforms upstairs. The pullback of a Weil
divisor is then the unique correction of the strict transform by
exceptional classes that pairs to zero with every exceptional curve; this
is well posed exactly because the exceptional Gram matrix is negative
definite, which is validated when the resolution is constructed. The Gram
is built once per resolution and factored once, fraction-free (its cached
:attr:`~folcan.exact_core.SymmetricPairing.congruence`): O(n) on a
(-2)-chain and O(n^3) on a dense Gram. The validation reads the inertia off
the factor's leading minors, and every pullback is one exact solve on it.

Intersection numbers of downstairs divisors are the ambient pairings of
their pullbacks. Positivity checks (big, nef, positive on curves) are
relative to caller-supplied finite curve lists; no claim is made about
classes not in the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch, InvalidInput, NotNegativeDefinite
from .exact_core import (
    SymmetricPairing,
    Vector,
    _integer_form,
    check_int,
    signature,
    solve_linear,
    vector,
)


@dataclass(frozen=True)
class SurfaceModel:
    basis_labels: tuple[str, ...]
    pairing: SymmetricPairing
    canonical_class: Optional[Vector] = None
    distinguished_classes: Mapping[str, Vector] = field(default_factory=dict)

    def __post_init__(self):
        labels = tuple(self.basis_labels)
        if len(set(labels)) != len(labels):
            raise InvalidInput("basis labels must be distinct", labels=labels)
        if not all(isinstance(l, str) and l for l in labels):
            raise InvalidInput("basis labels must be nonempty strings")
        if self.pairing.dimension != len(labels):
            raise DimensionMismatch(
                f"pairing dimension {self.pairing.dimension} != {len(labels)} basis labels"
            )
        object.__setattr__(self, "basis_labels", labels)
        if self.canonical_class is not None:
            object.__setattr__(self, "canonical_class", self._coerce(self.canonical_class))
        object.__setattr__(
            self,
            "distinguished_classes",
            {name: self._coerce(cls) for name, cls in dict(self.distinguished_classes).items()},
        )

    def _coerce(self, cls) -> Vector:
        v = vector(cls)
        if len(v) != len(self.basis_labels):
            raise DimensionMismatch(
                f"class of length {len(v)} on a lattice of rank {len(self.basis_labels)}"
            )
        return v

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        return self.pairing.pair(self._coerce(u), self._coerce(v))

    def square(self, u: Sequence) -> Fraction:
        return self.pair(u, u)

    def resolve_class(self, label: str) -> Vector:
        """Look up a named class; canonical_class answers to "K"."""
        if label == "K" and self.canonical_class is not None:
            return self.canonical_class
        if label in self.distinguished_classes:
            return self.distinguished_classes[label]
        if label in self.basis_labels:
            i = self.basis_labels.index(label)
            return vector([1 if j == i else 0 for j in range(self.rank)])
        raise InvalidInput(f"unknown class label {label!r}", known=sorted(self.distinguished_classes))


@dataclass(frozen=True)
class ResolutionData:
    """Smooth ambient model plus the basis positions of its exceptional curves.

    ``strict_transforms`` optionally names downstairs divisors by their
    strict transforms upstairs, for file-driven workflows. The exceptional
    Gram matrix is checked negative definite here, at construction; every
    later solve relies on it. The Gram is cached on the instance, so the
    factorization that decided the signature serves every pullback.
    """

    ambient: SurfaceModel
    exceptional_indices: tuple[int, ...]
    strict_transforms: Mapping[str, Vector] = field(default_factory=dict)

    def __post_init__(self):
        indices = tuple(check_int(i, "exceptional position", None) for i in self.exceptional_indices)
        if len(set(indices)) != len(indices):
            raise InvalidInput("exceptional positions must be distinct", indices=indices)
        for i in indices:
            if not 0 <= i < self.ambient.rank:
                raise InvalidInput(
                    f"exceptional position {i} outside lattice of rank {self.ambient.rank}"
                )
        object.__setattr__(self, "exceptional_indices", indices)
        object.__setattr__(
            self,
            "strict_transforms",
            {name: self.ambient._coerce(v) for name, v in dict(self.strict_transforms).items()},
        )
        validate_resolution(self)

    @cached_property
    def exceptional_gram(self) -> SymmetricPairing:
        return self.ambient.pairing.restrict(self.exceptional_indices)

    @cached_property
    def strict_positions(self) -> tuple[int, ...]:
        """The basis positions outside the exceptional set, in order."""
        exceptional = set(self.exceptional_indices)
        return tuple(i for i in range(self.ambient.rank) if i not in exceptional)


def validate_resolution(res: ResolutionData) -> None:
    """Exceptional Gram must be negative definite; raises :class:`NotNegativeDefinite` otherwise.

    The inertia is read off the Gram's cached factor (the signs of its
    leading minors), which every later pullback solves on.
    """
    gram = res.exceptional_gram
    sig = signature(gram)
    if sig != (0, gram.dimension, 0):
        raise NotNegativeDefinite(
            "exceptional pairing matrix is not negative definite",
            signature=sig,
            indices=res.exceptional_indices,
        )


def mumford_pullback(res: ResolutionData, strict: Sequence) -> Vector:
    """Correct a strict transform to pair to zero with every exceptional curve.

    Solves the square system on the exceptional Gram matrix, reusing the
    factor computed when the resolution was validated (one exact solve:
    O(n) on a (-2)-chain, O(n^2) on a dense Gram), and returns
    strict + sum of x_i * E_i. When the strict transform is already
    orthogonal to the exceptional locus the correction is zero and the
    input comes back unchanged. The strict transform is checked once and
    read twice: as Fractions for the result, and as integer numerators over
    one denominator for the right-hand side A strict, which is computed in
    integers from the ambient's integer rows of its support. Each such row
    is scanned the first time any query reads it; the ambient's full
    ``nonzeros`` is never built here.
    """
    strict = tuple(strict)
    numerators, den = _integer_form(strict)
    strict = res.ambient._coerce(strict)
    indices = res.exceptional_indices
    if not indices:
        return strict
    # A is symmetric, so A strict is the sum of x * (row m) over the support of
    # strict; the ints here are A strict times the ambient's scale and den
    pairing = res.ambient.pairing
    image = {}
    for m in compress(range(len(numerators)), numerators):
        x = numerators[m]
        for j, a in pairing._row(m):
            image[j] = image.get(j, 0) + a * x
    coefficients = solve_linear(res.exceptional_gram, tuple(-image.get(j, 0) for j in indices))
    den *= pairing._scale
    if den > 1:
        coefficients = tuple(c / den for c in coefficients)
    result = list(strict)
    for position, coefficient in zip(indices, coefficients):
        result[position] = result[position] + coefficient if numerators[position] else coefficient
    return tuple(result)


def _pair_pullbacks(res: ResolutionData, pulled1: Vector, pulled2: Vector) -> Fraction:
    """p1^T A p2 for two pullbacks, over the non-exceptional rows only, in integers.

    A p2 vanishes on every exceptional row, so p1^T A p2 is the sum over
    i outside the exceptional set of p1_i (A p2)_i; only those rows of the
    ambient are read. Both pullbacks are taken as integer numerators over
    one denominator each (p1 on the strict positions only), so the sum is
    one int and one Fraction is built.
    """
    pairing, positions = res.ambient.pairing, res.strict_positions
    left, left_den = _integer_form(pulled1[i] for i in positions)
    right, right_den = _integer_form(pulled2)
    total = sum(x * pairing._row_dot(i, right) for i, x in zip(positions, left) if x)
    return Fraction(total, left_den * right_den * pairing._scale)


def weil_intersect(res: ResolutionData, strict1: Sequence, strict2: Sequence) -> Fraction:
    """The intersection number of two Weil divisors downstairs, given by their strict transforms.

    ``strict1`` and ``strict2`` are classes on the ambient lattice. The
    value is the ambient pairing of their Mumford pullbacks, one
    :func:`mumford_pullback` each (so one solve on the resolution's cached
    factor each), exact and rational in general.
    """
    return _pair_pullbacks(res, mumford_pullback(res, strict1), mumford_pullback(res, strict2))


@dataclass(frozen=True)
class AmplitudeVerdict:
    big: bool
    strictly_positive_on_curves: bool


def numerical_amplitude_check(
    model: SurfaceModel, divisor: Sequence, curves: Sequence[Sequence]
) -> AmplitudeVerdict:
    """D^2 > 0 and D.C > 0 for every supplied curve class.

    The verdict is relative to the supplied finite list; it says nothing
    about curves not in it.
    """
    d = model._coerce(divisor)
    return AmplitudeVerdict(
        big=model.square(d) > 0,
        strictly_positive_on_curves=all(model.pair(d, c) > 0 for c in curves),
    )


def nef_check(model: SurfaceModel, divisor: Sequence, curves: Sequence[Sequence]) -> bool:
    d = model._coerce(divisor)
    return all(model.pair(d, c) >= 0 for c in curves)
