"""Divisor lattices, resolutions, and intersection numbers of Weil divisors through them.

A divisor downstairs enters as its strict transform on a smooth model, and
its intersection numbers are those of its Mumford pullback upstairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import mul
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch, InvalidInput, NotNegativeDefinite
from .exact_core import Vector, _integer_form, check_int, check_limit, vector
from .lattice import SymmetricPairing, signature, solve_linear


@dataclass(frozen=True)
class SurfaceModel:
    """A lattice of curve classes: labels, a pairing of their rank, optional canonical and named classes; frozen.

    Repeated labels, or a label that is no nonempty string, raise
    :class:`InvalidInput`; a pairing or class of another rank raises
    :class:`DimensionMismatch`.
    """

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
        """The class named ``label``: "K" for the canonical class, then a named class, then a basis label.

        An unknown label raises :class:`InvalidInput`.
        """
        if label == "K" and self.canonical_class is not None:
            return self.canonical_class
        if label in self.distinguished_classes:
            return self.distinguished_classes[label]
        if label in self.basis_labels:
            i = self.basis_labels.index(label)
            return vector([1 if j == i else 0 for j in range(self.rank)])
        raise InvalidInput(f"unknown class label {label!r}", known=sorted(self.distinguished_classes))


# the most exceptional curves one resolution may have: a dense Gram's factor is
# O(n^3) big-int operations (intersect on a dense rank-160 Gram: 1.2-1.4 s on a
# 2-core VM; 3.1-3.7 s when only its last leading minor vanishes, factored twice)
MAX_EXCEPTIONAL_RANK = 160


@dataclass(frozen=True)
class ResolutionData:
    """A smooth ambient model plus the basis positions of a resolution's exceptional curves; frozen.

    Positions must be distinct ints in range, at most
    :data:`MAX_EXCEPTIONAL_RANK` of them (else :class:`InvalidInput`, above
    the limit with ``exceptional_rank`` and ``limit`` in its context, before
    the factor), and their Gram negative definite (else :class:`NotNegativeDefinite`).
    ``strict_transforms`` names downstairs divisors by their strict
    transforms. Construction is O(n^2) to read the Gram plus its factor,
    one pass over the Gram's upper triangle when it is definite: O(n) on a
    (-2)-chain, O(n^3) dense; every pullback reuses the factor.
    """

    ambient: SurfaceModel
    exceptional_indices: tuple[int, ...]
    strict_transforms: Mapping[str, Vector] = field(default_factory=dict)

    def __post_init__(self):
        indices = tuple(check_int(i, "exceptional position", None) for i in self.exceptional_indices)
        check_limit(len(indices), MAX_EXCEPTIONAL_RANK, "exceptional_rank", "the exceptional rank {} is")
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
    """Unless the exceptional Gram is negative definite, raise :class:`NotNegativeDefinite` with its ``signature``."""
    gram = res.exceptional_gram
    sig = signature(gram)
    if sig != (0, gram.dimension, 0):
        raise NotNegativeDefinite(
            "exceptional pairing matrix is not negative definite",
            signature=sig,
            indices=res.exceptional_indices,
        )


def mumford_pullback(res: ResolutionData, strict: Sequence) -> Vector:
    """The pullback strict + sum x_i E_i whose pairing with every exceptional curve E_i is zero.

    A strict transform of the wrong length raises :class:`DimensionMismatch`;
    one orthogonal to every E_i comes back equal. One solve on the
    resolution's factor, O(n) on a (-2)-chain and O(n^2) dense, plus
    O(nnz) of the ambient rows in the strict transform's support.
    """
    strict = tuple(strict)
    numerators, den = _integer_form(strict)
    strict = res.ambient._coerce(strict)
    indices = res.exceptional_indices
    if not indices:
        return strict
    # A is symmetric, so -A strict is the sum of -x * (row m) over the support of
    # strict; the ints here are -A strict times the ambient's scale and den
    pairing = res.ambient.pairing
    image = pairing._rows_times((m, -x) for m, x in compress(enumerate(numerators), numerators))
    # the right-hand side in one map, no generator: 7.2 -> 4.8 us on a (-2)-chain of 128
    coefficients = solve_linear(res.exceptional_gram, tuple(map(image.get, indices, repeat(0))))
    den *= pairing._scale
    if den > 1:
        coefficients = tuple(c / den for c in coefficients)
    result = list(strict)
    for position, coefficient in zip(indices, coefficients):
        result[position] = result[position] + coefficient if numerators[position] else coefficient
    return tuple(result)


def _pair_pullbacks(res: ResolutionData, pulled1: Vector, pulled2: Vector) -> Fraction:
    """p1^T A p2 for two pullbacks of ``res``, read from the non-exceptional rows only (A p2 vanishes on the rest)."""
    # kept beside pairing.pair(p1, p2): chain_intersect 693-710 -> 807-846 ops/s, op_p90 1.32 -> 0.87 ms
    pairing, positions = res.ambient.pairing, res.strict_positions
    left, left_den = _integer_form(pulled1[i] for i in positions)
    # p1^T A over those rows' nonzeros, and p2's integer form on that support only, vs
    # all of p2: 67 -> 12 us on a (-2)-chain of 128, 42-51 -> 48-52 us on a dense rank 28
    row = pairing._rows_times(compress(zip(positions, left), left))
    right, right_den = _integer_form(map(pulled2.__getitem__, row))
    return Fraction(sum(map(mul, row.values(), right)), left_den * right_den * pairing._scale)


def weil_intersect(res: ResolutionData, strict1: Sequence, strict2: Sequence) -> Fraction:
    """The intersection number of two Weil divisors downstairs: the ambient pairing of their pullbacks.

    Exact, and rational in general; two :func:`mumford_pullback` solves, with their errors.
    """
    return _pair_pullbacks(res, mumford_pullback(res, strict1), mumford_pullback(res, strict2))


@dataclass(frozen=True)
class AmplitudeVerdict:
    big: bool
    strictly_positive_on_curves: bool


def numerical_amplitude_check(
    model: SurfaceModel, divisor: Sequence, curves: Sequence[Sequence]
) -> AmplitudeVerdict:
    """D^2 > 0, and D.C > 0 for every supplied curve class; nothing about curves not in the list."""
    d = model._coerce(divisor)
    return AmplitudeVerdict(
        big=model.square(d) > 0,
        strictly_positive_on_curves=all(model.pair(d, c) > 0 for c in curves),
    )


def nef_check(model: SurfaceModel, divisor: Sequence, curves: Sequence[Sequence]) -> bool:
    d = model._coerce(divisor)
    return all(model.pair(d, c) >= 0 for c in curves)
