"""Exact rational scalars, vectors and symmetric bilinear forms.

Everything in this package runs over the rationals with
:class:`fractions.Fraction`; there is no floating point anywhere, so every
intersection number, correction term and enumeration filter is computed
without rounding. This module provides the substrate shared by the geometric
layers: coordinate vectors of divisor classes, symmetric pairings
(intersection forms), exact linear solving, the inertia of a form, and the
index-theorem inequality check

    D1^2 * D2^2 <= (D1 . D2)^2

valid whenever some combination a1*D1 + a2*D2 has positive square.

Rationals cross every file boundary as the canonical string ``p/q`` (bare
``p`` when the denominator is 1); :func:`parse_rational` is strict about the
canonical form so that serialization round-trips bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, InvalidInput, SingularMatrix

Rational = Fraction
Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` (or bare ``p``) into an exact rational.

    The denominator, when present, must be an unsigned integer; ``q = 0``
    and any sign placement other than a single leading minus on the
    numerator are rejected.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a canonical rational: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) is not None else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction | int) -> str:
    """Render in the canonical ``p/q`` form, ``p`` alone when q = 1."""
    value = as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_rational(value) -> Fraction:
    """Coerce ints, canonical strings and Fractions; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


_INT_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def check_int(value, name: str, minimum: Optional[int] = 0) -> int:
    """Return ``value`` unchanged if it is an int (bools excluded) >= ``minimum``.

    ``minimum`` is 0, 1 or None (no lower bound). Anything else, floats and
    integral-looking strings included, raises :class:`InvalidInput`; nothing
    is truncated or coerced.
    """
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        raise InvalidInput(f"{name} must be {_INT_KINDS[minimum]}, got {value!r}")
    return value


def vector(entries: Iterable) -> Vector:
    return tuple(as_rational(entry) for entry in entries)


def vec_add(u: Sequence, v: Sequence) -> Vector:
    u, v = vector(u), vector(v)
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(coeff, v: Sequence) -> Vector:
    c = as_rational(coeff)
    return tuple(c * a for a in vector(v))


@dataclass(frozen=True)
class SymmetricPairing:
    """Symmetric matrix of exact rationals used as an intersection form."""

    entries: tuple[Vector, ...]

    def __post_init__(self):
        rows = tuple(vector(row) for row in self.entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidInput(f"pairing matrix is not square: {len(row)}x{n} row")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidInput(
                        f"pairing matrix is not symmetric at ({i},{j})",
                        row=i,
                        column=j,
                    )
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "SymmetricPairing":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def diagonal(cls, values: Iterable) -> "SymmetricPairing":
        diag = vector(values)
        n = len(diag)
        return cls(tuple(tuple(diag[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)))

    @classmethod
    def identity(cls, n: int) -> "SymmetricPairing":
        return cls.diagonal([1] * n)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def _check_length(self, v: Vector) -> None:
        if len(v) != self.dimension:
            raise DimensionMismatch(
                f"vector of length {len(v)} against a pairing of dimension {self.dimension}"
            )

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product A v."""
        v = vector(v)
        self._check_length(v)
        return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in self.entries)

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        """Bilinear value u^T A v."""
        u = vector(u)
        self._check_length(u)
        image = self.apply(v)
        return sum((u[i] * image[i] for i in range(len(u))), Fraction(0))

    def restrict(self, indices: Sequence[int]) -> "SymmetricPairing":
        """Submatrix on the given basis positions, in the given order."""
        for i in indices:
            if not 0 <= i < self.dimension:
                raise InvalidInput(f"basis position {i} out of range", dimension=self.dimension)
        return SymmetricPairing(
            tuple(tuple(self.entries[i][j] for j in indices) for i in indices)
        )


def solve_linear(pairing: SymmetricPairing, rhs: Sequence) -> Vector:
    """Solve A x = b exactly by Gaussian elimination with row exchange.

    Raises :class:`SingularMatrix` when a pivot column has no nonzero entry
    to exchange in, i.e. exactly when A is singular.
    """
    n = pairing.dimension
    b = vector(rhs)
    pairing._check_length(b)
    rows = [list(pairing.entries[i]) + [b[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("no pivot available during elimination", column=col)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / head
            if factor:
                for c in range(col, n + 1):
                    rows[r][c] -= factor * rows[col][c]
    solution = [Fraction(0)] * n
    for col in range(n - 1, -1, -1):
        acc = rows[col][n]
        for c in range(col + 1, n):
            acc -= rows[col][c] * solution[c]
        solution[col] = acc / rows[col][col]
    return tuple(solution)


def signature(pairing: SymmetricPairing) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) by symmetric congruence reduction.

    The reduction applies simultaneous row and column operations, so it is a
    congruence A -> P^T A P and the counts are invariants of the form. When
    the untouched block has a zero diagonal but a nonzero off-diagonal entry,
    a basis vector is added to its partner to manufacture a diagonal pivot.
    """
    n = pairing.dimension
    m = [list(row) for row in pairing.entries]
    positives = negatives = 0
    k = 0
    while k < n:
        pivot = next((i for i in range(k, n) if m[i][i] != 0), None)
        if pivot is None:
            hyperbolic = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        hyperbolic = (i, j)
                        break
                if hyperbolic:
                    break
            if hyperbolic is None:
                break  # remaining block identically zero
            i, j = hyperbolic
            for l in range(n):
                m[i][l] += m[j][l]
            for l in range(n):
                m[l][i] += m[l][j]
            pivot = i  # now m[i][i] = 2 * old m[i][j] != 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            for row in m:
                row[k], row[pivot] = row[pivot], row[k]
        head = m[k][k]
        if head > 0:
            positives += 1
        else:
            negatives += 1
        for j in range(k + 1, n):
            factor = m[j][k] / head
            if factor:
                for l in range(n):
                    m[j][l] -= factor * m[k][l]
                for l in range(n):
                    m[l][j] -= factor * m[l][k]
        k += 1
    return (positives, negatives, n - positives - negatives)


def is_negative_definite(pairing: SymmetricPairing) -> bool:
    return signature(pairing) == (0, pairing.dimension, 0)


@dataclass(frozen=True)
class HodgeVerdict:
    hypothesis_met: bool
    inequality_holds: bool
    equality: bool


def hodge_check(
    pairing: SymmetricPairing,
    d1: Sequence,
    d2: Sequence,
    a1,
    a2,
) -> HodgeVerdict:
    """Evaluate D1^2 D2^2 <= (D1 . D2)^2 together with its hypothesis.

    ``hypothesis_met`` reports whether the supplied combination
    a1*D1 + a2*D2 has strictly positive square; only then does the index
    theorem assert the inequality. Both comparison fields are computed
    unconditionally so callers can inspect degenerate configurations.
    """
    u, w = vector(d1), vector(d2)
    combo = vec_add(vec_scale(a1, u), vec_scale(a2, w))
    hypothesis = pairing.pair(combo, combo) > 0
    lhs = pairing.pair(u, u) * pairing.pair(w, w)
    rhs = pairing.pair(u, w) ** 2
    return HodgeVerdict(
        hypothesis_met=hypothesis,
        inequality_holds=lhs <= rhs,
        equality=lhs == rhs,
    )
