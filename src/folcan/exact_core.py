"""Exact rational scalars, vectors and symmetric bilinear forms.

Everything in this package is exact: a rational is a
:class:`fractions.Fraction` or ints over an explicit denominator, and there
is no floating point anywhere, so every intersection number, correction
term and enumeration filter is computed without rounding. This module
provides the substrate shared by the geometric layers: coordinate vectors
of divisor classes, symmetric pairings (intersection forms), exact linear
solving, the inertia of a form, and the index-theorem inequality check

    D1^2 * D2^2 <= (D1 . D2)^2

valid whenever some combination a1*D1 + a2*D2 has positive square.

A pairing's state is its integer form: int rows of numerators over one
positive common denominator, the lcm of the entries' denominators (an int
matrix is its own integer form, over 1). The form is canonical, so
equality, hashing, the symmetry check, row scans, products, restrictions
and the factor all read it; ``entries``, the Fraction view that
serialization and callers read, is built on its first read. A vector
enters a product or a solve as its numerators over one denominator, so a
product or a pairing builds Fractions only for what it returns.

A pairing is factored at most once: its first :func:`signature` or
:func:`solve_linear` call computes the congruence P^T A P = D
(:attr:`SymmetricPairing.congruence`) and keeps it on the instance, so the
inertia and every later solve read the same factor. The factor is held in
integers and recorded once: P as one run of column operations per pivot,
in elimination order, whose coefficients share the pivot's denominator,
and D as reduced numerator/denominator pairs. A solve reads the runs
forward as scatters and backward as gathers. Elimination and solving
keep their working values as Python ints and normalise once (one gcd)
per row update, per forward update and per run of the backward pass,
the integer-preserving idea of Bareiss's fraction-free elimination, and
build Fractions only for what they return.

Rationals cross every file boundary as the canonical string ``p/q`` (bare
``p`` when the denominator is 1); :func:`parse_rational` is strict about the
canonical form so that serialization round-trips bit-exactly.

:func:`check_int` is the package's one integer validator and
:func:`check_limit` its one size-limit refusal, used by every ``MAX_*`` limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, islice
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, InvalidInput, SingularMatrix

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical ``p/q`` (or bare ``p``) into an exact rational.

    Exactly the strings :func:`format_rational` emits are accepted: ASCII
    digits, a single leading minus on a nonzero numerator, q >= 2 and
    coprime to p, no leading zeros and no surrounding whitespace. So
    ``"2/4"``, ``"10/5"``, ``"007"``, ``" 3 "``, ``"-0"`` and ``"1/0"`` are
    all rejected with :class:`ValueError`.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a canonical rational: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) is not None else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    value = Fraction(numerator, denominator)
    if format_rational(value) != text:
        raise ValueError(f"not a canonical rational: {text!r}")
    return value


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

    ``minimum`` is any integer, or None for no lower bound. Anything else,
    floats and integral-looking strings included, raises
    :class:`InvalidInput`; nothing is truncated or coerced.
    """
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        kind = _INT_KINDS.get(minimum, f"an integer >= {minimum}")
        raise InvalidInput(f"{name} must be {kind}, got {value!r}")
    return value


def check_limit(value: int, limit: int, name: str, what: str) -> int:
    """``value``, or above ``limit`` :class:`InvalidInput` with context ``{name: value, "limit": limit}``.

    Its message is ``what.format(value)`` followed by " above the limit of <limit>".
    """
    if value > limit:
        raise InvalidInput(f"{what.format(value)} above the limit of {limit}", **{name: value, "limit": limit})
    return value


def vector(entries: Iterable) -> Vector:
    """Coerce every entry with :func:`as_rational`, each distinct int once.

    A tuple that holds only Fractions comes back as it is.
    """
    entries = tuple(entries)
    kinds = set(map(type, entries))
    if kinds <= {Fraction}:
        return entries
    if kinds <= {int, Fraction}:
        exact = {x: as_rational(x) for x in set(entries)}
        return tuple(map(exact.__getitem__, entries))
    return tuple(as_rational(entry) for entry in entries)


def vec_add(u: Sequence, v: Sequence) -> Vector:
    u, v = vector(u), vector(v)
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(coeff, v: Sequence) -> Vector:
    c = as_rational(coeff)
    return tuple(c * a for a in vector(v))


def _integer_form(values: Iterable) -> tuple[tuple[int, ...], int]:
    """``values`` as integer numerators over their least common positive denominator.

    Entries are coerced as by :func:`vector`; an all-int sequence is its own
    numerators over 1, and no Fraction is built for it.
    """
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    values = vector(values)
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


@dataclass(frozen=True, init=False)
class SymmetricPairing:
    """Symmetric matrix of exact rationals used as an intersection form.

    Its state is the integer form ``_numerators`` (int rows) over the
    positive denominator ``_scale``, the lcm of the entries' denominators;
    equality, hashing and every computation read it. :attr:`entries` is the
    Fraction view, built on its first read.
    """

    _numerators: tuple[tuple[int, ...], ...]
    _scale: int

    def __init__(self, entries: Iterable[Iterable]):
        raw = tuple(map(tuple, entries))
        n = len(raw)
        for row in raw:
            if len(row) != n:
                raise InvalidInput(f"pairing matrix is not square: {len(row)}x{n} row")
        numerators, scale = _integer_form(chain.from_iterable(raw))
        numerators = iter(numerators)
        rows = tuple(tuple(islice(numerators, n)) for _ in raw)
        # rows against columns in one comparison; the first failing (i, j) is
        # searched for only when it fails
        if rows != tuple(zip(*rows)):
            i, j = next((i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i])
            raise InvalidInput(f"pairing matrix is not symmetric at ({i},{j})", row=i, column=j)
        object.__setattr__(self, "_numerators", rows)
        object.__setattr__(self, "_scale", scale)

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

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        """The matrix as Fraction rows, one Fraction per distinct numerator; built on the first read."""
        scale = self._scale
        fraction = {a: Fraction(a, scale) for a in set(chain.from_iterable(self._numerators))}.__getitem__
        return tuple(tuple(map(fraction, row)) for row in self._numerators)

    @property
    def dimension(self) -> int:
        return len(self._numerators)

    def _check_length(self, v: Sequence) -> None:
        if len(v) != self.dimension:
            raise DimensionMismatch(
                f"vector of length {len(v)} against a pairing of dimension {self.dimension}"
            )

    @cached_property
    def nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row's nonzero numerators as ``(column, int)`` pairs, in column order.

        The entry at (i, j) is the pair's int divided by :attr:`_scale`.
        Every row, scanned once (O(n^2) int tests in all) and kept on the
        instance; the congruence starts from these. Products, pullbacks and
        pairings read rows through :meth:`_row` instead, which scans a row
        the first time it is read, so they cost O(nnz) of the rows they read
        (after one O(n) scan per row). Both share each scanned row.
        """
        return tuple(map(self._row, range(self.dimension)))

    @cached_property
    def _scanned(self) -> dict[int, tuple[tuple[int, int], ...]]:
        return {}

    def _row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Row i's nonzero ``(column, int)`` pairs of numerators over :attr:`_scale`.

        Scanned on the first read and kept.
        """
        row = self._scanned.get(i)
        if row is None:
            numerators = self._numerators[i]
            row = self._scanned[i] = tuple(compress(enumerate(numerators), numerators))
        return row

    def _row_dot(self, i: int, numerators: Sequence[int]) -> int:
        """(A v)_i times :attr:`_scale` and v's denominator, for v given by ``numerators``."""
        return sum(a * numerators[j] for j, a in self._row(i))

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product A v over the nonzero entries, in integers."""
        numerators, den = _integer_form(v)
        self._check_length(numerators)
        den *= self._scale
        return tuple(Fraction(self._row_dot(i, numerators), den) for i in range(self.dimension))

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        """Bilinear value u^T A v over the nonzero entries and the support of u, in integers."""
        left, left_den = _integer_form(u)
        self._check_length(left)
        right, right_den = _integer_form(v)
        self._check_length(right)
        total = sum(x * self._row_dot(i, right) for i, x in enumerate(left) if x)
        return Fraction(total, left_den * right_den * self._scale)

    def restrict(self, indices: Sequence[int]) -> "SymmetricPairing":
        """Submatrix on the given basis positions, in the given order.

        Each position must be an int (bools and floats are refused) in
        range. A principal submatrix of a validated symmetric matrix is
        square, symmetric and exact already, so it is built without the
        constructor's coercion and checks: each selected integer row is
        copied by one ``itemgetter`` call, O(k^2) for k positions, and no
        Fraction is built. The rows and the scale are then divided by their
        gcd: the scale becomes the entries' least common denominator, the
        canonical form a fresh construction has, and the two are equal.
        """
        for i in indices:
            if not 0 <= check_int(i, "basis position", None) < self.dimension:
                raise InvalidInput(f"basis position {i} out of range", dimension=self.dimension)
        # itemgetter of one index returns the item itself, not a 1-tuple, and takes no empty list
        pick = itemgetter(*indices) if len(indices) > 1 else lambda seq: tuple(seq[i] for i in indices)
        rows, scale = tuple(map(pick, pick(self._numerators))), self._scale
        if scale > 1:
            g = gcd(scale, *chain.from_iterable(rows))
            if g > 1:
                rows, scale = tuple(tuple(a // g for a in row) for row in rows), scale // g
        sub = object.__new__(SymmetricPairing)
        object.__setattr__(sub, "_numerators", rows)
        object.__setattr__(sub, "_scale", scale)
        return sub

    @cached_property
    def congruence(self) -> tuple[
        tuple[tuple[int, tuple[tuple[int, int], ...], int], ...],
        tuple[tuple[int, int], ...],
    ]:
        """Symmetric congruence P^T A P = D in integers, computed once and kept on the instance.

        Returns ``(runs, diagonal)``. P is the product, in elimination order,
        of the runs' column operations: a run ``(k, terms, m)`` adds
        c/m * column k to column l for each ``(l, c)`` in ``terms``, so a
        run's coefficients share its pivot's denominator m (which may be
        negative). A pivot's run has m = a_kk and c = -a_kl in the pivot
        row's integer scale; the hyperbolic step e_i -> e_i + e_j is the
        run ``(j, ((i, 1),), 1)``; along a chain every run has one term.
        ``diagonal[k]`` is D's entry at position k as the reduced pair
        ``(numerator, denominator)``, so a zero entry is always ``(0, 1)``.
        :func:`solve_linear` reads the runs forward as scatters and
        backward as gathers.
        Elimination starts from the integer rows of :attr:`nonzeros`, each
        over :attr:`_scale`, keeps each row as integer numerators over one
        positive row denominator, touches each row's nonzeros only (after
        the O(n^2) scan of :attr:`nonzeros`, a tridiagonal form such as a
        (-2)-chain costs O(n) to eliminate) and normalises a row by one gcd
        after each update, so no rational is built per multiply-add.
        Pivots are taken in position order; a zero diagonal forces either a
        symmetric swap to a later nonzero diagonal or, when every remaining
        diagonal is zero, the hyperbolic step for a nonzero a_ij, which
        makes the new diagonal 2 a_ij. A remaining block that is
        identically zero contributes zeros to D.
        """
        n = self.dimension
        rows = list(map(dict, self.nonzeros))
        dens = [self._scale] * n
        diagonal = [(0, 1)] * n
        runs = []

        def settle(i: int, row: dict, den: int) -> None:
            # divide row i and den by their gcd, signed so den > 0, and drop zeros
            g = gcd(den, *row.values()) if den > 0 else -gcd(den, *row.values())
            rows[i] = {j: a // g for j, a in row.items() if a}
            dens[i] = den // g

        pending = list(range(n))
        while pending:
            k = next((i for i in pending if i in rows[i]), None)
            if k is None:
                k = next((i for i in pending if rows[i]), None)
                if k is None:
                    break
                # hyperbolic step e_k -> e_k + e_j: row k becomes row k + row j,
                # column k of every other row becomes column k + column j
                j = min(rows[k])
                runs.append((j, ((k, 1),), 1))
                rk, rj, dk, dj = rows[k], rows[j], dens[k], dens[j]
                new = {m: rk.get(m, 0) * dj + rj.get(m, 0) * dk for m in rk.keys() | rj.keys()}
                new[k] = new.get(k, 0) + new.get(j, 0)
                for l in rk.keys() | rj.keys():
                    if l != k:
                        rows[l][k] = rows[l].get(k, 0) + rows[l].get(j, 0)
                        if not rows[l][k]:
                            del rows[l][k]
                settle(k, new, dk * dj)
            pending.remove(k)
            pivot_row = rows[k]
            head = pivot_row[k]
            g = gcd(head, dens[k])
            diagonal[k] = (head // g, dens[k] // g)
            terms = []
            for l, a in sorted(pivot_row.items()):
                if l == k:
                    continue
                # e_l -> e_l - (a_kl / a_kk) e_k; row l becomes its Schur update
                terms.append((l, -a))
                c = rows[l][k]
                new = {m: x * head for m, x in rows[l].items()}
                for m, x in pivot_row.items():
                    new[m] = new.get(m, 0) - c * x
                settle(l, new, dens[l] * head)
            if terms:
                runs.append((k, tuple(terms), head))
        return tuple(runs), tuple(diagonal)


def _add_runs(num: list, den: list, runs) -> None:
    """x[k] += sum(c * x[l]) / m for each run ``(k, terms, m)``, one gcd per run.

    Every x[l] a run reads is final. The terms are summed over each
    distinct denominator of their x[l] first, and those sums over their
    lcm, so x[k] is reduced once; a run of one term skips the grouping.
    """
    for k, terms, m in runs:
        if len(terms) == 1:
            ((l, c),) = terms
            a = num[l]
            if not a:
                continue
            total, e = c * a, den[l]
        else:
            sums = {}
            for l, c in terms:
                a = num[l]
                if a:
                    e = den[l]
                    sums[e] = sums.get(e, 0) + c * a
            if not sums:
                continue
            (e, total), *rest = sums.items()
            for f, t in rest:
                g = gcd(e, f)
                total, e = total * (f // g) + t * (e // g), e // g * f
        b, d = num[k], den[k]
        top, bottom = b * m * e + total * d, d * m * e
        g = gcd(top, bottom)
        num[k], den[k] = top // g, bottom // g


def solve_linear(pairing: SymmetricPairing, rhs: Sequence) -> Vector:
    """Solve A x = b exactly through the pairing's cached congruence.

    With P^T A P = D, x = P D^-1 P^T b, over nonzeros only and on integer
    numerators and denominators (a denominator may be negative). The
    forward pass applies P^T: it reads the runs in elimination order and
    scatters x[k] of each run ``(k, terms, m)`` as x[l] += c * x[k] / m,
    one gcd per update. D^-1 scales each entry; the backward pass applies
    P through :func:`_add_runs` over the runs in reverse. Fractions are
    built only for the returned tuple. Raises :class:`SingularMatrix` when
    D has a zero entry, i.e. exactly when A is singular.
    """
    num, d = _integer_form(rhs)
    pairing._check_length(num)
    runs, diagonal = pairing.congruence
    if (0, 1) in diagonal:
        raise SingularMatrix("pairing matrix is singular", column=diagonal.index((0, 1)))
    num, den = list(num), [d] * len(num)
    for k, terms, m in runs:
        a = num[k]
        if a:
            e = den[k] * m
            for l, c in terms:
                b, d = num[l], den[l]
                top, bottom = b * e + c * a * d, d * e
                g = gcd(top, bottom)
                num[l], den[l] = top // g, bottom // g
    for k, (p, q) in enumerate(diagonal):
        a = num[k]
        if a:
            top, bottom = a * q, den[k] * p
            g = gcd(top, bottom)
            num[k], den[k] = top // g, bottom // g
    _add_runs(num, den, reversed(runs))
    return tuple(map(Fraction, num, den))


def signature(pairing: SymmetricPairing) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros): the signs of the cached D.

    P^T A P = D is a congruence, so by Sylvester's law of inertia the sign
    counts of D are invariants of the form; they are read off the integer
    numerators of the factor's diagonal.
    """
    _, diagonal = pairing.congruence
    positives = sum(p > 0 for p, _ in diagonal)
    negatives = sum(p < 0 for p, _ in diagonal)
    return (positives, negatives, len(diagonal) - positives - negatives)


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
