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
:func:`solve_linear` call computes its fraction-free symmetric factor
(:attr:`SymmetricPairing.congruence`, a :class:`Factor`) and keeps it on the
instance, so the inertia and every later solve read the same factor. The
factor is integer-preserving elimination (Bareiss) of the integer form: it
stores the pivot order, each pivot's row of Bareiss entries, the leading
minors p_t in pivot order, the hyperbolic shears taken at zero pivots and
the positions of the zero block. Every stored entry is a minor, so every
division of the elimination and of a solve is exact and no common divisor
is taken out; Fractions are built only for what a solve returns. Factoring
costs O(n) on a (-2)-chain (after the O(n^2) row scan) and O(n^3) on a
dense form; a solve costs O(nnz) of the factor, and refuses a singular form
with :class:`~folcan.errors.SingularMatrix`.

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
from typing import Iterable, NamedTuple, Optional, Sequence

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
    def congruence(self) -> Factor:
        """The fraction-free symmetric factor of the integer form, computed once and kept on the instance.

        With N the int rows (A times :attr:`_scale`) and Q the product of
        the factor's shears in order, the :class:`Factor` satisfies
        Q^T N Q = U^T diag(1 / (p_{t-1} p_t)) U: U has one row per pivot t,
        holding the minor p_t at column ``order[t]`` and ``rows[t]``
        elsewhere (the Schur complement left on the zero block is zero).
        Every entry is a minor of Q^T N Q (Bareiss), so each update divides
        exactly by an earlier minor and no common divisor is taken out.

        Pivots: the first pending position with a nonzero diagonal; when
        every pending diagonal is zero, the shear e_k -> e_k + e_j for the
        first pending k with a nonzero row, j the least column of that row,
        makes the diagonal at k twice a_kj and k the next pivot. When every
        pending row is zero, the pending positions are the zero block.

        Cost: a row is rescaled only when a pivot touches it, so after the
        O(n^2) scan of :attr:`nonzeros` a tridiagonal form such as a
        (-2)-chain costs O(n) and keeps n - 1 off-diagonal entries; a dense
        form costs O(n^3) int operations.
        """
        rows = list(map(dict, self.nonzeros))
        seen = [0] * len(rows)  # the number of pivots each row has been brought past
        minors, order, pivots, shears = [1], [], [], []

        def at(i: int, t: int) -> dict:
            # row i brought past t pivots: times p_t / p_s, an exact division
            s = seen[i]
            if s != t:
                p, q = minors[t], minors[s]
                rows[i] = {m: a * p // q for m, a in rows[i].items()}
                seen[i] = t
            return rows[i]

        pending = list(range(len(rows)))
        while pending:
            t = len(order)
            k = next((i for i in pending if i in rows[i]), None)
            if k is None:
                k = next((i for i in pending if rows[i]), None)
                if k is None:
                    break
                # e_k -> e_k + e_j: row k becomes row k + row j, and column k
                # becomes column k + column j in every other row, pivot rows too
                j = min(rows[k])
                shears.append((k, j))
                rk, rj = at(k, t), at(j, t)
                keys = rk.keys() | rj.keys()
                new = {m: rk.get(m, 0) + rj.get(m, 0) for m in keys}
                new[k] += new[j]
                for row in chain(pivots, map(rows.__getitem__, keys - {k})):
                    row[k] = row.get(k, 0) + row.get(j, 0)
                    if not row[k]:
                        del row[k]
                rows[k] = {m: a for m, a in new.items() if a}
            pending.remove(k)
            pivot = at(k, t)
            p = pivot.pop(k)
            for l in pivot:
                # row l, last brought past s pivots, becomes (p_{t+1} row_l - c row_k) / p_s
                row = rows[l]
                c = row.pop(k)
                new = {m: p * a for m, a in row.items()}
                for m, a in pivot.items():
                    new[m] = new.get(m, 0) - c * a
                d = minors[seen[l]]
                rows[l] = {m: a // d for m, a in new.items() if a}
                seen[l] = t + 1
            minors.append(p)
            order.append(k)
            pivots.append(pivot)
        return Factor(tuple(order), tuple(tuple(row.items()) for row in pivots), tuple(minors), tuple(shears), tuple(pending))


class Factor(NamedTuple):
    """:attr:`SymmetricPairing.congruence`: a fraction-free symmetric factor of a pairing's integer form.

    ``order`` holds the pivot positions in elimination order; ``rows[t]``
    the ``(column, int)`` pairs of pivot t's row of Bareiss entries over
    the columns still pending when it was taken, its diagonal left out;
    ``minors`` p_0 = 1, then p_t, the t-th leading minor of the sheared
    form in pivot order (the diagonal of pivot t); ``shears`` the hyperbolic steps ``(k, j)``,
    e_k -> e_k + e_j, in the order taken; ``zeros`` the positions of the
    zero block, ascending.
    """

    order: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    minors: tuple[int, ...]
    shears: tuple[tuple[int, int], ...]
    zeros: tuple[int, ...]


def solve_linear(pairing: SymmetricPairing, rhs: Sequence) -> Vector:
    """Solve A x = b exactly through the pairing's cached :class:`Factor`.

    b enters as its integer numerators over one denominator. The shears
    are applied to it in order, the elimination's forward pass runs on it
    (each entry rescaled only when a pivot touches it) and leaves r_k at
    pivot k, and back substitution y_k = (det r_k - sum u_kl y_l) / p_k
    gives det times the solution of the integer system, with det the last
    minor; every division is exact and no common divisor is taken out. The
    shears are undone in reverse, and one ``Fraction`` is built per entry.
    O(nnz) of the factor on a chain, O(n^2) dense.
    Raises :class:`SingularMatrix`, with the first position of the zero
    block as ``column``, exactly when A is singular.
    """
    b, den = _integer_form(rhs)
    pairing._check_length(b)
    order, rows, minors, shears, zeros = pairing.congruence
    if zeros:
        raise SingularMatrix("pairing matrix is singular", column=zeros[0])
    b = list(b)
    for k, j in shears:
        b[k] += b[j]
    seen = [0] * len(b)
    for t, (k, row) in enumerate(zip(order, rows)):
        q = minors[t]
        c = b[k]
        if c and seen[k] != t:
            c = b[k] = c * q // minors[seen[k]]
        if c:
            p = minors[t + 1]
            for l, u in row:
                a, s = b[l], seen[l]
                if a and s != t:
                    a = a * q // minors[s]
                b[l] = (p * a - u * c) // q
                seen[l] = t + 1
    # b[k] now holds r_k; every position is a pivot and each row reads only
    # later pivots, so b is overwritten in place with det times the solution
    det = minors[-1]
    for k, row, p in zip(reversed(order), reversed(rows), reversed(minors)):
        r = b[k] * det
        for l, u in row:
            r -= u * b[l]
        b[k] = r // p
    for k, j in reversed(shears):
        b[j] += b[k]
    scale, den = pairing._scale, den * det
    return tuple(Fraction(a * scale, den) for a in b)


def signature(pairing: SymmetricPairing) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of the form, read off its cached :class:`Factor`.

    The factor is a congruence to diag(1 / (p_{t-1} p_t)) plus the zero
    block, so by Sylvester's law of inertia (Jacobi's rule) each pivot
    counts by the sign of p_t / p_{t-1} and each zero-block position as a
    zero.
    """
    _, _, minors, _, zeros = pairing.congruence
    positives = sum((p > 0) == (q > 0) for p, q in zip(minors, minors[1:]))
    return (positives, len(minors) - 1 - positives, len(zeros))


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
