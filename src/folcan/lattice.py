"""Symmetric bilinear forms over the rationals: the intersection pairing and its kernels.

:class:`SymmetricPairing` holds a form as int rows over one denominator;
its fraction-free :class:`Factor` gives :func:`solve_linear` and
:func:`signature`, and :func:`hodge_check` tests the Hodge index
inequality. Only the lattice layers load this module (``surface_model``,
``constructions`` and a model document's parser), so ``folcan enumerate``,
``bounds`` and ``hilbert`` never compile it. Every name here is also read
from :mod:`folcan.exact_core`, which imports this module on the first such read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, InvalidInput, SingularMatrix
from .exact_core import Vector, _integer_form, check_int, vec_add, vec_scale, vector


@dataclass(frozen=True, init=False)
class SymmetricPairing:
    """A symmetric matrix of exact rationals, used as an intersection form; frozen.

    Built from square rows of ints, Fractions or canonical strings, in
    O(n^2). Rows whose every entry is an int (not a bool) are kept as given,
    as tuples, with scale 1; any other entry brings the whole matrix to int
    rows over one denominator. A non-square or asymmetric matrix raises
    :class:`InvalidInput`, the first asymmetric ``row`` and ``column`` in its
    context; a bool or a float raises :class:`TypeError`. Equal matrices
    compare and hash equal however their entries are spelled.
    """

    _numerators: tuple[tuple[int, ...], ...]
    _scale: int

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(map(tuple, entries))
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidInput(f"pairing matrix is not square: {len(row)}x{n} row")
        scale = 1
        # int rows kept as given, not flattened and cut again: chain_intersect pass, pairings 2.8 -> 1.8 ms
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            numerators, scale = _integer_form(chain.from_iterable(rows))
            numerators = iter(numerators)
            rows = tuple(tuple(islice(numerators, n)) for _ in rows)
        # rows against columns in one comparison; the first failing (i, j) is
        # searched for only when it fails
        if rows != tuple(zip(*rows)):
            i, j = next((i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i])
            raise InvalidInput(f"pairing matrix is not symmetric at ({i},{j})", row=i, column=j)
        object.__setattr__(self, "_numerators", rows)
        object.__setattr__(self, "_scale", scale)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "SymmetricPairing":
        return cls(rows)

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
        """The matrix as rows of Fractions, built on the first read and kept."""
        scale = self._scale
        return tuple(tuple(Fraction(a, scale) for a in row) for row in self._numerators)

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
        """Each row's nonzero ``(column, int)`` pairs, ints over :attr:`_scale`; O(n^2) on the first read, then kept."""
        return tuple(map(self._row, range(self.dimension)))

    @cached_property
    def _scanned(self) -> dict[int, tuple[tuple[int, int], ...]]:
        return {}

    def _row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Row i of :attr:`nonzeros`: O(n) on the first read of row i, then kept."""
        row = self._scanned.get(i)
        if row is None:
            numerators = self._numerators[i]
            row = self._scanned[i] = tuple(compress(enumerate(numerators), numerators))
        return row

    def _rows_times(self, weights: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The sum of x times row i over the ``(i, x)`` pairs, by column, over the columns those rows touch."""
        total = {}
        for i, x in weights:
            for j, a in self._row(i):
                total[j] = total.get(j, 0) + a * x
        return total

    def _row_dot(self, i: int, numerators: Sequence[int]) -> int:
        """(A v)_i times :attr:`_scale` and v's denominator, for v given by ``numerators``."""
        return sum(a * numerators[j] for j, a in self._row(i))

    def apply(self, v: Sequence) -> Vector:
        """A v, exact; O(nnz) once the rows are scanned. A wrong length raises :class:`DimensionMismatch`."""
        numerators, den = _integer_form(v)
        self._check_length(numerators)
        den *= self._scale
        return tuple(Fraction(self._row_dot(i, numerators), den) for i in range(self.dimension))

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        """u^T A v, exact; O(nnz) of the rows in u's support. A wrong length raises :class:`DimensionMismatch`."""
        left, left_den = _integer_form(u)
        self._check_length(left)
        right, right_den = _integer_form(v)
        self._check_length(right)
        total = sum(x * self._row_dot(i, right) for i, x in enumerate(left) if x)
        return Fraction(total, left_den * right_den * self._scale)

    def restrict(self, indices: Sequence[int]) -> "SymmetricPairing":
        """The principal submatrix on ``indices``, in that order, equal to a fresh construction of it; O(k^2).

        A position that is not an int (bools and floats refused) or is out
        of range raises :class:`InvalidInput`.
        """
        for i in indices:
            if not 0 <= check_int(i, "basis position", None) < self.dimension:
                raise InvalidInput(f"basis position {i} out of range", dimension=self.dimension)
        # itemgetter copy and gcd guard vs the constructor: chain_intersect pass 29.4-30.0 -> 25.6-26.7 ms
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
        """The pairing's fraction-free symmetric :class:`Factor`, computed on the first read and kept.

        With N the int rows (A times :attr:`_scale`) and Q the product of the
        shears in order, Q^T N Q = U^T diag(1 / (p_{t-1} p_t)) U, where U has
        one row per pivot t: the minor p_t at column ``order[t]`` and
        ``rows[t]`` elsewhere. One elimination serves every form: each
        pending entry is kept once, in the row of its lower position, read
        from the int rows, so each Schur-complement entry is computed once.
        The pivot is the first pending row with a nonzero diagonal, else a
        shear makes one; the pending rows left all zero are the zero block. A
        form whose leading minors are all nonzero (every definite one) is so
        factored in order over its upper triangle. Each row update is one
        pass over the row and the pivot row, with exact divisions and zeros
        dropped: O(n) on a tridiagonal form such as a (-2)-chain and O(n^3)
        int operations dense.
        """
        numerators = self._numerators
        n = len(numerators)
        # row i from its diagonal on, zeros left out
        rows = [dict(compress(enumerate(row[i:], i), row[i:])) for i, row in enumerate(numerators)]
        seen = [0] * n  # the number of pivots each row has been brought past
        minors, order, pivots, shears = [1], [], [], []
        pending = list(range(n))
        for t in range(n):
            q = minors[t]
            # the pivot: the first pending row with a nonzero diagonal
            k = pending[0]
            at = 0 if k in rows[k] else next((at for at, i in enumerate(pending) if i in rows[i]), None)
            if at is None:
                at = next((at for at, i in enumerate(pending) if rows[i]), None)
                if at is None:
                    break
                # e_k -> e_k + e_j on the first nonzero pending row k: the pending rows before
                # it are zero, so j > k and column k's pending entries all lie in row k. Row k
                # gains row j, whose columns below j lie in the pending rows from k on; the
                # pivot rows' column k gains their column j
                k = pending[at]
                j = min(rows[k])
                shears.append((k, j))
                row_j = {i: rows[i][j] * q // minors[seen[i]] for i in pending[at:] if i < j and j in rows[i]}
                r = minors[seen[j]]
                row_j.update((m, a * q // r) for m, a in rows[j].items())
                r = minors[seen[k]]
                new = {m: a * q // r for m, a in rows[k].items()}
                for m, a in row_j.items():
                    new[m] = new.get(m, 0) + a
                new[k] += new[j]
                rows[k] = {m: a for m, a in new.items() if a}
                seen[k] = t
                for row in pivots:
                    row[k] = row.get(k, 0) + row.get(j, 0)
                    if not row[k]:
                        del row[k]
            k = pending.pop(at)
            pivot, s = rows[k], seen[k]
            if s != t:
                r = minors[s]
                pivot = {m: a * q // r for m, a in pivot.items()}
            p = pivot.pop(k)
            # an out-of-order pivot's columns below k lie in the pending rows before it
            if at:
                for i in pending[:at]:
                    a = rows[i].pop(k, 0)
                    if a:
                        pivot[i] = a * q // minors[seen[i]]
            get = pivot.get
            for l, b in pivot.items():
                # row l, brought past s = seen[l] pivots, becomes (p_{t+1} row_l - c row_k) / p_s
                # over its columns m >= l; c, its entry at column k, is pivot[l] brought back to stage s
                row = rows[l]
                d = minors[seen[l]]
                c = b * d // q
                new = {m: x for m, a in row.items() if (x := (p * a - c * get(m, 0)) // d)}
                # a row with every column from l on takes no fill-in; skipping its scan of the
                # pivot: 13 chain_intersect Grams, restrict plus congruence 5.5-5.7 -> 5.0-5.2 ms
                if len(row) < n - l:
                    for m, a in pivot.items():
                        if m >= l and m not in row:
                            new[m] = -c * a // d
                rows[l] = new
                seen[l] = t + 1
            minors.append(p)
            order.append(k)
            pivots.append(pivot)
        return Factor(tuple(order), tuple(tuple(row.items()) for row in pivots), tuple(minors), tuple(shears), tuple(pending))


class Factor(NamedTuple):
    """:attr:`SymmetricPairing.congruence`: a fraction-free symmetric factor of a pairing's integer form.

    ``order``: the pivots in elimination order; ``rows[t]``: pivot t's
    ``(column, int)`` pairs over the columns then pending, diagonal left out,
    in no fixed order;
    ``minors``: p_0 = 1, then the t-th leading minor in pivot order;
    ``shears``: the steps e_k -> e_k + e_j as ``(k, j)``; ``zeros``: the zero block, ascending.
    """

    order: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    minors: tuple[int, ...]
    shears: tuple[tuple[int, int], ...]
    zeros: tuple[int, ...]


def solve_linear(pairing: SymmetricPairing, rhs: Sequence) -> Vector:
    """The exact solution x of A x = b, read from the pairing's :class:`Factor` (computed on the first solve).

    ``rhs`` is coerced as by :func:`vector`; a wrong length raises
    :class:`DimensionMismatch`. Exactly when A is singular it raises
    :class:`SingularMatrix`, the first zero-block position as ``column``.
    O(nnz) of the factor: O(n) on a chain, O(n^2) dense, in ints; the n
    result Fractions are built once, at the end.
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
    scale = pairing._scale
    if scale != 1:
        b = [a * scale for a in b]
    # one map, no generator: 130 entries 84 -> 78 us
    return tuple(map(Fraction, b, repeat(den * det)))


def signature(pairing: SymmetricPairing) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of the form: the signs of p_t / p_{t-1} of its :class:`Factor`.

    By Sylvester's law of inertia (Jacobi's rule); the first call factors the form.
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
    """D1^2 D2^2 <= (D1 . D2)^2, and ``hypothesis_met``: a1 D1 + a2 D2 has positive square (the theorem's case)."""
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
