"""Euler characteristic tables P(m) = chi(m K) from numerical data, and their integrality.

P(m) = (k1 m^2 - k2 m) / 2 + chi + the basket's local terms at m (m >= 1;
P(0) = chi). The integer form of a :class:`HilbertFunction` is private here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .baskets import Basket, LocalProfile, basket_term, q_index, uses_extrapolation
from .errors import InvalidInput, NotIntegral
from .exact_core import _integer_form, _ratio_text, as_rational, check_int, check_limit, format_rational, vector

@dataclass(frozen=True)
class ModelNumerics:
    """The numerical input (k1, k2, chi, basket), and an ambient square ``kx2`` that no evaluation reads; frozen.

    k1, k2 (and kx2) are rationals, chi an int and ``basket`` a
    :class:`Basket`; ``general_type``, a bool, asserts k1 > 0. A violation
    raises :class:`InvalidInput` (a float :class:`TypeError`). Its one table
    is built on first use in one pass over the basket's kinds of point (equal
    profiles): O(points + T x distinct indices + override entries).
    """

    k1: Fraction
    k2: Fraction
    chi: int
    basket: Basket = field(default_factory=Basket)
    kx2: Optional[Fraction] = None
    general_type: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k1", as_rational(self.k1))
        object.__setattr__(self, "k2", as_rational(self.k2))
        if self.kx2 is not None:
            object.__setattr__(self, "kx2", as_rational(self.kx2))
        check_int(self.chi, "chi", None)
        if not isinstance(self.basket, Basket):
            raise InvalidInput("basket must be a Basket instance")
        if not isinstance(self.general_type, bool):
            raise InvalidInput(f"general_type must be a bool, got {self.general_type!r}")
        if self.general_type and self.k1 <= 0:
            raise InvalidInput("general_type flag set but k1 <= 0", k1=str(self.k1))

    def denominators_consistent(self) -> bool:
        """Whether s^2 k1 and s k2 are integers for s the basket index, as on any model; advisory only."""
        s = q_index(self.basket)
        return (self.k1 * s * s).denominator == 1 and (self.k2 * s).denominator == 1

    @functools.cached_property
    def _table(self) -> HilbertFunction:
        # hilbert_table's one table, in one pass over the basket's kinds of point:
        # the period limit is checked as the lcm of their indices grows, each
        # kind's row is read once and scaled by its count, and the rows of one
        # length (an index) are summed there and expanded to T once
        period, kinds, rows = 1, [], {}
        for _, group in itertools.groupby(self.basket.profiles, lambda p: p.sort_key):
            point, *equal = group  # equal profiles sit together in canonical order
            period = check_period(math.lcm(period, point.local_index or 1))
            kinds.append((point, 1 + len(equal), point.term_numerators))  # an O(index) row, read after the check
        den = math.lcm(*(d for _, _, (d, _) in kinds))
        for _, count, (d, t) in kinds:
            scale, row = den // d * count, rows.get(len(t))
            rows[len(t)] = [scale * x for x in t] if row is None else [y + scale * x for y, x in zip(row, t)]
        raw = tuple(map(sum, zip([0] * period, *(row * (period // len(row)) for row in rows.values()))))
        # every index n divides T, and residue 2 lies outside {0, 1, n - 1} exactly
        # when some residue does (n >= 4), so m = 2 decides the flag for m in [1, T]
        flagged = any(uses_extrapolation(p, 2) for p, _, _ in kinds)
        return HilbertFunction._from_integers(self.k1, self.k2, self.chi, raw, den, flagged)

    def _with_cusps(self, basket: Basket, cusps: int) -> ModelNumerics:
        """The numerics of ``basket``, this one's plus ``cusps`` cusps: this table shifted by -cusps.

        An integer shift moves no m across integrality, so a verdict already kept here carries over as it is.
        """
        num = object.__new__(ModelNumerics)
        num.__dict__.update(self.__dict__, basket=basket, _table=self._table._copy(shift=-cusps))
        return num

    @functools.cached_property
    def _verdict(self) -> Optional[int]:
        # the first m in [1, L) whose P(m) is not an integer, None if there is
        # none; L is the window of the table's own period
        table = self._table
        den, window = table._integer_form[0], window_length(table.period, self.k1, self.k2)
        for m, total in enumerate(table._numerators(range(1, window)), 1):
            if total % den:
                return m
        return None


def hilbert_value(num: ModelNumerics, m: int) -> Fraction:
    """P(m) by its Fraction definition, the reference the tables are tested against; m is an int >= 0."""
    check_int(m, "multiple")
    quadratic = (num.k1 * m * m - num.k2 * m) / 2
    return quadratic + num.chi + basket_term(num.basket, m)


def window_length(period: int, k1: Fraction, k2: Fraction) -> int:
    """L = lcm(T, 2 den k1, 2 den k2) for a correction of period T.

    P(m + L) - P(m) is an integer for every m, so P is integral on all m
    exactly when it is on [0, L).
    """
    return math.lcm(period, 2 * k1.denominator, 2 * k2.denominator)


# the largest basket period T whose tables are built: term tables, the
# integrality window and the listed values are all O(T)
MAX_PERIOD = 100_000


def check_period(period: int) -> int:
    """``period``, or :class:`InvalidInput` with it and the limit in its context above :data:`MAX_PERIOD`."""
    return check_limit(period, MAX_PERIOD, "period", "basket period {} is")


def integrality_window(num: ModelNumerics) -> int:
    """:func:`window_length` at the period T of :func:`hilbert_table`'s table, with its cost and its period refusal."""
    return window_length(num._table.period, num.k1, num.k2)


def _quadratic_numerators(k1: Fraction, k2: Fraction, *denominators: int) -> tuple[int, int, int]:
    """``(D, a, b)``: D = lcm(2 den k1, 2 den k2, *denominators), a = D k1 / 2, b = D k2 / 2, all ints."""
    den = math.lcm(2 * k1.denominator, 2 * k2.denominator, *denominators)
    a = k1.numerator * (den // (2 * k1.denominator))
    b = k2.numerator * (den // (2 * k2.denominator))
    return den, a, b


def _unit_weights(k1: Fraction, k2: Fraction, letters: Sequence[LocalProfile]) -> tuple[int, list[int], int]:
    """``(D, w, target)``: w[i] is D times letter i's term at m = 1, all ints.

    P(1) of a basket over ``letters`` (with any cusps, at any chi) is an
    integer exactly when its letters' weights sum to target mod D.
    """
    tables = [p.term_numerators for p in letters]
    den, a, b = _quadratic_numerators(k1, k2, *(d for d, _ in tables))
    return den, [t[1 % len(t)] * (den // d) for d, t in tables], (b - a) % den


def integrality_check(num: ModelNumerics) -> bool:
    """Whether every P(m), m >= 0, is an integer; O(L) for the window L on the first call, then kept.

    A basket period above :data:`MAX_PERIOD` raises :class:`InvalidInput`, on every call.
    """
    return num._verdict is None


@dataclass(frozen=True, eq=False, init=False)
class HilbertFunction:
    """The table value(m) = (k1 m^2 - k2 m) / 2 + chi + correction[m mod T] for m >= 1, value(0) = chi; frozen.

    k1, k2 and the T corrections are rationals, chi an int and the period
    T >= 1; a wrong type or length raises :class:`InvalidInput`. Equal (and
    hash equal) exactly when the values agree at every m, whatever the
    periods; ``extrapolated`` (a bool: some value rests on an extrapolated
    term) stays out of equality.
    """

    k1: Fraction
    k2: Fraction
    chi: int
    period: int
    correction: tuple[Fraction, ...]
    extrapolated: bool = False

    def __init__(self, k1, k2, chi, period, correction, extrapolated=False):
        k1, k2 = as_rational(k1), as_rational(k2)
        correction = vector(correction)
        check_int(chi, "chi", None)
        check_int(period, "period", 1)
        if len(correction) != period:
            raise InvalidInput(f"correction table has length {len(correction)}, period is {period}")
        if not isinstance(extrapolated, bool):
            raise InvalidInput(f"extrapolated must be a bool, got {extrapolated!r}")
        raw, den = _integer_form(correction)
        # the state _from_integers sets, with the given tuple kept as the view
        self.__dict__.update(vars(self._from_integers(k1, k2, chi, raw, den, extrapolated)), correction=correction)

    @classmethod
    def _from_integers(cls, k1, k2, chi, raw, den, extrapolated) -> "HilbertFunction":
        """The function with corrections raw[r] / den, for arguments already checked."""
        lowest = den // math.gcd(den, *raw)  # the corrections' own common denominator
        lcd, a, b = _quadratic_numerators(k1, k2, lowest)
        c = tuple(x // (den // lowest) * (lcd // lowest) for x in raw)
        func = object.__new__(cls)
        func.__dict__.update(
            k1=k1, k2=k2, chi=chi, period=len(raw), extrapolated=extrapolated, _integer_form=(lcd, a, b, c))
        return func

    @functools.cached_property
    def correction(self) -> tuple[Fraction, ...]:
        # the Fraction view c[r] / D, built on the first read
        den, _, _, c = self._integer_form
        return tuple(Fraction(x, den) for x in c)

    @functools.cached_property
    def _minimal_period(self) -> int:  # the least d dividing T with c[r] = c[r + d] for every r
        c, t = self._integer_form[3], self.period
        return next(d for d in range(1, t + 1) if t % d == 0 and c[d:] == c[:-d])

    def _copy(self, shift: int = 0, period: Optional[int] = None, **fields) -> HilbertFunction:
        # the one copy: fields replaced, P(m) moved by shift at m >= 1 and c cut to period, a
        # multiple of the minimal period, so D, a, b and the minimal period carry over; the
        # correction view carries over only if c is unchanged
        func = object.__new__(type(self))
        func.__dict__.update(self.__dict__, **fields)
        if shift or period not in (None, self.period):
            den, a, b, c = self._integer_form
            c = tuple(x + shift * den for x in c[:period])
            func.__dict__.update(period=len(c), _integer_form=(den, a, b, c))
            func.__dict__.pop("correction", None)
        return func

    def _with_chi(self, chi: int) -> HilbertFunction:
        """This function at ``chi``: itself if ``chi`` is its own, else a copy sharing its form and view."""
        return self if chi == self.chi else self._copy(chi=chi)

    def _numerators(self, ms: Iterable[int]) -> Iterator[int]:
        # D (P(m) - chi) = (a m - b) m + c[m mod T] for each m >= 1 of ms, the one evaluation of the form
        _, a, b, c = self._integer_form
        period = self.period
        return ((a * m - b) * m + c[m % period] for m in ms)

    def value(self, m: int) -> Fraction:
        check_int(m, "multiple")
        total = next(self._numerators((m,))) if m else 0  # the correction applies at m >= 1 only
        return Fraction(total, self._integer_form[0]) + self.chi

    def value_texts(self, mmax: int) -> list[str]:
        """``format_rational(self.value(m))`` for m in [0, mmax]; a negative mmax raises :class:`InvalidInput`."""
        check_int(mmax, "mmax")
        den = self._integer_form[0]
        shift = den * self.chi
        return [str(self.chi), *(_ratio_text(x + shift, den) for x in self._numerators(range(1, mmax + 1)))]

    def _chi_free_values(self, mmax: int) -> Optional[list[int]]:
        """P(m) - chi for m in [0, mmax] as ints, or None if one of them is not an integer."""
        den = self._integer_form[0]
        totals = list(self._numerators(range(1, mmax + 1)))
        return None if any(map(den.__rmod__, totals)) else [0, *map(den.__rfloordiv__, totals)]

    def correction_texts(self) -> list[str]:
        """``format_rational`` of each correction."""
        den, _, _, c = self._integer_form
        return [_ratio_text(x, den) for x in c]

    def _form_key(self) -> tuple:  # an opaque key, equal exactly when the texts but chi and extrapolated are
        return self._integer_form

    def _identity(self) -> tuple:
        # (D, a, b, c) at the minimal period, one-to-one with k1, k2 and the corrections there
        den, a, b, c = self._integer_form
        return self.chi, den, a, b, c[: self._minimal_period]

    def canonical_form(self) -> tuple:
        minimal = self._minimal_period
        return (self.k1, self.k2, self.chi, minimal, self.correction[:minimal])

    def __eq__(self, other):
        if not isinstance(other, HilbertFunction):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def canonicalized(self) -> "HilbertFunction":
        return self._copy(period=self._minimal_period)


def canonical_order(functions: Collection[HilbertFunction]) -> list[HilbertFunction]:
    """Functions of one k1, k2 and chi, sorted by minimal period and then by their corrections there."""
    scale = math.lcm(*(h._integer_form[0] for h in functions))

    def key(h):  # the corrections as integers over one common denominator
        den, _, _, c = h._integer_form
        return h._minimal_period, [x * (scale // den) for x in c[: h._minimal_period]]

    return sorted(functions, key=key)


def hilbert_table(num: ModelNumerics) -> HilbertFunction:
    """The table of ``num``, integral or not, over the basket period T; one object per numerics.

    Residue r holds ``basket_term(num.basket, r or T)``, cusps included.
    T, the lcm of the indices, is checked kind by kind as it grows: past
    :data:`MAX_PERIOD` it raises :class:`InvalidInput`, that running lcm in
    its context, before any period-long row or the basket's exact lcm is
    built. O(points + T x distinct indices + override entries) on the first
    call: each kind's row is read once and scaled by its count.
    """
    return num._table


def to_hilbert_function(num: ModelNumerics) -> HilbertFunction:
    """:func:`integrality_check`, then :func:`hilbert_table`.

    A failed check raises :class:`NotIntegral` with the window of the table's
    period, the kept verdict (the first m >= 1 whose value is not an
    integer) and that value's text.
    """
    if not integrality_check(num):
        m, table = num._verdict, num._table
        text = format_rational(table.value(m))
        window = window_length(table.period, num.k1, num.k2)
        raise NotIntegral(f"table has non-integer values, first P({m}) = {text}", window=window, m=m, value=text)
    return hilbert_table(num)


def table_second_difference(h: HilbertFunction, m: int, step: int) -> Fraction:
    """P(m + 2*step) - 2 P(m + step) + P(m)."""
    return h.value(m + 2 * step) - 2 * h.value(m + step) + h.value(m)


def second_difference_check(h: HilbertFunction) -> bool:
    """Whether the second difference at step T is T^2 k1 for m in [1, 2T], as for every well-formed table.

    A damaged table gives False, not an error: corrections of the wrong
    length, or values that differ or fail to evaluate.
    """
    t = h.period
    try:
        return len(h.correction) == t and all(
            table_second_difference(h, m, t) == t * t * h.k1 for m in range(1, 2 * t + 1)
        )
    except (IndexError, TypeError, ZeroDivisionError):
        return False
