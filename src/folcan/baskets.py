"""Singular points as local correction profiles, and baskets of them.

A point enters Riemann-Roch only through its local terms m -> a(x, m K), so
it is a :class:`LocalProfile`; a :class:`Basket` is a multiset of them.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import InvalidInput, InvalidOverride
from .exact_core import _integer_form, check_int, vector


class SingularityKind(str, enum.Enum):
    TERMINAL_CYCLIC = "TerminalCyclic"
    DIHEDRAL_ZERO = "DihedralZero"
    DIHEDRAL_HALF = "DihedralHalf"
    NON_QGOR_CUSP = "NonQGorCusp"


@dataclass(frozen=True)
class LocalProfile:
    """One singular point: its kind and local Cartier index; frozen.

    ``TerminalCyclic``: index n >= 2, term 0 where n | m and -(n-1)/(2n)
    where m = +-1 mod n, elsewhere the extrapolation -r(n-r)/(2n) at residue
    r, or an ``override`` of n terms (0 at r = 0, none positive).
    ``DihedralZero``: term 0, index 1 or 2. ``DihedralHalf``: -1/2 at odd m,
    0 at even m, index 2. ``NonQGorCusp``: -1 at every m >= 1, index None.
    A wrong index raises :class:`InvalidInput`, a bad override :class:`InvalidOverride`.
    """

    kind: SingularityKind
    local_index: Optional[int]
    override: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        kind = SingularityKind(self.kind)
        object.__setattr__(self, "kind", kind)
        idx = self.local_index
        if kind is SingularityKind.TERMINAL_CYCLIC:
            check_int(idx, "terminal cyclic index", 2)
            if self.override is not None:
                table = vector(self.override)
                if len(table) != idx:
                    raise InvalidOverride(
                        f"override table has length {len(table)}, index is {idx}",
                        expected=idx,
                    )
                if table[0] != 0:
                    raise InvalidOverride("override table must vanish at residue 0")
                if any(value > 0 for value in table):
                    raise InvalidOverride("override table must be nonpositive")
                object.__setattr__(self, "override", table)
        else:
            if self.override is not None:
                raise InvalidOverride(f"override tables only apply to terminal cyclic profiles")
            if kind is SingularityKind.DIHEDRAL_ZERO:
                if idx not in (1, 2):
                    raise InvalidInput(f"dihedral-zero index must be 1 or 2, got {idx!r}")
            elif kind is SingularityKind.DIHEDRAL_HALF:
                if idx != 2:
                    raise InvalidInput(f"dihedral-half index is fixed at 2, got {idx!r}")
            elif idx is not None:
                raise InvalidInput(f"cusp profiles carry no local index, got {idx!r}")

    @functools.cached_property
    def sort_key(self):
        return (
            self.kind.value,
            self.local_index or 0,
            self.override if self.override is not None else (),
        )

    @functools.cached_property
    def term_numerators(self) -> tuple[int, tuple[int, ...]]:
        """``(d, t)`` with local_term(self, m) = t[m % len(t)] / d for every m >= 1; computed once and kept.

        ``t`` covers one period (the local index, 1 for a cusp); d is the least common denominator.
        """
        period, kind = self.local_index or 1, self.kind
        if self.override is not None:
            values, scale = _integer_form(self.override)
        elif kind is SingularityKind.TERMINAL_CYCLIC:
            scale, values = 2 * period, [-r * (period - r) for r in range(period)]
        elif kind is SingularityKind.DIHEDRAL_HALF:
            scale, values = 2, [0, -1]
        elif kind is SingularityKind.NON_QGOR_CUSP:
            scale, values = 1, [-1]
        else:
            scale, values = 1, [0] * period
        g = math.gcd(scale, *values)
        return scale // g, tuple(v // g for v in values)


def terminal_cyclic(n: int, override: Optional[Iterable] = None) -> LocalProfile:
    return LocalProfile(
        SingularityKind.TERMINAL_CYCLIC,
        n,
        tuple(override) if override is not None else None,
    )


def dihedral_zero(index: int = 2) -> LocalProfile:
    return LocalProfile(SingularityKind.DIHEDRAL_ZERO, index)


def dihedral_half() -> LocalProfile:
    return LocalProfile(SingularityKind.DIHEDRAL_HALF, 2)


def cusp() -> LocalProfile:
    return LocalProfile(SingularityKind.NON_QGOR_CUSP, None)


def local_term(profile: LocalProfile, m: int) -> Fraction:
    """The point's term at the m-th multiple, 0 at m = 0; an m that is no int >= 0 raises :class:`InvalidInput`."""
    m = check_int(m, "multiple")
    if m == 0:
        return Fraction(0)
    kind = profile.kind
    if kind is SingularityKind.NON_QGOR_CUSP:
        return Fraction(-1)
    if kind is SingularityKind.DIHEDRAL_ZERO:
        return Fraction(0)
    if kind is SingularityKind.DIHEDRAL_HALF:
        return Fraction(-1, 2) if m % 2 else Fraction(0)
    n = profile.local_index
    r = m % n
    if profile.override is not None:
        return profile.override[r]
    # 0 at r = 0 and -(n-1)/(2n) at r = +-1, the backed values
    return Fraction(-r * (n - r), 2 * n)


def uses_extrapolation(profile: LocalProfile, m: int) -> bool:
    """Whether the term at m rests on no backed value: a terminal cyclic point at a residue outside {0, 1, n - 1}.

    True with an override too; reports built from such a term carry the flag.
    """
    m = check_int(m, "multiple")
    if m == 0 or profile.kind is not SingularityKind.TERMINAL_CYCLIC:
        return False
    r = m % profile.local_index
    return r not in (0, 1, profile.local_index - 1)


@dataclass(frozen=True, slots=True)
class Basket:
    """A finite multiset of local profiles, kept as a tuple in canonical order.

    A non-iterable, or an entry that is not a :class:`LocalProfile`, raises
    :class:`InvalidInput`. Frozen and slotted: assigning or deleting
    ``profiles`` raises :class:`dataclasses.FrozenInstanceError`, and
    assigning another name raises too (:class:`TypeError` on CPython 3.11).
    """

    profiles: tuple[LocalProfile, ...] = ()

    def __post_init__(self):
        try:
            entries = iter(self.profiles)
        except TypeError:
            raise InvalidInput(f"a basket takes an iterable of local profiles, got {self.profiles!r}") from None
        entries = tuple(entries)
        for entry in entries:
            if not isinstance(entry, LocalProfile):
                raise InvalidInput(f"basket entries must be local profiles, got {entry!r}")
        ordered = tuple(sorted(entries, key=operator.attrgetter("sort_key")))
        object.__setattr__(self, "profiles", ordered)

    @classmethod
    def of(cls, *profiles: LocalProfile) -> "Basket":
        return cls(tuple(profiles))

    def __iter__(self) -> Iterator[LocalProfile]:
        return iter(self.profiles)

    def __len__(self) -> int:
        return len(self.profiles)


def basket_term(basket: Basket, m: int) -> Fraction:
    m = check_int(m, "multiple")
    return sum((local_term(p, m) for p in basket), Fraction(0))


def basket_uses_extrapolation(basket: Basket, m: int) -> bool:
    return any(uses_extrapolation(p, m) for p in basket)


def q_index(basket: Basket) -> int:
    """The least m >= 1 making the m-th multiple Cartier at every finite-index point; 1 for no such point."""
    return math.lcm(*[p.local_index or 1 for p in basket.profiles])


@dataclass(frozen=True)
class SizeBoundVerdict:
    sum_neg_a: Fraction
    size: int
    bound_holds: bool


def basket_size_bound(basket: Basket) -> SizeBoundVerdict:
    """``sum_neg_a``: minus the basket's term at m = 1; ``size``: its profiles but index-1 dihedral-zero points.

    ``bound_holds``: over the terminal cyclic and dihedral-half profiles,
    minus their m = 1 terms sum to at least half their count. It can fail.
    """
    sum_neg_a = -basket_term(basket, 1)
    size = sum(
        1
        for p in basket
        if not (p.kind is SingularityKind.DIHEDRAL_ZERO and p.local_index == 1)
    )
    weighted = [
        p
        for p in basket
        if p.kind in (SingularityKind.TERMINAL_CYCLIC, SingularityKind.DIHEDRAL_HALF)
    ]
    restricted_sum = -sum((local_term(p, 1) for p in weighted), Fraction(0))
    holds = restricted_sum >= Fraction(len(weighted), 2)
    return SizeBoundVerdict(sum_neg_a=sum_neg_a, size=size, bound_holds=holds)
