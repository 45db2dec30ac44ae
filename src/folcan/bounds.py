"""Bound chain for the ambient canonical square and Hilbert function search.

Fixing the two leading intersection numbers k1 > 0 and k2 plus the global
index s pins the ambient square kx2 into a finite window:

* upper bound k2^2 / k1 from the index-theorem inequality, and
* strict lower bound -(16 s^2 k1 + 8 s k2), expressing positivity of the
  square of the auxiliary combination (4s * K_leading + K_ambient).

On top of that window, :func:`enumerate_hilbert` returns the finite,
deduplicated family of Hilbert functions of the baskets compatible with s up
to a size cap, each with the baskets that realize it. The search relies on
two integer shifts of P(m), both made in ``riemann_roch``:

* a cusp adds -1 at every m >= 1 and leaves the index alone, so a basket's
  index and integrality are those of its finite-index part, and its table is
  the part's shifted by -1 per cusp (``ModelNumerics._with_cusps``);
* chi adds chi at every m, so the function at chi is the function at chi = 0
  plus chi, with the same witnesses (``HilbertFunction._with_chi``).
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .baskets import (
    Basket,
    cusp,
    dihedral_half,
    dihedral_zero,
    terminal_cyclic,
)
from .errors import InvalidInput, NonPositiveVolume
from .exact_core import as_rational, check_int, check_limit
from .riemann_roch import (
    HilbertFunction,
    ModelNumerics,
    _unit_weights,
    canonical_order,
    check_period,
    integrality_check,
    to_hilbert_function,
)


@dataclass(frozen=True)
class BoundReport:
    """Window for the ambient canonical square at fixed (k1, k2, s).

    ``kx2_lower_exclusive`` carries the quadratic-in-s coefficient 16s^2
    from expanding the auxiliary square. ``kx2_lower_exclusive_variant`` is
    the same bound with the coefficient linear in s (16s); the two readings
    circulate and they agree at s = 1, so the variant is populated only
    when it differs. ``interval_empty`` marks the degenerate configuration
    k2 = -4*s*k1 where the strict window closes completely.
    """

    kx2_upper: Fraction
    kx2_lower_exclusive: Fraction
    kx2_lower_exclusive_variant: Optional[Fraction] = None
    interval_empty: bool = False


def kx2_bounds(k1, k2, s: int) -> BoundReport:
    k1, k2 = as_rational(k1), as_rational(k2)
    s = check_int(s, "s", 1)
    if k1 <= 0:
        raise NonPositiveVolume(f"leading self-intersection must be positive, got {k1}")
    upper = k2 * k2 / k1
    lower = -(16 * s * s * k1 + 8 * s * k2)
    variant = -(16 * s * k1 + 8 * s * k2)
    return BoundReport(
        kx2_upper=upper,
        kx2_lower_exclusive=lower,
        kx2_lower_exclusive_variant=variant if variant != lower else None,
        interval_empty=lower >= upper,
    )


def ample_divisor_numerics(k1, k2, kx2, s: int) -> tuple[Fraction, Fraction]:
    """Square and ambient product of the combination 4s*K_leading + K_ambient."""
    k1, k2, kx2 = as_rational(k1), as_rational(k2), as_rational(kx2)
    s = check_int(s, "s", 1)
    d_squared = 16 * s * s * k1 + 8 * s * k2 + kx2
    d_dot_kx = 4 * s * k2 + kx2
    return (d_squared, d_dot_kx)


def km_envelope(d_squared, m: int, q0, q1, h0) -> bool:
    """|h0 - m^2 * D^2 / 2| <= q1*m + q0 for a caller-supplied envelope Q."""
    m = check_int(m, "m", 1)
    d_squared, q0, q1, h0 = (as_rational(x) for x in (d_squared, q0, q1, h0))
    return abs(h0 - m * m * d_squared / 2) <= q1 * m + q0


def basket_alphabet(s: int) -> tuple:
    """Profiles whose local index divides s, in canonical order."""
    s = check_int(s, "s", 1)
    letters = [dihedral_zero(1)]
    if s % 2 == 0:
        letters.append(dihedral_zero(2))
        letters.append(dihedral_half())
    # divisors in pairs (n, s // n), so the scan is O(sqrt s)
    small = [n for n in range(1, math.isqrt(s) + 1) if s % n == 0]
    divisors = set(small) | {s // n for n in small}
    letters.extend(terminal_cyclic(n) for n in divisors if n >= 2)
    return tuple(sorted(letters, key=lambda p: p.sort_key))


def enumerate_baskets(s: int, cap: int, max_cusps: int) -> Iterator[Basket]:
    """Every basket with <= cap finite-index profiles compatible with s.

    Deterministic order, no duplicates; cusps appended separately up to
    max_cusps since they do not constrain the index. The scan comes in
    consecutive groups of max_cusps + 1 baskets, one group per finite-index
    part (a combination of the alphabet), carrying 0, 1, ..., max_cusps
    cusps in that order. Each basket is made in canonical order and its one
    slot is set directly, with no sort: a combination of the alphabet is in
    canonical order already, and the cusps go in at their sorted position.
    With cap 0 the O(sqrt s) alphabet is not built.
    """
    s = check_int(s, "s", 1)
    check_int(cap, "cap")
    check_int(max_cusps, "max_cusps")
    letters = basket_alphabet(s) if cap else ()
    shared_cusp = cusp()  # one instance, so its cached term table is built once
    runs = [(shared_cusp,) * cusps for cusps in range(1, max_cusps + 1)]
    # the letters that sort before a cusp are a prefix of the alphabet, so a
    # combination's cusp slot is the count of its positions below that prefix's end
    low = bisect.bisect_left(letters, shared_cusp.sort_key, key=operator.attrgetter("sort_key"))
    new, fill = object.__new__, Basket.profiles.__set__
    for size in range(cap + 1):
        combos = itertools.combinations_with_replacement(letters, size)
        positions = itertools.combinations_with_replacement(range(len(letters)), size)
        for combo, at in zip(combos, map(bisect.bisect_left, positions, itertools.repeat(low))):
            basket = new(Basket)
            fill(basket, combo)
            yield basket
            if not runs:
                continue
            head, tail = combo[:at], combo[at:]
            for run in runs:
                basket = new(Basket)
                fill(basket, head + run + tail)
                yield basket


@dataclass(frozen=True)
class EnumerationQuery:
    k1: Fraction
    k2: Fraction
    s: int
    chi_set: frozenset[int]
    basket_cap: int
    max_cusps: int = 0
    q_index_divides: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k1", as_rational(self.k1))
        object.__setattr__(self, "k2", as_rational(self.k2))
        object.__setattr__(self, "chi_set", frozenset(self.chi_set))
        check_int(self.s, "s", 1)
        for chi in self.chi_set:
            check_int(chi, "chi_set entry", None)
        for name in ("basket_cap", "max_cusps"):
            value = getattr(self, name)
            if isinstance(value, numbers.Real) and value < 0:  # a negative size keeps its own message
                raise InvalidInput(f"{name} must be nonnegative, got {value!r}")
            check_int(value, name)
        if not isinstance(self.q_index_divides, bool):
            raise InvalidInput(f"q_index_divides must be a bool, got {self.q_index_divides!r}")


@dataclass(frozen=True)
class EnumeratedFunction:
    """One Hilbert function together with every basket that realized it."""

    function: HilbertFunction
    witnesses: tuple[Basket, ...]


# the most baskets one enumerate_hilbert query may span (s = 60, cap = 8,
# max_cusps = 2 spans 959,310 and takes 0.9-1.7 s through cli.run, in-process,
# on a 2-core VM); larger queries are refused before any basket is generated
MAX_BASKETS = 1_000_000

# the most chi values one enumerate_hilbert query may ask for: every result
# is copied once per chi (``enumerate --k1 1 --k2 0 --s 12 --cap 6
# --max-cusps 2`` over 100 chi values prints 13.0 MB of JSON in 0.28-0.34 s
# and peaks at 84 MB RSS, run in-process through cli.run into a StringIO on
# a 2-core VM); larger chi sets are refused before any basket is generated
MAX_CHI = 100


def _part_decisions(query: EnumerationQuery, letters: tuple) -> Iterator[bool]:
    """One boolean per finite-index part of the query's scan, in scan order: whether it is in.

    ``letters`` is the scan's alphabet. A part is in when the lcm of its
    letters' indices matches s (divides it, under ``q_index_divides``) and
    P(1) is an integer. A part of size k is a part of size k - 1 plus one
    letter at or after its last one, in the order of
    ``combinations_with_replacement``, so the parts are walked level by
    level: level k < cap is built from level k - 1 in one comprehension of
    (lcm, weight mod den, letters still allowed) triples, and the parts of
    size cap are decided from level cap - 1 without building theirs.
    """
    # P(1) is an integer exactly when the part's m = 1 weights sum to target mod den
    den, weights, target = _unit_weights(query.k1, query.k2, letters)
    # after[i]: (index, weight, after[j]) of each letter j >= i, the letters
    # that may follow a part whose last letter is i (after[0] for the empty part)
    after = [[] for _ in range(len(letters) + 1)]
    steps = [(p.local_index or 1, w, later) for p, w, later in zip(letters, weights, after)]
    for i, later in enumerate(after):
        later.extend(steps[i:])
    lcm = math.lcm

    def grow(level, _):
        return [(lcm(q, n), (w + x) % den, later) for q, w, follow in level for n, x, later in follow]

    # every letter's index divides s, so under q_index_divides every lcm does
    s, divides = query.s, query.q_index_divides

    def longer(level):  # the decisions of the parts one letter longer than level's
        # the residue test first: it is cheaper than the lcm and fails for most parts
        return [(w + x) % den == target and (divides or lcm(q, n) == s) for q, w, follow in level for n, x, _ in follow]

    cap = query.basket_cap
    # levels 0 .. cap - 1, each deciding the parts one letter longer, so level cap is never built
    levels = itertools.accumulate(range(cap - 1), grow, initial=[(1, 0, after[0])]) if cap else ()
    empty = (divides or s == 1) and target == 0  # the part of size 0: lcm 1, weight 0
    return itertools.chain([empty], itertools.chain.from_iterable(map(longer, levels)))


def enumerate_hilbert(query: EnumerationQuery) -> tuple[EnumeratedFunction, ...]:
    """Deduplicated Hilbert functions for the query, canonical order.

    With cap >= 1, an index s above ``riemann_roch.MAX_PERIOD`` raises
    :class:`InvalidInput` with the period s and the limit in its context
    (``terminal_cyclic(s)`` is a letter). The query spans
    C(|alphabet| + cap, cap) * (max_cusps + 1) baskets; above
    :data:`MAX_BASKETS` it raises :class:`InvalidInput` with that count and
    the limit in its context, and a ``chi_set`` of more than :data:`MAX_CHI`
    values raises it with its size and the limit. All are refused before
    scanning. With cap 0 the alphabet is not built, so the cost does not
    grow with s.

    The result lists, for each chi in increasing order, every function at
    its minimal period in :func:`riemann_roch.canonical_order`, each with its
    witnesses in canonical order; a function is extrapolated if any of its
    witnesses is. The scan decides each finite-index part once
    (:func:`_part_decisions`). A part that passes gets one table and one
    integrality check at chi = 0, and its cusp variants take both from it by
    the cusp shift. The merge keys on the functions' own equality, and every
    further chi is a copy that differs only in chi.
    """
    if query.k1 <= 0:
        raise NonPositiveVolume(f"leading self-intersection must be positive, got {query.k1}")
    cap, max_cusps = query.basket_cap, query.max_cusps
    if cap >= 1:
        check_period(query.s)  # terminal_cyclic(s) is a letter of index s
    letters = basket_alphabet(query.s) if cap else ()
    count = math.comb(len(letters) + cap, cap) * (max_cusps + 1)
    check_limit(count, MAX_BASKETS, "baskets", "the query spans {} baskets,")
    check_limit(len(query.chi_set), MAX_CHI, "chi_values", "the query asks for {} chi values,")
    # each function: a witness's function (an extrapolated one if any is) and its witnesses
    found: dict[HilbertFunction, list] = {}
    groups = zip(*[enumerate_baskets(query.s, cap, max_cusps)] * (max_cusps + 1))
    for variants in itertools.compress(groups, _part_decisions(query, letters)):
        part = ModelNumerics(k1=query.k1, k2=query.k2, chi=0, basket=variants[0])
        for cusps, basket in enumerate(variants):
            numerics = part._with_cusps(basket, cusps) if cusps else part
            if not integrality_check(numerics):
                break
            func = to_hilbert_function(numerics)
            entry = found.setdefault(func, [func, []])
            if func.extrapolated:
                entry[0] = func
            entry[1].append(basket)
    forms = [
        (func.canonicalized(), tuple(sorted(witnesses, key=lambda basket: [p.sort_key for p in basket])))
        for func, witnesses in map(found.get, canonical_order(found))
    ]
    return tuple(
        EnumeratedFunction(function=func._with_chi(chi), witnesses=witnesses)
        for chi in sorted(query.chi_set)
        for func, witnesses in forms
    )
