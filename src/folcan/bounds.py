"""Bound chain for the ambient canonical square and Hilbert function search.

Fixing the two leading intersection numbers k1 > 0 and k2 plus the global
index s pins the ambient square kx2 into a finite window:

* upper bound k2^2 / k1 from the index-theorem inequality, and
* strict lower bound -(16 s^2 k1 + 8 s k2), expressing positivity of the
  square of the auxiliary combination (4s * K_leading + K_ambient).

On top of that window, this module enumerates every basket compatible with
the index s up to a caller-supplied size cap, each generated in canonical
order so that none is sorted, filters by exact index match
and integrality of the Euler characteristic table, and returns the finite
deduplicated family of Hilbert functions with witnessing baskets. Each
basket is checked at chi = 0: chi is an integer, so it changes neither
integrality nor the correction table, and the accepted functions are then
expanded over the requested chi values. A cusp adds the integer -1 at every
m >= 1, so the index and the integrality of a basket depend only on its
finite-index part. Each part is decided on its first basket: it is out if
its index does not match or if P(1) is not an integer, a screen summed from
per-letter integers over one common denominator that builds no numerics.
A part that passes gets the full integrality check on each of its baskets
until one fails, and every later basket with that part is skipped. A query
whose index s is above ``riemann_roch.MAX_PERIOD`` (with cap >= 1) or that
spans more than :data:`MAX_BASKETS` baskets is refused before any basket is
generated. Accepted functions merge on their canonical form, the chi = 0
function, and each result is built once per chi from that form.
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
    local_term,
    q_index,
    terminal_cyclic,
)
from .errors import InvalidInput, NonPositiveVolume
from .exact_core import as_rational, check_int
from .riemann_roch import (
    HilbertFunction,
    ModelNumerics,
    check_period,
    integrality_check,
    quadratic_numerators,
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
    max_cusps since they do not constrain the index. Each basket is made in
    canonical order, so none is sorted: a combination of the alphabet is in
    canonical order already, and the cusps go in at their sorted position.
    With cap 0 the O(sqrt s) alphabet is not built.
    """
    s = check_int(s, "s", 1)
    check_int(cap, "cap")
    check_int(max_cusps, "max_cusps")
    letters = basket_alphabet(s) if cap else ()
    shared_cusp = cusp()  # one instance, so its cached term table is built once
    runs = [(shared_cusp,) * cusps for cusps in range(max_cusps + 1)]
    cusp_key, sort_key = shared_cusp.sort_key, operator.attrgetter("sort_key")
    for size in range(cap + 1):
        for combo in itertools.combinations_with_replacement(letters, size):
            at = bisect.bisect_left(combo, cusp_key, key=sort_key)
            head, tail = combo[:at], combo[at:]
            for run in runs:
                yield Basket._canonical(head + run + tail)


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


@dataclass(frozen=True)
class EnumeratedFunction:
    """One Hilbert function together with every basket that realized it."""

    function: HilbertFunction
    witnesses: tuple[Basket, ...]


def _basket_sort_key(basket: Basket):
    return tuple(p.sort_key for p in basket)


def _first_value_numerators(query: EnumerationQuery, letters: tuple) -> tuple[dict, int, int]:
    """``(letter_value, base, D)`` with D P(1) = base + sum of letter_value + D (chi - cusps).

    D = lcm(2 den k1, 2 den k2, the letters' m = 1 term denominators);
    ``letter_value`` maps each letter's ``sort_key`` to D times its term at
    m = 1, and base = D (k1 - k2) / 2. P(1) is an integer exactly when D
    divides base plus the values of a basket's finite-index letters.
    """
    terms = {p.sort_key: local_term(p, 1) for p in letters}
    den, a, b = quadratic_numerators(query.k1, query.k2, *(t.denominator for t in terms.values()))
    letter_value = {key: t.numerator * (den // t.denominator) for key, t in terms.items()}
    return letter_value, a - b, den


# the most baskets one enumerate_hilbert query may span (s = 60, cap = 8,
# max_cusps = 2 spans 959,310 and takes about 6 s on a 2-core VM); larger
# queries are refused before any basket is generated
MAX_BASKETS = 1_000_000


def enumerate_hilbert(query: EnumerationQuery) -> tuple[EnumeratedFunction, ...]:
    """Deduplicated Hilbert functions for the query, canonical order.

    With cap >= 1, an index s above ``riemann_roch.MAX_PERIOD`` raises
    :class:`InvalidInput` with the period s and the limit in its context
    (``terminal_cyclic(s)`` is a letter). The query spans
    C(|alphabet| + cap, cap) * (max_cusps + 1) baskets; above
    :data:`MAX_BASKETS` it raises :class:`InvalidInput` with that count and
    the limit in its context. Both are refused before scanning. With cap 0
    the alphabet is not built, so the cost does not grow with s.

    A finite-index part (a basket without its cusps) is decided once, on
    its first basket: it is out when its ``q_index`` does not match s, or
    when P(1) is not an integer, tested in integers from each letter's term
    at m = 1 (:func:`_first_value_numerators`) without a ``ModelNumerics``.
    Each basket of a part that is still in gets one integrality check and,
    if accepted, one compression, both at chi = 0; a failed check puts the
    part out. Functions merge on their canonical form (the chi = 0 function
    at its minimal period); a merged function is extrapolated if any witness
    is. Each result is built from that form once per chi in ``chi_set``.
    """
    if query.k1 <= 0:
        raise NonPositiveVolume(f"leading self-intersection must be positive, got {query.k1}")
    cap, max_cusps = query.basket_cap, query.max_cusps
    if cap >= 1:
        check_period(query.s)  # terminal_cyclic(s) is a letter of index s
    letters = basket_alphabet(query.s) if cap else ()
    count = math.comb(len(letters) + cap, cap) * (max_cusps + 1)
    if count > MAX_BASKETS:
        raise InvalidInput(
            f"the query spans {count} baskets, above the limit of {MAX_BASKETS}",
            baskets=count,
            limit=MAX_BASKETS,
        )
    found: dict[tuple, list] = {}
    # whether each finite-index part (the sort_keys of its profiles with a
    # local index) may still be accepted; a cusp adds the integer -1 at every
    # m >= 1, so the part alone decides the index and integrality of every
    # cusp variant, and it is decided on its first basket
    open_parts: dict[tuple, bool] = {}
    letter_value, base, den = _first_value_numerators(query, letters)
    for basket in enumerate_baskets(query.s, cap, max_cusps):
        finite = tuple(p.sort_key for p in basket.profiles if p.local_index is not None)
        is_open = open_parts.get(finite)
        if is_open is None:
            idx = q_index(basket)
            is_open = open_parts[finite] = (
                (idx == query.s or (query.q_index_divides and query.s % idx == 0))
                # den P(1) = base + the letters' values + den (chi - cusps)
                and (base + sum(letter_value[k] for k in finite)) % den == 0
            )
        if not is_open:
            continue
        numerics = ModelNumerics(k1=query.k1, k2=query.k2, chi=0, basket=basket)
        if not integrality_check(numerics):
            open_parts[finite] = False
            continue
        func = to_hilbert_function(numerics)
        entry = found.setdefault(func.canonical_form(), [False, []])
        entry[0] |= func.extrapolated
        entry[1].append(basket)
    merged = [
        (key, flag, tuple(sorted(witnesses, key=_basket_sort_key)))
        for key, (flag, witnesses) in sorted(found.items())
    ]
    return tuple(
        EnumeratedFunction(
            function=HilbertFunction(k1, k2, chi, period, correction, flag), witnesses=witnesses
        )
        for chi in sorted(query.chi_set)
        for (k1, k2, _, period, correction), flag, witnesses in merged
    )
