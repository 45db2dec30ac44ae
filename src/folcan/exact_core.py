"""Exact rationals and vectors, shared by every layer.

No float is used: a rational is a Fraction, or ints over one denominator. A
rational crosses a file boundary as its canonical text ``p/q`` (``p`` when q = 1).

The bilinear-form layer (:class:`SymmetricPairing`, :class:`Factor`,
:func:`solve_linear`, :func:`signature`, :func:`is_negative_definite`,
:class:`HodgeVerdict`, :func:`hodge_check`) lives in :mod:`folcan.lattice`.
Each of its names is still read from here (PEP 562): the first read imports
``lattice`` and keeps the name in this module, so commands that never pair
divisors (``enumerate``, ``bounds``, ``hilbert``) never load that layer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, InvalidInput

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """The rational that the canonical text ``p/q`` (or bare ``p``) spells.

    Exactly the strings :func:`format_rational` writes are accepted: ASCII
    digits, one leading minus on a nonzero numerator, q >= 2 coprime to p,
    no leading zeros, no whitespace. Anything else, a non-string included,
    raises :class:`ValueError`: ``"2/4"``, ``"007"``, ``" 3 "``, ``"-0"``, ``"1/0"``.
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
    return _ratio_text(value.numerator, value.denominator)


def _ratio_text(num: int, den: int) -> str:
    # the one canonical text: format_rational(Fraction(num, den)) for den > 0, by one gcd
    # with _append's str branch: enum_ladder 84.6-87.7 -> 88.8-91.7 ops/s, op_p90 17.9-18.4 -> 16.3-17.0 ms
    g = gcd(num, den)
    return str(num // den) if g == den else f"{num // g}/{den // g}"


def as_rational(value) -> Fraction:
    """An int, a Fraction or a canonical string as a Fraction.

    A bool, a float or any other type raises :class:`TypeError`; a
    non-canonical string raises :class:`ValueError`, as in :func:`parse_rational`.
    """
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
    """``value`` if it is an int (not a bool) >= ``minimum`` (None: no bound), else :class:`InvalidInput`.

    Floats and integral strings are refused too; nothing is truncated or coerced.
    """
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        kind = _INT_KINDS.get(minimum, f"an integer >= {minimum}")
        raise InvalidInput(f"{name} must be {kind}, got {value!r}")
    return value


def check_limit(value: int, limit: int, name: str, what: str) -> int:
    """``value``, or above ``limit`` :class:`InvalidInput` with context ``{name: value, "limit": limit}``.

    The package's one size-limit refusal, behind every ``MAX_*`` limit. Its
    message is ``what.format(value)`` followed by " above the limit of <limit>".
    """
    if value > limit:
        raise InvalidInput(f"{what.format(value)} above the limit of {limit}", **{name: value, "limit": limit})
    return value


def vector(entries: Iterable) -> Vector:
    """The entries as a tuple of Fractions, each coerced (and refused) as by :func:`as_rational`."""
    entries = tuple(entries)
    kinds = set(map(type, entries))
    # all Fractions kept as they are vs the dict below: chain_intersect pass 29.3 -> 22.8 ms
    if kinds <= {Fraction}:
        return entries
    # one coercion per distinct value vs one per entry: chain_intersect pass 25.3 -> 23.0 ms
    if kinds <= {int, Fraction}:
        exact = {x: as_rational(x) for x in set(entries)}
        return tuple(map(exact.__getitem__, entries))
    return tuple(as_rational(entry) for entry in entries)


def vec_add(u: Sequence, v: Sequence) -> Vector:
    """u + v, exact; unequal lengths raise :class:`DimensionMismatch`."""
    u, v = vector(u), vector(v)
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(coeff, v: Sequence) -> Vector:
    c = as_rational(coeff)
    return tuple(c * a for a in vector(v))


def _integer_form(values: Iterable) -> tuple[tuple[int, ...], int]:
    """``values`` (coerced as by :func:`vector`) as int numerators over their least common positive denominator.

    O(n): ints are kept as their own numerators (den 1) and Fractions read
    as they are, neither hashed nor built; any other type (bools, floats,
    strings, Fraction subclasses) goes through :func:`vector` first.
    """
    values = tuple(values)
    kinds = set(map(type, values))
    # all ints as their own numerators, no Fraction built: chain_intersect pass 38.1 -> 24.1 ms
    if kinds <= {int}:
        return values, 1
    # ints and Fractions read as they are, no dict of Fractions: 130 mixed entries 215 -> 34 us
    if not kinds <= {int, Fraction}:
        values = vector(values)
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


# the names of folcan.lattice read from here, imported on the first read; kept
# while the benchmark's tracer and per-layer metrics name exact_core.signature
# and exact_core.solve_linear (ROADMAP item 1b retires it)
_LATTICE = frozenset(
    ("Factor", "HodgeVerdict", "SymmetricPairing", "hodge_check", "is_negative_definite", "signature", "solve_linear")
)


def __getattr__(name: str):
    if name not in _LATTICE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import lattice

    value = globals()[name] = getattr(lattice, name)  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LATTICE)
