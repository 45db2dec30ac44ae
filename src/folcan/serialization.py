"""JSON documents of the package's objects, every rational a canonical "p/q" string.

A malformed document raises :class:`DocumentError`; a well-formed one that
describes invalid mathematics raises the constructing module's error.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Callable, Optional

from .baskets import (
    Basket,
    LocalProfile,
    SingularityKind,
    cusp,
    dihedral_half,
    dihedral_zero,
    terminal_cyclic,
)
from .bounds import EnumeratedFunction
from .errors import DocumentError
from .exact_core import Vector, format_rational, parse_rational
from .riemann_roch import HilbertFunction, ModelNumerics, window_length

if TYPE_CHECKING:  # model_from_json imports them, so reading numerics never loads surface_model
    from .surface_model import ResolutionData, SurfaceModel


def _document(value):
    # dumps' default: the document of a basket or profile held as it is
    if isinstance(value, Basket):
        return value.profiles
    if isinstance(value, LocalProfile):
        return profile_to_json(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(payload: Any) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte, so equal payloads give equal text.

    A ``Fraction`` is written as its canonical string, a :class:`Basket` or
    :class:`LocalProfile` as its document. A non-string key, a float or any
    other value JSON cannot hold raises :class:`TypeError`. One pass over
    the payload; each basket's or profile's text is made once per indent.
    """
    return _write(payload, _document)


def _write(payload: Any, default: Callable[[Any], Any]) -> str:
    # dumps with json's ``default`` for a value that is no dict, list, tuple, str,
    # int, bool, Fraction or None; the memo keeps each object beside its text, so no id is reused
    memo: dict[tuple[int, str], tuple[Any, str]] = {}

    def render(value, pad: str) -> str:
        key = (id(value), pad)
        if key not in memo:
            parts: list[str] = []
            _append(parts, "", default(value), pad, render)
            memo[key] = (value, "".join(parts))
        return memo[key][1]

    chunks: list[str] = []
    _append(chunks, "", payload, "\n", render)
    chunks.append("\n")
    return "".join(chunks)


def _append(chunks: list, head: str, value, pad: str, render) -> None:
    # head and then value; pad is the newline and indent of value's line
    if isinstance(value, str):
        chunks.append(head + _quote(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append(head + "{}")
            return
        inner = pad + "  "
        head += "{" + inner
        for key in sorted(value):
            item = value[key]
            head += _quote(key) + ": "
            # str members skip the call; with _ratio_text, enum_ladder 84.6-87.7 -> 88.8-91.7 ops/s
            if type(item) is str:
                chunks.append(head + _quote(item))
            else:
                _append(chunks, head, item, inner, render)
            head = "," + inner
        chunks.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append(head + "[]")
            return
        inner = pad + "  "
        head += "[" + inner
        for item in value:
            _append(chunks, head, item, inner, render)
            head = "," + inner
        chunks.append(pad + "]")
    elif value is None:
        chunks.append(head + "null")
    elif isinstance(value, bool):
        chunks.append(head + ("true" if value else "false"))
    elif isinstance(value, int):
        chunks.append(head + int.__repr__(value))
    elif isinstance(value, Fraction):
        chunks.append(f'{head}"{format_rational(value)}"')
    else:
        chunks.append(head + render(value, pad))


def rational_to_json(value) -> str:
    return format_rational(value)


def rational_from_json(raw) -> Fraction:
    if not isinstance(raw, str):
        raise DocumentError(f"rational values must be 'p/q' strings, got {raw!r}")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def vector_to_json(v) -> list[str]:
    return [format_rational(x) for x in v]


def vector_from_json(raw) -> Vector:
    if not isinstance(raw, list):
        raise DocumentError(f"expected a list of rationals, got {raw!r}")
    return tuple(rational_from_json(x) for x in raw)


def _require(data: Any, key: str):
    if not isinstance(data, dict):
        raise DocumentError(f"expected an object, got {type(data).__name__}")
    if key not in data:
        raise DocumentError(f"missing required field {key!r}")
    return data[key]


def _integer(raw, what: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise DocumentError(f"{what} must be an integer, got {raw!r}")
    return raw


# ---------------------------------------------------------------- baskets

def profile_to_json(profile: LocalProfile) -> dict:
    doc: dict[str, Any] = {"kind": profile.kind.value}
    if profile.local_index is not None:
        doc["n"] = profile.local_index
    if profile.override is not None:
        doc["override"] = vector_to_json(profile.override)
    return doc


def profile_from_json(data) -> LocalProfile:
    kind_tag = _require(data, "kind")
    try:
        kind = SingularityKind(kind_tag)
    except ValueError as exc:
        raise DocumentError(
            f"unknown singularity kind {kind_tag!r}",
            known=sorted(k.value for k in SingularityKind),
        ) from exc
    if kind is SingularityKind.TERMINAL_CYCLIC:
        n = _integer(_require(data, "n"), "terminal index")
        override = data.get("override")
        return terminal_cyclic(n, vector_from_json(override) if override is not None else None)
    if "override" in data:
        raise DocumentError("override tables only apply to TerminalCyclic entries")
    if kind is SingularityKind.DIHEDRAL_ZERO:
        return dihedral_zero(_integer(data.get("n", 2), "dihedral-zero index"))
    if kind is SingularityKind.DIHEDRAL_HALF:
        if "n" in data and _integer(data["n"], "dihedral-half index") != 2:
            raise DocumentError(f"dihedral-half index is fixed at 2, got {data['n']!r}")
        return dihedral_half()
    if "n" in data:
        raise DocumentError("cusp entries carry no index")
    return cusp()


def basket_to_json(basket: Basket) -> list[dict]:
    return [profile_to_json(p) for p in basket]


def basket_from_json(raw) -> Basket:
    if not isinstance(raw, list):
        raise DocumentError(f"basket must be a list of profile objects, got {raw!r}")
    return Basket(tuple(profile_from_json(item) for item in raw))


# ---------------------------------------------------------------- numerics

def numerics_to_json(num: ModelNumerics) -> dict:
    doc: dict[str, Any] = {
        "k1": rational_to_json(num.k1),
        "k2": rational_to_json(num.k2),
        "chi": num.chi,
        "basket": basket_to_json(num.basket),
    }
    if num.kx2 is not None:
        doc["kx2"] = rational_to_json(num.kx2)
    if num.general_type:
        doc["general_type"] = True
    return doc


def numerics_from_json(data) -> ModelNumerics:
    kx2 = data.get("kx2") if isinstance(data, dict) else None
    general = data.get("general_type", False) if isinstance(data, dict) else False
    if not isinstance(general, bool):
        raise DocumentError(f"general_type must be a boolean, got {general!r}")
    return ModelNumerics(
        k1=rational_from_json(_require(data, "k1")),
        k2=rational_from_json(_require(data, "k2")),
        chi=_integer(_require(data, "chi"), "chi"),
        basket=basket_from_json(data.get("basket", [])),
        kx2=rational_from_json(kx2) if kx2 is not None else None,
        general_type=general,
    )


# ---------------------------------------------------------------- models

def model_to_json(model: SurfaceModel, resolution: Optional[ResolutionData] = None) -> dict:
    doc: dict[str, Any] = {
        "basis_labels": list(model.basis_labels),
        "pairing": [vector_to_json(row) for row in model.pairing.entries],
    }
    if model.canonical_class is not None:
        doc["canonical_class"] = vector_to_json(model.canonical_class)
    if model.distinguished_classes:
        doc["distinguished_classes"] = {
            name: vector_to_json(v) for name, v in sorted(model.distinguished_classes.items())
        }
    if resolution is not None:
        block: dict[str, Any] = {"exceptional_indices": list(resolution.exceptional_indices)}
        if resolution.strict_transforms:
            block["strict_transforms"] = {
                name: vector_to_json(v) for name, v in sorted(resolution.strict_transforms.items())
            }
        doc["resolution"] = block
    return doc


def model_from_json(data) -> tuple[SurfaceModel, Optional[ResolutionData]]:
    from .lattice import SymmetricPairing
    from .surface_model import ResolutionData, SurfaceModel

    labels = _require(data, "basis_labels")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise DocumentError("basis_labels must be a list of strings")
    rows_raw = _require(data, "pairing")
    if not isinstance(rows_raw, list):
        raise DocumentError("pairing must be a list of rows")
    rows = tuple(vector_from_json(row) for row in rows_raw)
    canonical = data.get("canonical_class")
    distinguished_raw = data.get("distinguished_classes", {})
    if not isinstance(distinguished_raw, dict):
        raise DocumentError("distinguished_classes must be an object")
    model = SurfaceModel(
        basis_labels=tuple(labels),
        pairing=SymmetricPairing(rows),
        canonical_class=vector_from_json(canonical) if canonical is not None else None,
        distinguished_classes={
            name: vector_from_json(v) for name, v in distinguished_raw.items()
        },
    )
    resolution = None
    if "resolution" in data:
        block = data["resolution"]
        indices = _require(block, "exceptional_indices")
        if not isinstance(indices, list):
            raise DocumentError("exceptional_indices must be a list of integers")
        strict_raw = block.get("strict_transforms", {})
        if not isinstance(strict_raw, dict):
            raise DocumentError("strict_transforms must be an object")
        resolution = ResolutionData(
            ambient=model,
            exceptional_indices=tuple(_integer(i, "exceptional index") for i in indices),
            strict_transforms={name: vector_from_json(v) for name, v in strict_raw.items()},
        )
    return model, resolution


# ---------------------------------------------------------------- tables

def value_window(h: HilbertFunction) -> int:
    """The integrality window L of the function's own period (``riemann_roch.window_length``)."""
    return window_length(h.period, h.k1, h.k2)


def hilbert_function_to_json(h: HilbertFunction) -> dict:
    return {
        "k1": rational_to_json(h.k1),
        "k2": rational_to_json(h.k2),
        "chi": h.chi,
        "period": h.period,
        "correction": h.correction_texts(),
        "extrapolated": h.extrapolated,
    }


def hilbert_function_from_json(data) -> HilbertFunction:
    extrapolated = data.get("extrapolated", False) if isinstance(data, dict) else False
    if not isinstance(extrapolated, bool):
        raise DocumentError(f"extrapolated must be a boolean, got {extrapolated!r}")
    return HilbertFunction(
        k1=rational_from_json(_require(data, "k1")),
        k2=rational_from_json(_require(data, "k2")),
        chi=_integer(_require(data, "chi"), "chi"),
        period=_integer(_require(data, "period"), "period"),
        correction=vector_from_json(_require(data, "correction")),
        extrapolated=extrapolated,
    )


def enumerated_function_to_json(entry: EnumeratedFunction, memo: Optional[dict] = None) -> dict:
    """The entry's function, its witnesses and its values P(0..2L), L = :func:`value_window`.

    The witnesses stay the entry's :class:`Basket` objects, which :func:`dumps`
    writes. ``memo``, a dict the caller keeps across one document's entries,
    lets the entries of one stored function at several chi share their texts.
    """
    h = entry.function
    key = h._form_key()
    memo = {} if memo is None else memo
    if key not in memo:
        end = 2 * value_window(h)
        memo[key] = hilbert_function_to_json(h), list(map(str, range(end + 1))), h._chi_free_values(end)
    function, keys, values = memo[key]
    chi = h.chi
    texts = h.value_texts(len(keys) - 1) if values is None else map(str, map(chi.__add__, values))
    return {
        "function": {**function, "chi": chi, "extrapolated": h.extrapolated},
        "witnesses": entry.witnesses,
        "values": dict(zip(keys, texts)),
    }
