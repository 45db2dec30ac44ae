import json
import random
from fractions import Fraction

import pytest

from folcan.baskets import Basket, SingularityKind, cusp, dihedral_half, dihedral_zero, terminal_cyclic
from folcan.errors import DocumentError, NotNegativeDefinite
from folcan.exact_core import format_rational
from folcan.lattice import SymmetricPairing
from folcan.riemann_roch import HilbertFunction, ModelNumerics, to_hilbert_function
from folcan.serialization import (
    basket_from_json,
    basket_to_json,
    dumps,
    hilbert_function_from_json,
    hilbert_function_to_json,
    model_from_json,
    model_to_json,
    numerics_from_json,
    numerics_to_json,
    profile_from_json,
    rational_from_json,
    rational_to_json,
    value_window,
    vector_from_json,
)
from folcan.surface_model import ResolutionData, SurfaceModel


def F(num, den=1):
    return Fraction(num, den)


def test_rational_round_trip():
    rng = random.Random(8)
    for _ in range(500):
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert rational_from_json(rational_to_json(q)) == q


def test_rational_rejects():
    with pytest.raises(DocumentError):
        rational_from_json(0.5)
    with pytest.raises(DocumentError):
        rational_from_json("1/0")
    with pytest.raises(DocumentError):
        vector_from_json("1/2")


def test_dumps_deterministic():
    payload = {"b": ["1/2"], "a": {"y": 1, "x": 2}}
    assert dumps(payload) == dumps({"a": {"x": 2, "y": 1}, "b": ["1/2"]})
    assert dumps(payload).endswith("\n")


def test_basket_round_trip():
    basket = Basket.of(
        terminal_cyclic(4, override=[0, "-3/8", "-1/8", "-3/8"]),
        terminal_cyclic(2),
        dihedral_zero(1),
        dihedral_half(),
        cusp(),
    )
    doc = basket_to_json(basket)
    assert basket_from_json(doc) == basket
    # canonical order is stable through the round trip
    assert basket_to_json(basket_from_json(doc)) == doc


def test_profile_errors():
    with pytest.raises(DocumentError):
        profile_from_json({"kind": "Unknown"})
    with pytest.raises(DocumentError):
        profile_from_json({"kind": "TerminalCyclic"})  # missing n
    with pytest.raises(DocumentError):
        profile_from_json({"kind": "NonQGorCusp", "n": 3})
    with pytest.raises(DocumentError):
        profile_from_json({"kind": "DihedralHalf", "n": 3})
    with pytest.raises(DocumentError):
        profile_from_json({"kind": "DihedralZero", "override": ["0"]})
    with pytest.raises(DocumentError):
        profile_from_json(["TerminalCyclic"])


def test_profile_index_is_an_integer_for_every_kind():
    # an integral-looking float or a bool is refused as an index, so no float
    # enters a document and the round trip keeps its bytes
    assert profile_from_json({"kind": "DihedralHalf", "n": 2}) == dihedral_half()
    for kind, what in (("DihedralHalf", "dihedral-half"), ("DihedralZero", "dihedral-zero"), ("TerminalCyclic", "terminal")):
        for raw in (2.0, True):
            with pytest.raises(DocumentError) as info:
                profile_from_json({"kind": kind, "n": raw})
            assert str(info.value) == f"{what} index must be an integer, got {raw!r}"


def test_numerics_round_trip():
    num = ModelNumerics(
        k1=F(1, 2),
        k2=F(-3),
        chi=2,
        basket=Basket.of(terminal_cyclic(2), cusp()),
        kx2=F(7, 3),
        general_type=True,
    )
    doc = numerics_to_json(num)
    assert numerics_from_json(doc) == num
    assert numerics_from_json(json.loads(dumps(doc))) == num


def test_numerics_defaults():
    num = numerics_from_json({"k1": "1", "k2": "0", "chi": 1})
    assert num.basket == Basket()
    assert num.kx2 is None and not num.general_type
    with pytest.raises(DocumentError):
        numerics_from_json({"k1": "1", "k2": "0"})
    with pytest.raises(DocumentError):
        numerics_from_json({"k1": "1", "k2": "0", "chi": "1"})


def test_model_round_trip():
    model = SurfaceModel(
        ("s", "e1", "e2"),
        SymmetricPairing.from_rows([[1, 1, 0], [1, -2, 1], [0, 1, -2]]),
        canonical_class=(F(-3), F(0), F(1, 2)),
        distinguished_classes={"D": (F(1), F(0), F(0))},
    )
    resolution = ResolutionData(model, (1, 2), {"D": (F(1), F(0), F(0))})
    doc = model_to_json(model, resolution)
    loaded_model, loaded_res = model_from_json(doc)
    assert loaded_model == model
    assert loaded_res == resolution
    assert model_to_json(loaded_model, loaded_res) == doc

    bare_model, no_res = model_from_json(model_to_json(model))
    assert bare_model == model
    assert no_res is None


def test_model_document_errors():
    with pytest.raises(DocumentError):
        model_from_json({"pairing": [["0"]]})
    with pytest.raises(DocumentError):
        model_from_json({"basis_labels": ["a"], "pairing": "x"})
    with pytest.raises(DocumentError):
        model_from_json({"basis_labels": [1], "pairing": [["0"]]})
    # well-formed document, bad mathematics: domain error, not DocumentError
    doc = {
        "basis_labels": ["e"],
        "pairing": [["1"]],
        "resolution": {"exceptional_indices": [0]},
    }
    with pytest.raises(NotNegativeDefinite):
        model_from_json(doc)


def test_hilbert_function_round_trip():
    h = to_hilbert_function(
        ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=Basket.of(terminal_cyclic(2), terminal_cyclic(2)))
    )
    doc = hilbert_function_to_json(h)
    back = hilbert_function_from_json(doc)
    assert back == h
    assert back.period == h.period and back.correction == h.correction
    assert hilbert_function_to_json(back) == doc


def test_hilbert_function_document_refuses_a_non_boolean_extrapolated():
    doc = {"k1": "1", "k2": "0", "chi": 1, "period": 1, "correction": ["0"], "extrapolated": "no"}
    with pytest.raises(DocumentError, match="extrapolated must be a boolean"):
        hilbert_function_from_json(doc)


def test_value_window():
    h = HilbertFunction(k1=F(1, 4), k2=F(1, 3), chi=0, period=2, correction=(F(0), F(0)))
    assert value_window(h) == 24


# printable ASCII, quote, backslash, control characters, non-ASCII (one outside the BMP)
_TEXT_ALPHABET = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß", "∂", "日",
                  "\U0001d11e"]


def _random_text(rng):
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    roll = rng.randrange(7)
    if roll == 0:
        return _random_text(rng)
    if roll == 1:
        return rng.choice((True, False, None))
    if roll == 2:
        return rng.randint(-(2**200), 2**200)  # well past 64 bits, either sign
    if roll == 3:
        return rng.choice(list(SingularityKind))
    if roll == 4:
        return rng.randint(-3, 3)
    value = F(rng.randint(-99, 99), rng.randint(1, 9))
    return value if roll == 5 else format_rational(value)


def _random_payload(rng, depth):
    roll = rng.randrange(4) if depth > 0 else 3
    if roll == 0:
        return {_random_text(rng): _random_payload(rng, depth - 1) for _ in range(rng.randint(0, 4))}
    if roll == 1:
        return [_random_payload(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if roll == 2:
        return tuple(_random_payload(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return _random_scalar(rng)


def _texts(payload):
    # the payload with each Fraction replaced by its canonical text, as dumps writes it
    if isinstance(payload, Fraction):
        return format_rational(payload)
    if isinstance(payload, dict):
        return {key: _texts(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return type(payload)(map(_texts, payload))
    return payload


def _walk(payload):
    yield payload
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield key
            yield from _walk(value)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            yield from _walk(value)


_FEATURES = {
    "empty dict": lambda x: isinstance(x, dict) and not x,
    "empty list": lambda x: isinstance(x, list) and not x,
    "tuple": lambda x: isinstance(x, tuple),
    "kind": lambda x: isinstance(x, SingularityKind),
    "big int": lambda x: isinstance(x, int) and abs(x) >= 2**64,
    "negative int": lambda x: isinstance(x, int) and x < 0,
    "bool or None": lambda x: x is None or isinstance(x, bool),
    "negative fraction": lambda x: isinstance(x, Fraction) and x < 0,
    "integral fraction": lambda x: isinstance(x, Fraction) and x.denominator == 1,
    "fraction in a tuple": lambda x: isinstance(x, tuple) and any(isinstance(y, Fraction) for y in x),
    "control or quote": lambda x: isinstance(x, str) and any(c in x for c in '\x00\x1f\n"\\'),
    "non-ASCII": lambda x: isinstance(x, str) and not x.isascii(),
}


def test_dumps_matches_json_dumps():
    # dumps is its own indent writer; json.dumps(indent=2, sort_keys=True) is the
    # reference, with each Fraction replaced by its canonical text
    from folcan.cli import _error_payload

    rng = random.Random(1811)
    seen = dict.fromkeys(_FEATURES, 0)
    for _ in range(600):
        payload = _random_payload(rng, rng.randint(0, 4))
        expected = json.dumps(_texts(payload), indent=2, sort_keys=True) + "\n"
        assert dumps(payload) == expected, payload
        parts = list(_walk(payload))
        for name, feature in _FEATURES.items():
            seen[name] += any(feature(x) for x in parts)
    assert min(seen.values()) >= 20, seen
    edge_cases = ({}, [], (), "", 0, -(2**70), True, None, {"k": SingularityKind.NON_QGOR_CUSP},
                  {SingularityKind.DIHEDRAL_HALF: 1}, F(0), F(-7), F(-2**70, 3),
                  {"v": (F(1, 2), [F(-3), {"w": F(5, 3)}])})
    for payload in edge_cases:
        assert dumps(payload) == json.dumps(_texts(payload), indent=2, sort_keys=True) + "\n", payload
        # the error writer spells a Fraction in its context the same way
        body = {"error": {"code": "c", "message": "m", "context": {"value": _texts(payload)}}}
        assert _error_payload("c", "m", {"value": payload}) == json.dumps(body, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError):
        dumps({"k": object()})
    for refused in (0.5, {"k": 0.5}, {1: "keys are strings"}):
        with pytest.raises(TypeError):
            dumps(refused)


def test_dumps_writes_each_basket_and_profile_once_per_indent():
    # an enumerate payload holds its witnesses as Baskets, and repeats them
    # across chi and their profiles across baskets; dumps writes each as its
    # document, reusing the text made at the same indent
    from folcan.serialization import _document, _write, profile_to_json

    shared = terminal_cyclic(5)
    basket = Basket.of(dihedral_half(), shared, shared, cusp())
    other = Basket.of(shared)
    payload = {
        "a": [basket, {"deeper": [basket, shared]}],
        "b": shared,
        "entries": [{"chi": chi, "witnesses": (basket, other)} for chi in range(3)],
        "empty": Basket(),
    }

    def expand(value):
        if isinstance(value, Basket):
            return basket_to_json(value)
        if isinstance(value, dict):
            return {key: expand(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [expand(item) for item in value]
        return profile_to_json(value) if not isinstance(value, (str, int)) else value

    expected = json.dumps(expand(payload), indent=2, sort_keys=True) + "\n"
    assert dumps(payload) == expected
    calls = {}

    def counted(value):
        calls[id(value)] = calls.get(id(value), 0) + 1
        return _document(value)

    assert _write(payload, counted) == expected
    # basket at depths 2 and 4; shared at depths 1, 3 and 5 (in a basket) and 4
    assert (calls[id(basket)], calls[id(other)], calls[id(shared)]) == (2, 1, 4)


def test_write_memo_survives_fresh_objects_from_default():
    # a default that returns fresh objects holding further objects JSON cannot
    # hold: each is freed once written unless the memo keeps it, and a later
    # object at the same address must not reuse its text
    from folcan.serialization import _write

    class Node:
        def __init__(self, value):
            self.value = value

    class Leaf(Node):
        pass

    def default(value):
        if isinstance(value, Leaf):
            return [value.value, str(value.value)]
        return {"leaf": Leaf(value.value * 3), "twice": [Leaf(value.value), Leaf(-value.value)]}

    payload = [Node(i) for i in range(300)]
    expected = json.dumps(payload, indent=2, sort_keys=True, default=default) + "\n"
    assert _write(payload, default) == expected


def test_error_payloads_match_json_dumps_with_str_default():
    # cli._error_payload uses dumps' writer; an object JSON cannot hold is written as its str
    from folcan.cli import _error_payload

    class Opaque:
        def __str__(self):
            return 'opaque "é" <1>'

    contexts = [
        {},
        {"signature": (0, 0, 1), "known": ["a", "b"], "limit": 10**6},
        {"object": Opaque(), "fraction": F(-3, 4), "nested": {"pair": (Opaque(), None)}, "flag": True},
    ]
    for context in contexts:
        body = {"error": {"code": "invalid_input", "message": "mü\n\"x\"", "context": context}}
        expected = json.dumps(body, indent=2, sort_keys=True, default=str) + "\n"
        assert _error_payload("invalid_input", "mü\n\"x\"", context) == expected


def test_enumerated_documents_are_rendered_once_per_form():
    # enumerated_function_to_json renders a form's texts once into the memo,
    # then each chi from them; every document must equal the one built from
    # hilbert_function_to_json and format_rational(value), with or without a
    # memo, integral or not (D need not divide the values of any caller's function)
    from folcan.bounds import EnumeratedFunction
    from folcan.serialization import enumerated_function_to_json

    rng = random.Random(20261021)
    memo, integral = {}, set()
    for _ in range(60):
        period, den = rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 2, 4, 6, 12))
        base = HilbertFunction(
            k1=F(rng.randint(1, 6), rng.choice((1, 2))), k2=F(rng.randint(-6, 6), rng.choice((1, 2))), chi=0,
            period=period, correction=tuple(F(rng.randint(-den, den), den) for _ in range(period)),
        )
        for chi in rng.sample(range(-3, 4), 3):
            h = base._with_chi(chi)
            entry = EnumeratedFunction(h, (Basket.of(cusp()),))
            end = 2 * value_window(h)
            expected = {
                "function": hilbert_function_to_json(h),
                "witnesses": entry.witnesses,
                "values": {str(m): format_rational(h.value(m)) for m in range(end + 1)},
            }
            assert enumerated_function_to_json(entry) == expected
            assert enumerated_function_to_json(entry, memo) == expected
            integral.add(all(h.value(m).denominator == 1 for m in range(end + 1)))
    assert integral == {False, True}
    assert len(memo) <= 60  # one entry per form, shared by its chi copies
    # equal functions stored at periods T and 2T write different periods and
    # values keys, so one memo shared by both must not key on their equality
    base = HilbertFunction(k1=F(1), k2=F(0), chi=1, period=2, correction=(F(0), F(-1, 2)))
    doubled = HilbertFunction(k1=F(1), k2=F(0), chi=1, period=4, correction=base.correction * 2)
    assert base == doubled and value_window(base) != value_window(doubled)
    shared = {}
    for h in (base, doubled, base, doubled):
        entry = EnumeratedFunction(h, ())
        document = enumerated_function_to_json(entry, shared)
        assert document == enumerated_function_to_json(entry)
        assert document["function"]["period"] == h.period and len(document["values"]) == 2 * value_window(h) + 1
    assert len(shared) == 2
