"""The ``folcan`` command line: exact documents in, exact documents out.

Five subcommands: ``intersect``, ``hilbert``, ``enumerate``, ``bounds`` and
``example``. :func:`run` states the exit statuses, README each command.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import serialization as ser
from .bounds import (
    EnumerationQuery,
    ample_divisor_numerics,
    enumerate_hilbert,
    kx2_bounds,
)
from .constructions import (
    AbelianCoverInput,
    ConstructionReport,
    RuledCoverInput,
    abelian_double_cover,
    ruled_double_cover,
)
from .errors import DocumentError, FolcanError, InvalidInput, JsonParseError
from .exact_core import check_int, check_limit, format_rational, parse_rational
from .riemann_roch import hilbert_table, integrality_check
from .surface_model import ResolutionData, _pair_pullbacks, mumford_pullback


# the largest ``hilbert --mmax``: one row per m (0.7 s at the limit on a 2-core VM)
MAX_MMAX = 100_000

# the most values one ``example --sweep`` may span: one report per value
# (3.3 s and 71 MB peak RSS at the limit for a JSON ruled sweep on a 2-core VM)
MAX_SWEEP = 10_000


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_flag(text: str) -> int:
    """An integer written as ``str`` writes it: ASCII digits, an optional ``-``, no padding."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise argparse.ArgumentTypeError(f"not a canonical integer: {text!r}")
    return value


def _int_set_flag(text: str) -> frozenset[int]:
    return frozenset(_int_flag(part) for part in text.split(","))


def _sweep_flag(text: str) -> tuple[str, int, int]:
    name, sep, span = text.partition("=")
    start, dots, stop = span.partition("..")
    if not sep or not dots or not name:
        raise argparse.ArgumentTypeError(f"sweep must look like param=a..b, got {text!r}")
    lo, hi = _int_flag(start), _int_flag(stop)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty sweep range: {text!r}")
    return (name, lo, hi)


# argparse's width when stdout is no terminal, fixed: no formatter asks the terminal, COLUMNS changes no text
_HELP_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def _add_command(subparsers, name: str, handler=None, **kwargs) -> argparse.ArgumentParser:
    command = subparsers.add_parser(name, formatter_class=_HELP_FORMATTER, **kwargs)
    if handler is not None:  # the command table: run calls args.handler
        command.set_defaults(handler=handler)
    # the output flags again, after the subcommand; SUPPRESS keeps them from clobbering a global value
    command.add_argument("--format", choices=("json", "csv"), dest="output_format", default=argparse.SUPPRESS)
    command.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS)
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folcan",
        description="Exact numerical invariants of foliated surfaces.",
        formatter_class=_HELP_FORMATTER,
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
    parser.add_argument("--out", metavar="PATH", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    intersect = _add_command(sub, "intersect", _cmd_intersect, help="pair divisor classes through a model file")
    intersect.add_argument("--model", required=True, metavar="FILE")
    intersect.add_argument("--left", required=True, help="class name or comma-separated rationals")
    intersect.add_argument("--right", required=True)

    hilbert = _add_command(sub, "hilbert", _cmd_hilbert, help="Euler characteristic table from a numerics file")
    hilbert.add_argument("--numerics", required=True, metavar="FILE")
    hilbert.add_argument("--mmax", type=_int_flag, required=True)

    enum = _add_command(sub, "enumerate", _cmd_enumerate, help="all Hilbert functions for fixed (k1, k2, s)")
    enum.add_argument("--k1", type=_rational_flag, required=True)
    enum.add_argument("--k2", type=_rational_flag, required=True)
    enum.add_argument("--s", type=_int_flag, required=True)
    enum.add_argument("--chi", type=_int_set_flag, required=True, metavar="C1,C2,...")
    enum.add_argument("--cap", type=_int_flag, required=True)
    enum.add_argument("--max-cusps", type=_int_flag, default=0)
    enum.add_argument("--no-cusps", action="store_true")
    enum.add_argument("--q-index-divides", action="store_true")
    enum.add_argument("--workers", type=_int_flag, default=1, help="accepted for compatibility; no effect")

    bounds = _add_command(sub, "bounds", _cmd_bounds, help="window for the ambient canonical square")
    bounds.add_argument("--k1", type=_rational_flag, required=True)
    bounds.add_argument("--k2", type=_rational_flag, required=True)
    bounds.add_argument("--s", type=_int_flag, required=True)
    bounds.add_argument("--kx2", type=_rational_flag, default=None)

    example = _add_command(sub, "example", _cmd_example, help="built-in double-cover families")
    family = example.add_subparsers(dest="family", required=True)
    ruled = _add_command(family, "ruled")
    ruled.add_argument("--k", type=_int_flag, required=True)
    ruled.add_argument("--g", type=_int_flag, required=True)
    ruled.add_argument("--q", type=_int_flag, required=True)
    ruled.add_argument("--sweep", type=_sweep_flag, default=None, metavar="PARAM=A..B")
    abelian = _add_command(family, "abelian")
    abelian.add_argument("--d", type=_int_flag, required=True)
    abelian.add_argument("--n", type=_int_flag, required=True)
    abelian.add_argument("--sweep", type=_sweep_flag, default=None, metavar="PARAM=A..B")
    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        # malformed JSON, bytes that are not UTF-8 and an integer past the int-string
        # limit are ValueErrors; too deep a nesting is a RecursionError
        except (ValueError, RecursionError) as exc:
            raise JsonParseError(str(exc)) from None


def _cell(value) -> str:
    """The one CSV cell rule: ``true``/``false``, a rational's canonical text, a vector's space-joined cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return " ".join(map(_cell, value))
    return str(value)


def _csv_text(rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(map(_cell, row) for row in rows)
    return buffer.getvalue()


def _render_flat(payload: dict, output_format: str) -> str:
    """A flat report as its JSON object, or as ``quantity,value`` rows in payload order."""
    if output_format == "json":
        return ser.dumps(payload)
    return _csv_text([["quantity", "value"], *payload.items()])


# ---------------------------------------------------------------- commands

def _parse_class(model, resolution, text: str):
    if text in resolution.strict_transforms:
        return resolution.strict_transforms[text]
    try:
        return model.resolve_class(text)
    except FolcanError:
        pass
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except ValueError:
        raise InvalidInput(
            f"{text!r} is neither a known class name nor a rational vector",
            known=sorted(
                set(resolution.strict_transforms) | set(model.distinguished_classes)
            ),
        ) from None


def _cmd_intersect(args) -> str:
    model, resolution = ser.model_from_json(_load_json(args.model))
    if resolution is None:
        resolution = ResolutionData(ambient=model, exceptional_indices=())
    left = _parse_class(model, resolution, args.left)
    right = _parse_class(model, resolution, args.right)
    pullback_left = mumford_pullback(resolution, left)  # validates the length of left
    pullback_right = mumford_pullback(resolution, right)
    payload = {
        "left": left,
        "right": right,
        "pullback_left": pullback_left,
        "pullback_right": pullback_right,
        "value": _pair_pullbacks(resolution, pullback_left, pullback_right),
    }
    return _render_flat(payload, args.output_format)


def _cmd_hilbert(args) -> str:
    numerics = ser.numerics_from_json(_load_json(args.numerics))
    if args.mmax < 0:
        raise InvalidInput(f"--mmax must be nonnegative, got {args.mmax}")
    check_limit(args.mmax, MAX_MMAX, "mmax", "--mmax {} is")
    table = hilbert_table(numerics)
    values = [[m, text] for m, text in enumerate(table.value_texts(args.mmax))]
    if args.output_format == "csv":
        return _csv_text([["m", "P"]] + values)
    integral = integrality_check(numerics)
    payload = {"integral": integral, "numerics": ser.numerics_to_json(numerics), "values": values}
    if integral:
        payload["hilbert_function"] = ser.hilbert_function_to_json(table)
    return ser.dumps(payload)


def _cmd_enumerate(args) -> str:
    query = EnumerationQuery(
        k1=args.k1,
        k2=args.k2,
        s=args.s,
        chi_set=args.chi,
        basket_cap=args.cap,
        # --no-cusps is --max-cusps 0; a negative --max-cusps is still refused
        max_cusps=min(args.max_cusps, 0) if args.no_cusps else args.max_cusps,
        q_index_divides=args.q_index_divides,
    )
    check_int(args.workers, "worker_count", 1)  # accepted and otherwise ignored
    found = enumerate_hilbert(query)
    if args.output_format == "csv":
        rows = [["k1", "k2", "chi", "period", "correction", "extrapolated", "witness_count"]]
        for entry in found:
            h = entry.function
            rows.append([h.k1, h.k2, h.chi, h.period, h.correction_texts(), h.extrapolated, len(entry.witnesses)])
        return _csv_text(rows)
    memo: dict = {}  # each function's chi-free texts, shared by its entries at every chi
    payload = {
        "count": len(found),
        "functions": [ser.enumerated_function_to_json(entry, memo) for entry in found],
        "query": {**vars(query), "chi_set": sorted(query.chi_set)},
    }
    return ser.dumps(payload)


def _cmd_bounds(args) -> str:
    report = kx2_bounds(args.k1, args.k2, args.s)
    payload = {name: value for name, value in vars(report).items() if value is not None}
    if args.kx2 is not None:
        payload["D_squared"], payload["D_dot_KX"] = ample_divisor_numerics(args.k1, args.k2, args.kx2, args.s)
        payload["kx2_in_window"] = bool(
            report.kx2_lower_exclusive < args.kx2 <= report.kx2_upper
        )
    return _render_flat(dict(sorted(payload.items())), args.output_format)


def _flat_report(report: ConstructionReport) -> dict:
    flat: dict[str, object] = {"kf2": report.kf2, "kf_dot_kx": report.kf_dot_kx, "fiber_genus": report.fiber_genus}
    for name in sorted(report.auxiliary):
        flat[f"aux_{name}"] = _cell(report.auxiliary[name])
    flat["assumptions"] = "; ".join(report.assumptions)
    return flat


def _build_example(params: dict) -> ConstructionReport:
    if params["family"] == "ruled":
        return ruled_double_cover(RuledCoverInput(k=params["k"], g=params["g"], q=params["q"]))
    return abelian_double_cover(AbelianCoverInput(d=params["d"], n=params["n"]))


def _cmd_example(args) -> str:
    if args.sweep is None:
        return _render_flat(_flat_report(_build_example(vars(args))), args.output_format)

    name, lo, hi = args.sweep
    allowed = ("g", "q") if args.family == "ruled" else ("d", "n")
    if name not in allowed:
        raise InvalidInput(f"sweep parameter {name!r} not in {allowed}")
    check_limit(hi - lo + 1, MAX_SWEEP, "sweep", "the sweep spans {} values,")
    reports = [(value, _build_example({**vars(args), name: value})) for value in range(lo, hi + 1)]
    if args.output_format == "json":
        return ser.dumps(
            [{name: value, **_flat_report(report)} for value, report in reports]
        )
    rows = [[value, report.kf2, report.kf_dot_kx, report.fiber_genus] for value, report in reports]
    return _csv_text([[name, "kf2", "kf_dot_kx", "fiber_genus"], *rows])


def _error_payload(code: str, message: str, context: dict) -> str:
    # dumps' writer: a Fraction as its canonical string, any other value JSON cannot hold as its str
    body = {"error": {"code": code, "message": message, "context": context}}
    return ser._write(body, str)


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Run ``folcan`` on ``argv``, writing to ``stdout`` and ``stderr`` (default: the process's); return the exit status.

    0 on success; 1 for an unreadable or malformed document, a
    ``json_parse_error`` when it is not UTF-8, not JSON, nested past the
    recursion limit or holds an integer past ``sys.get_int_max_str_digits()``;
    2 for invalid mathematics, a request above a size limit (:data:`MAX_MMAX`,
    :data:`MAX_SWEEP`, ``bounds.MAX_BASKETS``, ``bounds.MAX_CHI``,
    ``riemann_roch.MAX_PERIOD``, or a result integer past the int-string
    limit: ``invalid_input`` with ``limit`` in its context) or a usage error,
    a non-canonical rational or integer flag among them. An error is one
    JSON object ``{"error": {"code", "message", "context"}}`` on ``stderr``;
    argparse writes usage and errors to ``stderr``, ``--help`` to ``stdout``. A failed run writes
    nothing to ``stdout`` or ``--out``. Equal inputs give byte-identical
    output: usage and help wrap at 78 columns whatever the terminal.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse writes usage, errors and --help to the process streams
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text = args.handler(args)
        if args.out is not None:  # written only once the handler has returned
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        error = 1, "io_error", str(exc), {}
    except ValueError as exc:  # str() of a result integer past the interpreter's int-string limit
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        message = f"a result integer has more digits than the int-string limit of {limit}"
        error = 2, "invalid_input", message, {"limit": limit}
    except FolcanError as exc:
        error = 1 if isinstance(exc, DocumentError) else 2, exc.code, str(exc), exc.context
    else:
        if args.out is None:
            stdout.write(text)
        return 0
    status, code, message, context = error
    stderr.write(_error_payload(code, message, context))
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
