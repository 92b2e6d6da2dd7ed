"""Command line interface.

Subcommands: ``validate``, ``diagram``, ``barcode``, ``blankets``,
``verify``.  Exit codes: 0 success, 1 verification counterexamples,
2 validation failure, 3 parse/usage error.  ``diagram`` writes its rows
as the walk yields them, after every refusal it can meet; the other
documents are written whole by ``json.dumps``.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .diagrams import (
    TooManyRows,
    barcode_document,
    barcode_svg,
    barcode_text,
    compute_barcode,
    diagram_entries,
    open_repr,
    write_diagram_csv,
    write_diagram_json,
)
from .fields import InvalidField
from .io import InputError, load_complex
from .oracle import NotAChain
from .posets import (
    BlanketMode,
    EMPTY_OPEN,
    InvalidPair,
    InvalidPoset,
    TooManyBlankets,
    UnknownElement,
    degree_blankets,
    make_pair,
    named_element,
)
from .verify import MAX_SAMPLES, TooManyChecks, run_verification

EXIT_OK = 0
EXIT_COUNTEREXAMPLES = 1
EXIT_INVALID = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _blanket_mode(token: str) -> BlanketMode:
    try:
        return BlanketMode.parse(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _non_negative_int(token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {token!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _sample_count(token: str) -> int:
    value = _non_negative_int(token)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"at most {MAX_SAMPLES} samples are supported, got {value}")
    return value


def _parse_open(k, spec: str):
    """An open from generators: 'g' or 'g1;g2', vectors as 'a,b'.  On a
    graded poset integers are a grade scalar or vector; otherwise, and on
    an ungraded poset always, a generator is a label as written."""
    if not isinstance(spec, str):
        # argparse drops the value of "--birth=--" and hands over [].
        raise _UsageError("empty open spec")
    text = spec.strip()
    if text.lower() in ("inf", "none", "empty"):
        return EMPTY_OPEN
    generators = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [c.strip() for c in chunk.split(",")]
        # isdecimal, not isdigit: int() refuses digits such as "²"; and it
        # takes at most one sign.
        if k.poset.grades and all(p.removeprefix("-").isdecimal() for p in parts):
            gen = int(parts[0]) if len(parts) == 1 else tuple(int(c) for c in parts)
        else:
            gen = chunk
        generators.append(named_element(k.poset, gen))
    if not generators:
        raise _UsageError(f"empty open spec {spec!r}")
    return k.poset.closure(generators)


def _cmd_validate(args, k) -> int:
    violations = k.validate()
    if args.json:
        doc = {
            "format_version": 1,
            "kind": "validation",
            "ok": not violations,
            "violations": [
                {"kind": v.kind, "detail": v.detail, "cells": list(v.cells)} for v in violations
            ],
        }
        _print_json(doc)
    else:
        for v in violations:
            sys.stdout.write(str(v) + "\n")
        sys.stdout.write("valid\n" if not violations else f"{len(violations)} violation(s)\n")
    return EXIT_OK if not violations else EXIT_INVALID


def _require_valid(k) -> None:
    violations = k.validate()
    if violations:
        for v in violations:
            sys.stderr.write(str(v) + "\n")
        raise SystemExit(EXIT_INVALID)


def _cmd_diagram(args, k) -> int:
    _require_valid(k)
    degrees = None if args.degree is None else [args.degree]
    # Refusals raise here, before the first byte is written.
    entries = diagram_entries(k, degrees=degrees, mode=args.mode, include_zero=args.all)
    if args.csv:
        write_diagram_csv(sys.stdout, entries)
    else:
        write_diagram_json(sys.stdout, k, entries, args.mode)
    return EXIT_OK


def _cmd_barcode(args, k) -> int:
    _require_valid(k)
    try:
        bars = compute_barcode(k, mode=args.mode)
    except NotAChain:
        raise NotAChain(
            "barcodes need a 1-parameter (chain) poset; use the diagram command instead"
        ) from None
    if args.svg:
        try:
            Path(args.svg).write_text(barcode_svg(bars))
        except OSError as exc:
            raise _UsageError(f"cannot write {args.svg}: {exc}") from None
    if args.json:
        _print_json(barcode_document(k, bars))
    else:
        sys.stdout.write(barcode_text(bars))
    return EXIT_OK


def _cmd_blankets(args, k) -> int:
    _require_valid(k)
    p = k.poset
    pair = make_pair(p, _parse_open(k, args.birth), _parse_open(k, args.death))
    listed = sorted(
        degree_blankets(p, pair, args.steps, args.mode),
        key=lambda y: (y.birth.sorted_members(), y.death.sorted_members()),
    )
    # Generator lists; an empty birth open is [] and an empty death open "inf".
    pairs = [
        {
            "birth": list(open_repr(p, y.birth)) if not y.birth.is_empty else [],
            "death": "inf" if y.death.is_empty else list(open_repr(p, y.death)),
        }
        for y in listed
    ]
    if args.json:
        doc = {
            "format_version": 1,
            "kind": "blankets",
            "steps": args.steps,
            "mode": args.mode.value,
            "pairs": pairs,
        }
        _print_json(doc)
    else:
        for y in pairs:
            sys.stdout.write(f"{y['birth']} {y['death']}\n")
        if not pairs:
            sys.stdout.write("(no blankets)\n")
    return EXIT_OK


def _cmd_verify(args, k) -> int:
    _require_valid(k)
    report = run_verification(
        k, samples=args.samples, seed=args.seed, include_oracle=args.oracle
    )
    if args.json:
        _print_json(report.as_json())
    else:
        sys.stdout.write(report.as_text())
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after."""
    parser = _Parser(
        prog="persdiff",
        description="Generalized persistence diagrams via blanket-shift finite differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="input JSON document")
        sp.add_argument("--field", default=None, help="override field: gf2 | gf:p | rational")

    sp = sub.add_parser("validate", help="check an input document")
    common(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("diagram", help="generalized persistence diagram")
    common(sp)
    sp.add_argument(
        "--degree", type=_non_negative_int, default=None, help="restrict to one homological degree"
    )
    sp.add_argument(
        "--mode", type=_blanket_mode, default=BlanketMode.FULL, help="blanket mode: full | principal"
    )
    sp.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    sp.add_argument("--all", action="store_true", help="include zero multiplicities")
    sp.set_defaults(func=_cmd_diagram)

    sp = sub.add_parser("barcode", help="1-parameter barcode")
    common(sp)
    sp.add_argument("--mode", type=_blanket_mode, default=BlanketMode.FULL)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--svg", default=None, help="also write a static SVG to this path")
    sp.set_defaults(func=_cmd_barcode)

    sp = sub.add_parser("blankets", help="list iterated blankets of a pair of opens")
    common(sp)
    sp.add_argument("--birth", required=True, help="birth open generators, e.g. '1' or '1,1;0,2'")
    sp.add_argument("--death", required=True, help="death open generators, or 'inf'")
    sp.add_argument(
        "--steps", type=_non_negative_int, default=1, help="number of blanket steps (degree)"
    )
    sp.add_argument("--mode", type=_blanket_mode, default=BlanketMode.FULL)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_blankets)

    sp = sub.add_parser("verify", help="sampled exact self-checks")
    common(sp)
    sp.add_argument(
        "--samples", type=_sample_count, default=50, help=f"samples per check, at most {MAX_SAMPLES}"
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--oracle", action="store_true", help="also compare against the reduction oracle")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, load_complex(args.input, field_override=args.field))
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (
        InputError,
        InvalidField,
        InvalidPoset,
        InvalidPair,
        UnknownElement,
        NotAChain,
        TooManyBlankets,
        TooManyChecks,
        TooManyRows,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
