"""JSON input documents: field, poset, and cell records.

One document describes a multifiltered complex (``format_version``, the
integer 1).
Grid posets are declared by shape; explicit posets by labels and covering
relations, transitively closed at load.  Births name poset elements by
grade scalar/vector or by label; a bare integer is a grade scalar on a
graded poset and a label on an ungraded one (``posets.named_element``).  Shapes, grades and cell dimensions must
be JSON integers.  Posets with more than ``posets.MAX_ELEMENTS`` elements
are refused before their order is built, and so are integer literals and
rational coefficients with more than ``fields.MAX_DIGITS`` digits, and
strings holding a lone surrogate, which no text output could write.
Every malformed document raises :class:`InputError`.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from .complexes import FilteredComplex
from .fields import MAX_DIGITS, FieldSpec, InvalidField
from .posets import FinitePoset, InvalidPoset, UnknownElement


FORMAT_VERSION = 1
# JSON may escape a lone UTF-16 surrogate ("\ud800"), and ``json.loads``
# keeps it as a code point that no text output can encode.  Only such an
# escape puts one in a document read from UTF-8.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


class InputError(ValueError):
    pass


def poset_from_spec(spec) -> FinitePoset:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("poset spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "grid":
            return FinitePoset.grid(spec["shape"])
        if kind == "explicit":
            labels = spec["elements"]
            if not isinstance(labels, list):
                raise InvalidPoset("'elements' must be a list")
            covers = spec.get("covers", [])
            grades = None
            if "grades" in spec:
                by_label = spec["grades"]
                grades = []
                for lab in labels:
                    if str(lab) not in by_label:
                        raise InputError(f"missing grade for element {lab!r}")
                    g = by_label[str(lab)]
                    grades.append(tuple(g) if isinstance(g, (list, tuple)) else (g,))
            return FinitePoset.from_covers(labels, covers, grades=grades)
    except (InvalidPoset, UnknownElement) as exc:
        raise InputError(f"bad poset: {exc}") from None
    except KeyError as exc:
        raise InputError(f"poset spec missing {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed poset spec: {exc}") from None
    raise InputError(f"unknown poset kind {kind!r}")


def parse_document(doc, field_override: str | None = None) -> FilteredComplex:
    """Build a complex from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InputError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    token = field_override or doc.get("field", "gf2")
    try:
        fld = FieldSpec.parse(token)
    except InvalidField as exc:
        raise InputError(str(exc)) from None
    poset = poset_from_spec(doc.get("poset"))
    cells = doc.get("cells", [])
    if not isinstance(cells, list):
        raise InputError("'cells' must be a list")
    try:
        return FilteredComplex.build(fld, poset, cells)
    except UnknownElement as exc:
        raise InputError(f"bad birth grade: {exc}") from None
    except (InvalidField, ValueError) as exc:
        raise InputError(str(exc)) from None


def load_complex(path, field_override: str | None = None) -> FilteredComplex:
    """Read and parse an input document from a file path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    except ValueError:
        # The decoder refuses integer literals over the interpreter's limit.
        raise InputError(f"integer literal in {path} has more than {MAX_DIGITS} digits") from None
    if _SURROGATE_ESCAPE.search(text):
        _refuse_lone_surrogates(doc, path)
    return parse_document(doc, field_override=field_override)


def _refuse_lone_surrogates(doc, path) -> None:
    """Raise :class:`InputError` when a key or string value of the parsed
    document holds a lone surrogate; the walk keeps its own stack, since
    the document may nest as deep as the decoder allows."""
    stack = [doc]
    while stack:
        o = stack.pop()
        if isinstance(o, dict):
            stack += o
            stack += o.values()
        elif isinstance(o, list):
            stack += o
        elif isinstance(o, str) and (m := _SURROGATE.search(o)):
            raise InputError(f"a string in {path} holds the lone surrogate {ascii(m.group())[1:-1]}")
