"""Plain-text serialization for structure tensors and bilinear tensors.

Grammar (one directive per line; blank lines and ``#`` comments ignored)::

    dim N
    labels a b c ...          # optional, exactly N names
    orientation left|right    # optional, default left
    bracket I J = K:COEFF [K:COEFF ...]
    value   I J = K:COEFF [K:COEFF ...]   # bilinear tensor files

Indices are 1-based. Coefficients are integers or exact fractions ``p/q``;
decimal notation is rejected so files stay bit-exact. Unlisted brackets are
zero. A file with ``orientation right`` is interpreted as a table for the
opposite product and normalized on parse, so the returned tensor is always
in the left convention.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .algebra import BilinearTensor, StructureTensor, opposite

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


class FileFormatError(ValueError):
    """Malformed algebra or tensor file; message carries the line number."""

    def __init__(self, lineno: Optional[int], message: str):
        self.lineno = lineno
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(where + message)


def _coeff(token: str, lineno: int) -> Fraction:
    if not _RATIONAL.match(token):
        raise FileFormatError(lineno, f"coefficient {token!r} is not an integer or p/q")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise FileFormatError(lineno, f"coefficient {token!r} has zero denominator") from None


def _index(token: str, dim: int, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FileFormatError(lineno, f"{what} {token!r} is not an integer") from None
    if not 1 <= value <= dim:
        raise FileFormatError(lineno, f"{what} {value} out of range 1..{dim}")
    return value - 1


def _parse_entries(text: str, keyword: str):
    """Common scanner: returns (dim, labels, orientation, {(i,j): {k: coeff}})."""
    dim: Optional[int] = None
    labels: Optional[tuple[str, ...]] = None
    orientation = "left"
    entries: dict[tuple[int, int], dict[int, Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "dim":
            if dim is not None:
                raise FileFormatError(lineno, "repeated dim directive")
            if len(parts) != 2:
                raise FileFormatError(lineno, "expected: dim N")
            try:
                dim = int(parts[1])
            except ValueError:
                raise FileFormatError(lineno, f"dimension {parts[1]!r} is not an integer") from None
            if dim < 0:
                raise FileFormatError(lineno, "dimension must be nonnegative")
            continue
        if dim is None:
            raise FileFormatError(lineno, "dim must come before any other directive")
        if head == "labels":
            if labels is not None:
                raise FileFormatError(lineno, "repeated labels directive")
            if len(parts) != dim + 1:
                raise FileFormatError(lineno, f"expected {dim} labels, got {len(parts) - 1}")
            labels = tuple(parts[1:])
            continue
        if head == "orientation":
            if len(parts) != 2 or parts[1] not in ("left", "right"):
                raise FileFormatError(lineno, "expected: orientation left|right")
            orientation = parts[1]
            continue
        if head == keyword:
            body = line[len(keyword):].strip()
            if "=" not in body:
                raise FileFormatError(lineno, f"expected: {keyword} I J = K:COEFF ...")
            lhs, rhs = body.split("=", 1)
            lhs_parts = lhs.split()
            if len(lhs_parts) != 2:
                raise FileFormatError(lineno, f"expected two indices before '=' in {keyword} line")
            i = _index(lhs_parts[0], dim, lineno, "index")
            j = _index(lhs_parts[1], dim, lineno, "index")
            if (i, j) in entries:
                raise FileFormatError(lineno, f"duplicate {keyword} entry ({i + 1},{j + 1})")
            terms: dict[int, Fraction] = {}
            for token in rhs.split():
                if ":" not in token:
                    raise FileFormatError(lineno, f"term {token!r} is not K:COEFF")
                kpart, cpart = token.split(":", 1)
                k = _index(kpart, dim, lineno, "target index")
                if k in terms:
                    raise FileFormatError(lineno, f"repeated target {k + 1} in one entry")
                terms[k] = _coeff(cpart, lineno)
            entries[(i, j)] = terms
            continue
        raise FileFormatError(lineno, f"unknown directive {head!r}")
    if dim is None:
        raise FileFormatError(None, "missing dim directive")
    return dim, labels, orientation, entries


def parse_algebra(text: str) -> StructureTensor:
    """Parse an algebra file into a left-convention structure tensor."""
    dim, labels, orientation, entries = _parse_entries(text, "bracket")
    tensor = StructureTensor(dim, entries, labels=labels)
    if orientation == "right":
        tensor = opposite(tensor)
    return tensor


def serialize_algebra(t: StructureTensor) -> str:
    """Render a tensor in the file format; parse_algebra inverts this exactly."""
    lines = [f"dim {t.dim}"]
    if t.labels is not None:
        lines.append("labels " + " ".join(t.labels))
    return _render(lines, "bracket", t.brackets)


def parse_bilinear(text: str) -> BilinearTensor:
    """Parse a bilinear tensor file (``value`` entries, always left convention)."""
    dim, _labels, orientation, entries = _parse_entries(text, "value")
    if orientation != "left":
        raise FileFormatError(None, "bilinear tensor files take no orientation")
    return BilinearTensor.from_values(dim, entries)


def serialize_bilinear(b: BilinearTensor) -> str:
    return _render([f"dim {b.dim}"], "value", b.values)


def _render(lines: list[str], keyword: str, table) -> str:
    """Append one ``keyword`` line per entry of a sparse table, in table order."""
    for (i, j), terms in table.items():
        rendered = " ".join(f"{k + 1}:{coeff}" for k, coeff in terms)
        lines.append(f"{keyword} {i + 1} {j + 1} = {rendered}")
    return "\n".join(lines) + "\n"
