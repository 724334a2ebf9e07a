"""Plain-text document format for braces and related tables.

Grammar, one item per line, UTF-8:

    brace <name>
    order <n>
    add
    <n rows of n whitespace-separated indices>
    circ
    <n rows>
    end

Any whitespace separates a keyword or an entry from the next.  Lines
starting with ``#`` are comments; blank lines are ignored.  A file
may hold several documents back to back.  Serialization always emits the
canonical form above, so serialize(parse(text)) normalizes and
parse(serialize(doc)) is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DocumentSyntaxError, FiniteSkewBrace, SizeCapExceeded, brace_from_tables,
                   max_order, table_dtype)

__all__ = [
    "BraceDocument",
    "parse_document",
    "parse_documents",
    "serialize_document",
    "document_of",
    "parse_int_grid",
    "format_int_row",
]


@dataclass(frozen=True)
class BraceDocument:
    name: str
    order: int
    add: np.ndarray
    circ: np.ndarray

    def __post_init__(self):
        add = np.ascontiguousarray(self.add)
        circ = np.ascontiguousarray(self.circ)
        add.setflags(write=False)
        circ.setflags(write=False)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "circ", circ)

    def __eq__(self, other):
        if not isinstance(other, BraceDocument):
            return NotImplemented
        return (self.name == other.name and self.order == other.order
                and np.array_equal(self.add, other.add)
                and np.array_equal(self.circ, other.circ))

    def to_brace(self) -> FiniteSkewBrace:
        return brace_from_tables(self.add, self.circ, self.name)


class _Lines:
    """Token stream over meaningful lines, tracking 1-based numbers."""

    def __init__(self, text: str):
        self.raw = text.split("\n")
        self.pos = 0

    def peek(self) -> tuple[int, str] | None:
        while self.pos < len(self.raw):
            line = self.raw[self.pos].strip()
            if line and not line.startswith("#"):
                return self.pos + 1, line
            self.pos += 1
        return None

    def take(self) -> tuple[int, str] | None:
        item = self.peek()
        if item is not None:
            self.pos += 1
        return item

    def expect(self, what: str) -> tuple[int, str]:
        item = self.take()
        if item is None:
            raise DocumentSyntaxError(f"unexpected end of input, expected {what}",
                                      line=len(self.raw))
        return item


def _parse_row(lineno: int, line: str, cols: int, limit: int) -> list[int]:
    parts = line.split()
    if len(parts) != cols:
        raise DocumentSyntaxError(f"expected {cols} entries, got {len(parts)}", line=lineno)
    row = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise DocumentSyntaxError(f"bad table entry {p!r}", line=lineno) from None
        if not 0 <= v < limit:
            raise DocumentSyntaxError(f"entry {v} out of range for order {limit}", line=lineno)
        row.append(v)
    return row


def _header(stream: _Lines, keyword: str, what: str) -> tuple[int, str]:
    """The number and the value of a ``<keyword> <value>`` line: any
    whitespace may follow the keyword, and a bare keyword has value ""."""
    lineno, line = stream.expect(what)
    parts = line.split(None, 1)
    if parts[0] != keyword:
        raise DocumentSyntaxError(f"expected {what}, got {line!r}", line=lineno)
    return lineno, parts[1] if len(parts) > 1 else ""


def _parse_one(stream: _Lines, check: bool) -> BraceDocument:
    lineno, name = _header(stream, "brace", "'brace <name>'")

    lineno, value = _header(stream, "order", "'order <n>'")
    try:
        n = int(value)
    except ValueError:
        raise DocumentSyntaxError(f"bad order {value!r}", line=lineno) from None
    if n < 1:
        raise DocumentSyntaxError(f"order must be positive, got {n}", line=lineno)
    if n > max_order():     # validate's rejection, before any row is parsed
        raise SizeCapExceeded(f"order {n} exceeds the size cap {max_order()}")

    tables = {}
    for label in ("add", "circ"):
        lineno, line = stream.expect(f"'{label}'")
        if line != label:
            raise DocumentSyntaxError(f"expected {label!r}, got {line!r}", line=lineno)
        rows = [_parse_row(*stream.expect("a table row"), n, n) for _ in range(n)]
        tables[label] = np.array(rows, dtype=table_dtype(n))

    lineno, line = stream.expect("'end'")
    if line != "end":
        raise DocumentSyntaxError(f"expected 'end', got {line!r}", line=lineno)

    doc = BraceDocument(name, n, tables["add"], tables["circ"])
    if check:
        # surface table problems at load time with a full report
        brace_from_tables(doc.add, doc.circ, name)
    return doc


def parse_document(text: str, check: bool = True) -> BraceDocument:
    """Parse exactly one document.  With check (the default) the tables
    are also validated as a skew brace."""
    stream = _Lines(text)
    doc = _parse_one(stream, check)
    extra = stream.peek()
    if extra is not None:
        raise DocumentSyntaxError(f"trailing content {extra[1]!r}", line=extra[0])
    return doc


def parse_documents(text: str, check: bool = True) -> list[BraceDocument]:
    """Parse a concatenation of zero or more documents."""
    stream = _Lines(text)
    docs = []
    while stream.peek() is not None:
        docs.append(_parse_one(stream, check))
    return docs


def serialize_document(doc: BraceDocument | FiniteSkewBrace) -> str:
    if isinstance(doc, FiniteSkewBrace):
        doc = document_of(doc)
    lines = [f"brace {doc.name}".rstrip(), f"order {doc.order}", "add"]
    lines.extend(map(format_int_row, doc.add))
    lines.append("circ")
    lines.extend(map(format_int_row, doc.circ))
    lines.append("end")
    return "\n".join(lines) + "\n"


def document_of(brace: FiniteSkewBrace) -> BraceDocument:
    return BraceDocument(brace.name, brace.order, np.asarray(brace.add), np.asarray(brace.circ))


def parse_int_grid(text: str, rows: int, cols: int, limit: int) -> np.ndarray:
    """Parse a bare grid of indices (comments and blank lines allowed),
    e.g. an action table with one row per acting element."""
    stream = _Lines(text)
    out = [_parse_row(*stream.expect("a table row"), cols, limit) for _ in range(rows)]
    extra = stream.peek()
    if extra is not None:
        raise DocumentSyntaxError(f"trailing content {extra[1]!r}", line=extra[0])
    return np.array(out, dtype=table_dtype(limit))


def format_int_row(row) -> str:
    """One grid row as ``parse_int_grid`` reads it: entries, one space apart."""
    return " ".join(map(str, np.asarray(row).tolist()))
