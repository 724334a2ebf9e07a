import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brace_forge import (
    BraceDocument,
    DocumentSyntaxError,
    SizeCapExceeded,
    ValidationFailure,
    document_of,
    parse_document,
    parse_documents,
    serialize_document,
    validate,
)
from brace_forge.docio import parse_int_grid

R4_TEXT = """\
brace R4
order 4
add
0 1 2 3
1 2 3 0
2 3 0 1
3 0 1 2
circ
0 1 2 3
1 0 3 2
2 3 0 1
3 2 1 0
end
"""


def test_parse_r4(R4):
    doc = parse_document(R4_TEXT)
    assert doc.name == "R4"
    assert doc.order == 4
    assert doc.to_brace() == R4


def test_round_trip_corpus(corpus8):
    for brace in corpus8[:30]:
        text = serialize_document(brace)
        doc = parse_document(text)
        assert doc == document_of(brace)
        assert doc.to_brace() == brace
        # serialization is canonical: a second pass is byte-identical
        assert serialize_document(doc) == text


def test_comments_and_blank_lines():
    noisy = "# header\n\n" + R4_TEXT.replace("add\n", "add\n# the addition\n\n")
    doc = parse_document(noisy)
    assert doc == parse_document(R4_TEXT)
    # canonical form strips the noise
    assert "#" not in serialize_document(doc)


def test_unnamed_brace():
    text = "brace\norder 1\nadd\n0\ncirc\n0\nend\n"
    doc = parse_document(text)
    assert doc.name == ""
    assert serialize_document(doc).splitlines()[0] == "brace"


def test_header_keyword_then_any_whitespace():
    tabbed = R4_TEXT.replace("brace R4", "brace\tR4").replace("order 4", "order \t4")
    assert parse_document(tabbed) == parse_document(R4_TEXT)
    doc = parse_document("brace\t\norder\t1\nadd\n0\ncirc\n0\nend\n")
    assert (doc.name, doc.order) == ("", 1)
    assert parse_document("brace\tx y\norder 1\nadd\n0\ncirc\n0\nend\n").name == "x y"
    # the keyword must still stand alone
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_document("bracex\norder 1\n")
    assert exc.value.line == 1 and "expected 'brace <name>'" in str(exc.value)
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_document("brace x\norder1\n")
    assert exc.value.line == 2 and "expected 'order <n>'" in str(exc.value)


def test_multi_document():
    docs = parse_documents(R4_TEXT + "\n# separator\n" + R4_TEXT.replace("R4", "copy"))
    assert [d.name for d in docs] == ["R4", "copy"]
    assert docs[0].to_brace() == docs[1].to_brace()
    assert parse_documents("") == []
    assert parse_documents("# only comments\n") == []


def test_single_document_rejects_trailing():
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_document(R4_TEXT + "brace extra\n")
    assert "trailing" in str(exc.value)


class TestSyntaxErrors:
    def _line_of(self, text):
        with pytest.raises(DocumentSyntaxError) as exc:
            parse_document(text)
        return exc.value.line, str(exc.value)

    def test_missing_header(self):
        line, msg = self._line_of("order 2\n")
        assert line == 1 and "brace" in msg

    def test_bad_order(self):
        line, msg = self._line_of("brace x\norder two\n")
        assert line == 2 and "bad order" in msg
        line, msg = self._line_of("brace x\norder 0\n")
        assert line == 2 and "positive" in msg

    def test_wrong_entry_count(self):
        text = "brace x\norder 2\nadd\n0 1 1\n"
        line, msg = self._line_of(text)
        assert line == 4 and "expected 2 entries" in msg

    def test_out_of_range_entry(self):
        text = "brace x\norder 2\nadd\n0 2\n"
        line, msg = self._line_of(text)
        assert line == 4 and "out of range for order 2" in msg

    def test_non_integer_entry(self):
        text = "brace x\norder 2\nadd\n0 a\n"
        line, msg = self._line_of(text)
        assert line == 4 and "bad table entry" in msg

    def test_truncated(self):
        line, msg = self._line_of("brace x\norder 2\nadd\n0 1\n1 0\n")
        assert "unexpected end of input" in msg

    def test_missing_end(self):
        text = ("brace x\norder 2\nadd\n0 1\n1 0\ncirc\n0 1\n1 0\nbrace y\n")
        line, msg = self._line_of(text)
        assert line == 9 and "expected 'end'" in msg

    def test_line_numbers_skip_comments(self):
        text = "# one\n# two\nbrace x\n# three\norder nope\n"
        line, _ = self._line_of(text)
        assert line == 5


def test_check_flag():
    # valid syntax, broken axioms: circ row repeats an entry
    bad = "brace x\norder 2\nadd\n0 1\n1 0\ncirc\n0 1\n1 1\nend\n"
    with pytest.raises(ValidationFailure):
        parse_document(bad)
    doc = parse_document(bad, check=False)
    assert doc.order == 2
    with pytest.raises(ValidationFailure):
        doc.to_brace()


def test_an_order_over_the_cap_is_refused_at_its_header(monkeypatch):
    # validate's message, before any row is read: a header alone gets it,
    # and so does a document whose first row is bad
    monkeypatch.setenv("BRACE_FORGE_MAX_ORDER", "8")
    for text in ("brace big\norder 9\n", "brace big\norder 9\nadd\n0 x\n"):
        for check in (True, False):
            with pytest.raises(SizeCapExceeded, match="^order 9 exceeds the size cap 8$"):
                parse_documents(text, check=check)
    with pytest.raises(SizeCapExceeded, match="^order 9 exceeds the size cap 8$"):
        validate(np.zeros((9, 9), dtype=np.int64), np.zeros((9, 9), dtype=np.int64))
    with pytest.raises(DocumentSyntaxError, match="unexpected end of input"):
        parse_document("brace x\norder 8\n")


def test_document_equality(R4, T2):
    a = document_of(R4)
    b = parse_document(serialize_document(R4))
    assert a == b
    assert a != document_of(T2)
    assert a != object()


def test_document_immutable(R4):
    doc = document_of(R4)
    with pytest.raises(ValueError):
        doc.add[0, 0] = 1


def test_parse_int_grid():
    grid = parse_int_grid("0 1\n# comment\n1 0\n", rows=2, cols=2, limit=2)
    assert grid.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(DocumentSyntaxError):
        parse_int_grid("0 1\n", rows=2, cols=2, limit=2)       # too few rows
    with pytest.raises(DocumentSyntaxError):
        parse_int_grid("0 1\n1 0\n0 1\n", rows=2, cols=2, limit=2)  # trailing
    with pytest.raises(DocumentSyntaxError):
        parse_int_grid("0 3\n1 0\n", rows=2, cols=2, limit=2)  # out of range
    with pytest.raises(DocumentSyntaxError):
        parse_int_grid("0 x\n1 0\n", rows=2, cols=2, limit=2)


def test_int_grid_rows_parse_like_table_rows():
    assert parse_int_grid("0\t1\n1  0\n", rows=2, cols=2, limit=2).tolist() == [[0, 1], [1, 0]]
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_int_grid("0 1\n1 2\n", rows=2, cols=2, limit=2)
    assert exc.value.line == 2 and "entry 2 out of range for order 2" in str(exc.value)
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_int_grid("0 a\n1 0\n", rows=2, cols=2, limit=2)
    assert exc.value.line == 1 and "bad table entry 'a'" in str(exc.value)
    # rows and columns may differ from the entry limit
    grid = parse_int_grid("0 1 2\n", rows=1, cols=3, limit=3)
    assert grid.tolist() == [[0, 1, 2]]


# Fuzzing: well-formed documents with a few lines replaced, inserted or
# deleted reach every state of the parser; lines drawn from the grammar's
# own words, numbers and junk, and raw text, cover the rest.
_LINE = st.one_of(
    st.sampled_from(["brace", "brace x", "add", "circ", "end", "# note", "", "  "]),
    st.integers(-2, 4).map(lambda k: f"order {k}"),
    st.lists(st.integers(-1, 3).map(str), max_size=4).map(" ".join),
    st.text(max_size=8),
)


@st.composite
def _document_text(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, n - 1).map(str), min_size=n, max_size=n).map(" ".join)
    table = st.lists(row, min_size=n, max_size=n)
    lines = [draw(st.sampled_from(["brace", "brace x"])), f"order {n}",
             "add", *draw(table), "circ", *draw(table), "end"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del lines[i]
        else:
            lines[i:i + (edit == "replace")] = [draw(_LINE)]
    return "\n".join(lines)


_TEXT = st.one_of(st.text(), st.lists(_LINE, max_size=30).map("\n".join),
                  st.lists(_document_text(), max_size=3).map("\n".join))


def _parse_or_syntax_error(call, text):
    """``call(text)``, or None after a DocumentSyntaxError that names a
    line of ``text``; any other exception fails the test."""
    try:
        return call(text)
    except DocumentSyntaxError as exc:
        assert isinstance(exc.line, int), exc
        assert 1 <= exc.line <= text.count("\n") + 1, exc
        return None


@given(_TEXT)
@settings(max_examples=400, deadline=None)
def test_fuzz_parse_documents(text):
    docs = _parse_or_syntax_error(lambda t: parse_documents(t, check=False), text)
    for doc in docs or []:
        assert parse_document(serialize_document(doc), check=False) == doc
    try:
        parse_documents(text)
    except (DocumentSyntaxError, ValidationFailure):
        pass


@given(_TEXT, st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_fuzz_parse_int_grid(text, rows, cols, limit):
    grid = _parse_or_syntax_error(lambda t: parse_int_grid(t, rows, cols, limit), text)
    if grid is not None:
        assert grid.shape == (rows, cols)
        assert grid.min() >= 0 and grid.max() < limit
