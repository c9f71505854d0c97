"""The document reader: a plain `oplus` matrix read straight to int64, and
every report byte-identical to reading the document with json.loads."""

import contextlib
import io
import json
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvkit as mv
from mvkit import cli

from conftest import family_combos

COMBOS = [()] + [c for c in family_combos() if np.prod(c) <= 40]
WHITESPACE = ["", "", " ", " ", "\n", "\t", "\r\n  ", "  \n\t"]
COMMANDS = [["verify"], ["decompose"], ["center"], ["ideals"], ["complete"],
            ["quotient", "--ideal", "[0]"]]


def report(argv, text, reader=True, chunk=cli._CHUNK):
    """(exit code, stdout) of `mvkit argv -` with `text` on stdin, matrix rows
    read `chunk` bytes at a time; reader=False forces json.loads for the
    whole document."""
    patch = (mock.patch.object(cli, "_CHUNK", chunk) if reader
             else mock.patch.object(cli, "_read_arrays", lambda text: None))
    out = io.StringIO()
    with patch, mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = cli.run([argv[0], "-", *argv[1:]])
    return code, out.getvalue()


def tables(combo, perm_seed):
    A = mv.product([mv.chain_algebra(n) for n in combo])
    if A.size > 1:
        perm = list(range(A.size))
        random.Random(perm_seed).shuffle(perm)
        A = mv.relabel(A, perm)
    return A


# -- the generator: a family algebra's tables as JSON text, mutated -----------


NUMBER_MUTATIONS = ["leading zero", "minus zero", "float", "true", "past int64", "split",
                    "huge digits"]
ROW_MUTATIONS = ["ragged", "extra entry", "doubled comma", "missing comma", "deeper row",
                 "stray scalar", "missing row comma", "empty row"]
DOC_MUTATIONS = ["duplicate key", "escaped key", "oplus in label", "bom", "trailing data",
                 "truncate", "nested 70", "nested 100000", "deeper matrix", "negative",
                 "oplus nested", "oplus nested, escaped at top", "number after rows"]
MUTATIONS = NUMBER_MUTATIONS + ROW_MUTATIONS + DOC_MUTATIONS


@st.composite
def documents(draw, mutations=None):
    combo = draw(st.sampled_from(COMBOS))
    A = tables(combo, draw(st.integers(0, 2**16)))
    n = A.size
    spacing = random.Random(draw(st.integers(0, 2**32)))   # one draw for all the whitespace
    ws = lambda: spacing.choice(WHITESPACE)  # noqa: E731
    if mutations is None:
        mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=2, unique=True))
    at_row, at_col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))

    def number(v, here):
        text = str(v)
        if not here:
            return text
        for m in mutations:
            if m == "leading zero":
                text = "0" + text
            elif m == "minus zero":
                text = "-0" if v == 0 else text
            elif m == "float":
                text += ".0"
            elif m == "true":
                text = "true"
            elif m == "past int64":
                text = str(v + 2**63)
            elif m == "split":
                text = text[0] + " " + text if len(text) == 1 else text[0] + ws() + " " + text[1:]
            elif m == "huge digits":
                text = "9" * 19
            elif m == "negative":
                text = "-" + text
        return text

    def row(values, r, target):
        items = [number(v, target and r == at_row and c == at_col) for c, v in enumerate(values)]
        sep = [ws() + "," + ws() for _ in items]
        if target and r == at_row:
            if "ragged" in mutations:
                items = items[:-1] or ["0"]
            if "extra entry" in mutations:
                items.append("0")
            if "doubled comma" in mutations and len(items) > 1:
                sep[0] = ",,"
            if "missing comma" in mutations and len(items) > 1:
                sep[0] = " "
        body = "".join(item + (sep[i] if i < len(items) - 1 else "") for i, item in enumerate(items))
        text = "[" + ws() + body + ws() + "]"
        if target and r == at_row:
            if "deeper row" in mutations:
                text = "[" + text + "]"
            if "empty row" in mutations:
                text = "[]"
        return text

    def matrix(table, target):
        rows = [row(values, r, target) for r, values in enumerate(table)]
        seps = [ws() + "," + ws() for _ in rows]
        if target and "stray scalar" in mutations:
            seps[at_row] = ", 5,"
        if target and "missing row comma" in mutations and len(rows) > 1:
            seps[0] = ws() + " "
        body = "".join(r + (seps[i] if i < len(rows) - 1 else "") for i, r in enumerate(rows))
        text = "[" + ws() + body + ws() + "]"
        return "[" + text + "]" if target and "deeper matrix" in mutations else text

    oplus = A.oplus_table.tolist()
    neg = A.neg_table.tolist()
    oplus_text = matrix(oplus, draw(st.booleans()))
    if "number after rows" in mutations:
        oplus_text += draw(st.sampled_from([".5", "e5", "0", " 1"]))
    fields = [("type", json.dumps("tables")), ("size", str(n)), ("zero", str(A.zero)),
              ("oplus", oplus_text), ("neg", row(neg, at_row, draw(st.booleans())))]
    escaped = "escaped key" in mutations or "oplus nested, escaped at top" in mutations
    if "oplus nested" in mutations or "oplus nested, escaped at top" in mutations:
        fields = [f for f in fields if f[0] != "oplus"] + [("meta", '{"oplus": ' + oplus_text + "}")]
        if escaped:
            fields.append(("oplus", draw(st.sampled_from(["0", "[[0]]", matrix(oplus, False)]))))
    if draw(st.booleans()):
        label = "x" if "oplus in label" not in mutations else '"oplus": [[0]], "neg": [0]'
        fields.append(("labels", json.dumps([label + str(i) for i in range(n)])))
    if "duplicate key" in mutations:
        fields.insert(0, ("oplus", draw(st.sampled_from(["[[0]]", "[1, 2]", '"x"', matrix(oplus, False)]))))
    if "nested 70" in mutations:
        fields.append(("deep", "[" * 70 + "]" * 70))
    if "nested 100000" in mutations:
        fields.append(("deep", "[" * 100_000 + "]" * 100_000))
    fields = draw(st.permutations(fields))
    keys = ['"\\u006fplus"' if k == "oplus" and escaped else json.dumps(k)
            for k, _ in fields]
    text = ws() + "{" + ws() + ("," + ws()).join(
        key + ws() + ":" + ws() + value + ws() for key, (_, value) in zip(keys, fields)) + "}" + ws()
    if "bom" in mutations:
        text = "﻿" + text
    if "trailing data" in mutations:
        text += draw(st.sampled_from([" x", "{}", "0", ","]))
    if "truncate" in mutations:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@settings(derandomize=True, max_examples=200)
@given(documents(), st.sampled_from(COMMANDS), st.sampled_from([16, 300, cli._CHUNK]))
def test_reader_reports_match_json_loads(text, argv, chunk):
    """Exit code and report bytes are the same whether the array reader runs,
    with row chunks small or large, or json.loads reads the whole document;
    and the report keeps the CLI's contract: exit 0, 2, 3 or 4 and exactly
    one of result and error."""
    code, out = report(argv, text, chunk=chunk)
    assert (code, out) == report(argv, text, reader=False)
    doc = json.loads(out)
    assert code in (0, 2, 3, 4) and doc["command"] == argv[0] and doc["version"] == cli.SCHEMA_VERSION
    assert len({"result", "error"} & doc.keys()) == 1


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_each_mutation_reports_match_json_loads(mutation):
    @settings(derandomize=True, max_examples=8)
    @given(documents([mutation]), st.sampled_from(COMMANDS))
    def check(text, argv):
        assert report(argv, text) == report(argv, text, reader=False)
    check()


# -- the array path is taken, and refuses what JSON refuses -----------------


@pytest.mark.parametrize("dump", [
    json.dumps,
    lambda doc: json.dumps(doc, indent=2),
    lambda doc: json.dumps(doc, separators=(",", ":")),
])
def test_plain_tables_take_the_array_path(dump):
    A = tables((2, 3, 4), 7)
    doc = cli.tables_document(A)
    read = cli._read_arrays(dump(doc))
    assert isinstance(read["oplus"], np.ndarray) and read["oplus"].dtype == np.int64
    assert read["oplus"].tolist() == doc["oplus"]
    assert {k: v for k, v in read.items() if k != "oplus"} == {k: v for k, v in doc.items() if k != "oplus"}


def test_escaped_top_level_oplus_beside_a_nested_one():
    """The only plain '"oplus"' is a nested key, and the top-level one is
    spelled with an escape: the document goes whole to json.loads, which
    finds no list of rows at the top level."""
    text = ('{"type":"tables","size":2,"zero":0,"\\u006fplus":0,'
            '"meta":{"oplus":[[0,1],[1,1]]},"neg":[1,0]}')
    assert cli._read_arrays(text) is None
    code, out = report(["verify"], text)
    assert (code, out) == report(["verify"], text, reader=False)
    assert code == 3 and json.loads(out)["error"]["message"] == "field 'oplus' must be a list of rows"


def test_long_first_row_allocates_no_square_matrix():
    """One row of 10 000 zeros is too little text for 10 000 such rows, so
    the reader refuses it before asking for a 10 000 x 10 000 matrix; the
    spy fails the run on any request larger than the document."""
    text = '{"type": "tables", "size": 1, "zero": 0, "oplus": [[' + ",".join(["0"] * 10_000) + ']], "neg": [0]}'
    shapes, empty = [], np.empty

    def spy(shape, *args, **kwargs):
        shapes.append(shape)
        if np.prod(shape) > len(text):
            raise MemoryError(f"np.empty{shape}")
        return empty(shape, *args, **kwargs)

    with mock.patch.object(np, "empty", spy):
        got = report(["verify"], text)
    assert all(np.prod(shape) <= len(text) for shape in shapes), shapes
    assert got == report(["verify"], text, reader=False)


def test_large_tables_read_in_chunks():
    """A matrix longer than one chunk is read whole, row chunks end to end."""
    A = tables((4, 4, 3, 2), 11)   # n = 96: about 25 KB of rows
    text = json.dumps(cli.tables_document(A))
    with mock.patch.object(cli, "_CHUNK", 1000):
        read = cli._read_arrays(text)
    assert np.array_equal(read["oplus"], A.oplus_table)


@pytest.mark.parametrize("where", ["[{}1,2]", "[1{},2]", "[1,{}2]", "[1,2{}]"])
def test_row_bytes_outside_json_are_refused(where):
    """Every byte other than digits, `,`, `[`, `]` and JSON whitespace makes a
    row not plain, whichever bytes np.fromstring itself would skip."""
    allowed = set(b"0123456789,[] \t\n\r")
    for byte in range(256):
        text = where.format(chr(byte))
        got = cli._int_rows(text, 0, len(text))
        if byte in b" \t\n\r":
            assert got is not None and got.tolist() == [[1, 2]], repr(text)
        elif byte not in allowed:
            assert got is None, repr(text)


@pytest.mark.parametrize("text", [
    "[01,2]", "[1,02]", "[00]", "[-0]", "[-1]", "[+1]", "[1 2]", "[12 3,4]", "[1,,2]", "[,1]", "[1,]",
    "[]", "[1],[2,3]", "[1][2]", "[1],,[2]", "[1],5,[2]", "[1,2]5,[3,4]", "[1,2],5[3,4]",
    "[[1]]", "[1e2]", "[1.0]", "[true]", "[9223372036854775808]", "[1000000000000000000]",
    "[" + "9" * 40 + "]",
])
def test_rows_that_are_not_plain_are_refused(text):
    assert cli._int_rows(text, 0, len(text)) is None


def test_largest_plain_number_reads_exactly():
    text = "[999999999999999999, 0]"
    assert cli._int_rows(text, 0, len(text)).tolist() == [[10**18 - 1, 0]]


def test_parse_accepts_reader_arrays_and_library_lists():
    A = tables((3, 2), 5)
    doc = cli.tables_document(A)
    read = cli._read_arrays(json.dumps(doc))
    for document in (doc, read):
        kind, B = cli.parse_algebra_document(document)
        assert np.array_equal(B.oplus_table, A.oplus_table) and np.array_equal(B.neg_table, A.neg_table)
    with pytest.raises(mv.SchemaError, match="must be a 7x7 matrix"):
        cli.parse_algebra_document({**read, "size": 7})


def test_values_nested_near_the_recursion_limit():
    """A value nested just under or over the depth json.loads can decode gives
    the same report either way: the reader leaves deep values to json.loads."""
    def doc(depth):
        return '{"type": "tables", "deep": ' + "[" * depth + "]" * depth + "}"

    def too_deep(depth):
        return "recursion" in report(["verify"], doc(depth), reader=False)[1]

    lo, hi = 1, 100_000   # too_deep(lo) is False, too_deep(hi) True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if too_deep(mid) else (mid, hi)
    assert hi < 100_000
    for depth in range(max(1, lo - 4), hi + 4):
        assert report(["verify"], doc(depth)) == report(["verify"], doc(depth), reader=False), depth
