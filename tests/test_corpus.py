import io
import json

import numpy as np
import pytest

from conftest import (
    assert_same_columns,
    descriptors_of,
    pair_arrays,
    store_from_articles,
    text_rows_oracle,
    write_articles_oracle,
)
from kosrank import corpus
from kosrank.citegraph import build_graph, cumulative_snapshot
from kosrank.corpus import Article, CorpusError, parse_articles, text_rows, write_articles
from kosrank.months import month_from_index, month_index


def parse(text):
    return parse_articles(io.StringIO(text))


def parse_by_line(text):
    """The columns of the line loop alone, which the chunked parse falls back to."""
    return corpus._columns(corpus._checked_lines(io.StringIO(text)))


def months_of(columns):
    return [month_from_index(m) for m in columns.month_idx.tolist()]


def in_month(store, month):
    """Sorted ids of the articles published in `month`."""
    return store.ids[store.month_idx == month_index(month)].tolist()


class TestParse:
    def test_single_row(self):
        store = parse('{"id":1,"month":"2014-01","mesh":["D011506"],"retracted":false}\n')
        assert len(store.ids) == 1
        assert descriptors_of(store, 1) == ("D011506",)

    def test_duplicate_id_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            parse('{"id":7,"month":"2014-01"}\n{"id":7,"month":"2014-02"}\n')

    def test_retracted_defaults_false(self):
        store = parse('{"id":1,"month":"2014-01"}\n')
        assert store.retracted.tolist() == [False]
        assert descriptors_of(store, 1) == ()

    def test_missing_month_fatal(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse('{"id":1}\n')

    def test_malformed_line_reports_number(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse('{"id":1,"month":"2014-01"}\n{nope}\n')

    def test_day_truncated_to_month(self):
        store = parse('{"id":1,"month":"2014-01-15"}\n{"id":2,"month":"2016-02-29"}\n')
        assert months_of(store) == ["2014-01", "2016-02"]

    def test_months_parsed_once_per_distinct_text(self, monkeypatch):
        texts = []
        normalize = corpus.normalize_month
        monkeypatch.setattr(corpus, "normalize_month", lambda t: texts.append(t) or normalize(t))
        store = parse(
            '{"id":2,"month":"2014-01"}\n{"id":1,"month":"2014-01-15"}\n'
            '{"id":3,"month":"2014-01"}\n{"id":4,"month":"2013-12"}\n'
        )
        assert store.ids.tolist() == [1, 2, 3, 4]
        assert months_of(store) == ["2014-01", "2014-01", "2014-01", "2013-12"]
        assert sorted(texts) == ["2013-12", "2014-01", "2014-01-15"]
        assert store.ids[store.month_idx <= month_index("2013-12")].tolist() == [4]
        assert in_month(store, "2014-01") == [1, 2, 3]

    @pytest.mark.parametrize(
        "month, reason",
        [("2014-13", "month component out of range"), ("14-01", "expected YYYY-MM"),
         ("2014-01-00", "day component out of range"),
         ("2014-02-30", "day component out of range"),
         ("2014-01-99", "day component out of range"),
         ("2014-02-29", "day component out of range"),
         ("2014-01\n", "expected YYYY-MM"), ("２０１４-01", "expected YYYY-MM"),
         ("2014-0١", "expected YYYY-MM")],
    )
    def test_bad_month_names_its_line_every_time(self, month, reason):
        good = '{"id":1,"month":"2014-01"}\n'
        bad = f'{{"id":2,"month":{json.dumps(month)}}}\n'
        for text, line in ((bad, 1), (good + bad, 2)):
            with pytest.raises(CorpusError) as err:
                parse(text)
            assert str(err.value) == f"line {line}: invalid month {month!r}, {reason}"

    @pytest.mark.parametrize(
        "article_id, retracted, reason",
        [
            ("99999999999999999999", "false", "'id' outside the int64 range"),
            ("-9223372036854775809", "false", "'id' outside the int64 range"),
            ("2.9", "false", "missing or non-integer 'id'"),
            ("false", "false", "missing or non-integer 'id'"),
            ('"7"', "false", "missing or non-integer 'id'"),
            ("2", '"false"', "'retracted' must be true or false"),
            ("2", "0", "'retracted' must be true or false"),
            ("1", "false", "duplicate id 1, first on line 1"),
        ],
        ids=["99999999999999999999", "-9223372036854775809", "2.9", "false", '"7"',
             'retracted-"false"', "retracted-0", "duplicate"],
    )
    def test_id_beyond_int64_names_its_line(self, article_id, retracted, reason):
        """A second row that no int64 id, JSON boolean or first use of an id
        can explain fails with one error naming line 2."""
        row = f'{{"id":{article_id},"month":"2014-01","retracted":{retracted}}}'
        with pytest.raises(CorpusError) as err:
            parse('{"id":1,"month":"2014-01"}\n' + row + "\n")
        assert str(err.value) == f"line 2: {reason}"
        store = parse('{"id":9223372036854775807,"month":"2014-01"}\n')
        assert store.ids.tolist() == [2**63 - 1]


class TestQueries:
    def make_store(self):
        return store_from_articles(
            [Article(1, "2014-01", ()), Article(2, "2014-02", ())]
        )

    def test_articles_in_month(self):
        store = self.make_store()
        assert in_month(store, "2014-01") == [1]
        assert in_month(store, "2015-06") == []

    def test_cumulative(self):
        store = self.make_store()
        g = build_graph(pair_arrays([(2, 1)]), store)
        assert cumulative_snapshot(g, store, "2014-02").node_ids.tolist() == [1, 2]
        assert cumulative_snapshot(g, store, "2014-01-31").node_ids.tolist() == [1]
        assert cumulative_snapshot(g, store, "2013-12").node_ids.tolist() == []

    def test_retracted_ids(self):
        assert not any(a.retracted for a in self.make_store().articles.values())
        store = store_from_articles(
            [Article(9, "2014-01", (), retracted=True), Article(1, "2014-01", ())]
        )
        assert [i for i, a in store.articles.items() if a.retracted] == [9]

    def test_monthly_counts_partition_store(self):
        store = store_from_articles(
            [Article(i, f"2014-{(i % 3) + 1:02d}", ()) for i in range(1, 50)]
        )
        total = sum(len(in_month(store, m)) for m in store.months())
        assert total == len(store)

    def test_tiny_retraction_rate_ratio(self):
        # one retracted article in half a million: ratio 2e-6
        articles = [Article(i, "2014-01", ()) for i in range(1, 500_000)]
        articles.append(Article(500_000, "2014-01", (), retracted=True))
        store = store_from_articles(articles)
        retracted = sum(a.retracted for a in store.articles.values())
        assert retracted / len(store) == pytest.approx(2e-6)


class TestRoundTrip:
    def test_semantic_round_trip(self):
        text = (
            '{"id":2,"month":"2014-02","mesh":["B","A"],"retracted":true}\n'
            '{"id":1,"month":"2014-01"}\n'
        )
        store = parse(text)
        buffer = io.StringIO()
        write_articles(store, buffer)
        again = parse(buffer.getvalue())
        assert_same_columns(again, store)
        assert descriptors_of(again, 2) == ("A", "B")

    def test_writer_gives_the_per_row_text_of_parsed_columns(self):
        # descriptor ids that JSON escapes: a quote, a backslash, non-ASCII
        # and a control character; each article's in string order, as the
        # columns list them
        articles = [
            Article(-(2**63), "2014-02", ("D\\2",)),
            Article(-3, "2013-12", ('D"1', "D\u2028")),
            Article(1, "2014-01", ("D\x01", 'D"1', "D\\2", "Dé"), retracted=True),
            Article(2, "2014-02", ()),  # no descriptors
            Article(2**63 - 1, "2014-02", ("Dé", "D😀")),
        ]
        assert all(list(a.descriptors) == sorted(a.descriptors) for a in articles)
        expected = io.StringIO()
        write_articles_oracle(store_from_articles(articles), expected)
        assert "\\u00e9" in expected.getvalue() and "\\u0001" in expected.getvalue()
        written = io.StringIO()
        write_articles(parse(expected.getvalue()), written)
        assert written.getvalue() == expected.getvalue()

    def test_writer_gives_no_text_of_no_articles(self):
        written = io.StringIO()
        write_articles(parse(""), written)
        assert written.getvalue() == ""


GOOD = [
    '{"id":5,"month":"2014-02","mesh":["D2","D1","D2"],"retracted":true}',
    '{"id":3,"month":"2014-01-15","mesh":[]}',
    '{"id":9,"month":"2013-12","mesh":["D1","D3"],"extra":[1,{"a":null}]}',
    '{"id":-4,"month":"2014-01"}',
    '{"id":7,"retracted":false,"month":"2014-02","mesh":["D0"]}',
]

# (row, message) for every error class; each row is tried after the GOOD rows
BAD = [
    ("{nope}", "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("nope", "invalid JSON (Expecting value)"),  # no value starts: scan_once's StopIteration
    ('\ufeff{"id":8,"month":"2014-01"}',
     "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ('{"id":8,"month":"2014-01"} {"id":6,"month":"2014-01"}', "invalid JSON (Extra data)"),
    ('{"id":8,', "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("[1, 2]", "expected a JSON object"),
    ('{"month":"2014-01"}', "missing or non-integer 'id'"),
    ('{"id":2.9,"month":"2014-01"}', "missing or non-integer 'id'"),
    ('{"id":false,"month":"2014-01"}', "missing or non-integer 'id'"),
    ('{"id":"7","month":"2014-01"}', "missing or non-integer 'id'"),
    ('{"id":99999999999999999999,"month":"2014-01"}', "'id' outside the int64 range"),
    ('{"id":-9223372036854775809,"month":"2014-01"}', "'id' outside the int64 range"),
    ('{"id":8}', "missing 'month'"),
    ('{"id":8,"month":null}', "invalid month 'None', expected YYYY-MM"),
    ('{"id":8,"month":"2014-13"}', "invalid month '2014-13', month component out of range"),
    ('{"id":8,"month":"14-01"}', "invalid month '14-01', expected YYYY-MM"),
    ('{"id":8,"month":"2014-01-00"}', "invalid month '2014-01-00', day component out of range"),
    ('{"id":8,"month":"2014-02-30"}', "invalid month '2014-02-30', day component out of range"),
    ('{"id":8,"month":"2014-01-99"}', "invalid month '2014-01-99', day component out of range"),
    ('{"id":8,"month":"2014-02-29"}', "invalid month '2014-02-29', day component out of range"),
    ('{"id":8,"month":"2014-01","mesh":"D1"}', "'mesh' must be an array"),
    ('{"id":8,"month":"2014-01","mesh":["D1",null]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","mesh":[7]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","mesh":[["D1"]]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","mesh":[{"a":1}]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","retracted":"false"}', "'retracted' must be true or false"),
    ('{"id":8,"month":"2014-01","retracted":0}', "'retracted' must be true or false"),
    ('{"id":7,"month":"2014-01"}', "duplicate id 7, first on line {first}"),
]

LAYOUTS = ["lf", "crlf", "blank-lines", "reversed", "writer"]


def writer_layout(row: str) -> str:
    """`row` with the key order and spacing of `write_articles`, and with
    `mesh` and `retracted` at their defaults where it leaves them out, if
    it is a JSON object; else `row` as it is."""
    try:
        value = json.loads(row)
    except json.JSONDecodeError:
        return row
    if isinstance(value, dict):
        value = {"mesh": [], "retracted": False, **value}
    return json.dumps(value, sort_keys=True)


def layout(rows: list[str], style: str) -> tuple[str, dict[int, int]]:
    """`rows` as a file in `style`, and the 1-based line of each row by its
    index in `rows`."""
    if style == "writer":
        rows = [*map(writer_layout, rows)]
    lines = rows[::-1] if style == "reversed" else list(rows)
    if style == "blank-lines":
        lines = [part for row in lines for part in ("", "  \t", row)]
    end = "\r\n" if style == "crlf" else "\n"
    line_of = {}
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            line_of.setdefault(rows.index(line), lineno)
    return "".join(line + end for line in lines), line_of


@pytest.fixture(params=[(corpus.BLOCK_LINES, 512), (2, 2)], ids=["chunk-512", "chunk-2"])
def chunk_lines(request, monkeypatch):
    """Runs a test with the default block and chunk sizes, and with blocks
    and chunks of 2 lines."""
    monkeypatch.setattr(corpus, "BLOCK_LINES", request.param[0])
    monkeypatch.setattr(corpus, "CHUNK_LINES", request.param[1])


class TestChunkedParse:
    @pytest.mark.parametrize("style", LAYOUTS)
    def test_valid_input_gives_the_line_loop_columns_without_it(
        self, chunk_lines, monkeypatch, style
    ):
        text, _ = layout(GOOD, style)
        want = parse_by_line(text)
        monkeypatch.setattr(corpus, "_checked_lines", None)  # the chunked path only
        got = parse(text)
        assert_same_columns(got, want)
        assert got.ids.tolist() == [-4, 3, 5, 7, 9]
        assert got.vocabulary == ("D0", "D1", "D2", "D3")
        assert [descriptors_of(got, i) for i in (-4, 3, 5, 7, 9)] == [
            (), (), ("D1", "D2"), ("D0",), ("D1", "D3")
        ]
        assert got.retracted.tolist() == [False, False, True, False, False]
        assert months_of(got) == ["2014-01", "2014-01", "2014-02", "2014-02", "2013-12"]

    def test_layout_does_not_change_the_columns(self):
        want = parse("\n".join(GOOD))
        for style in LAYOUTS:
            assert_same_columns(parse(layout(GOOD, style)[0]), want)

    @pytest.mark.parametrize("text", ["", "\n\n", " \r\n"], ids=["empty", "blank", "crlf"])
    def test_empty_input(self, chunk_lines, text):
        got = parse(text)
        assert_same_columns(got, parse_by_line(text))
        assert (got.ids.dtype, got.month_idx.dtype, got.retracted.dtype) == (
            np.int64, np.int64, np.bool_
        )
        assert got.annotations.shape == (0, 0) and got.vocabulary == ()

    def test_whitespace_outside_json_is_stripped_as_the_line_loop_strips_it(self, monkeypatch):
        # str.strip drops a form feed and a no-break space, which JSON does not allow
        text = "\f" + GOOD[0] + "\u00a0\n" + GOOD[1] + "\n"
        want = parse_by_line(text)
        monkeypatch.setattr(corpus, "_checked_lines", None)  # the chunked path only
        assert_same_columns(parse(text), want)
        assert want.ids.tolist() == [3, 5]

    @pytest.mark.parametrize("style", LAYOUTS)
    @pytest.mark.parametrize("row, message", BAD, ids=[m[:24] + "|" + r for r, m in BAD])
    def test_every_error_names_its_line_as_the_line_loop_does(
        self, chunk_lines, style, row, message
    ):
        rows = GOOD + [row]
        text, line_of = layout(rows, style)
        at = line_of[len(rows) - 1]
        if "{first}" in message:
            first, at = sorted((line_of[4], at))  # GOOD[4] has id 7
            message = message.format(first=first)
        want = f"line {at}: {message}"
        with pytest.raises(CorpusError) as by_line:
            parse_by_line(text)
        assert str(by_line.value) == want
        with pytest.raises(CorpusError) as chunked:
            parse(text)
        assert str(chunked.value) == want

    def test_split_object_beside_a_line_of_two_objects_is_an_error(self, chunk_lines):
        # Joined into one JSON array these four lines would read as four
        # objects; line by line, line 2 holds two.
        text = (
            '{"id":1,"month":"2014-01"}\n'
            '{"id":2,"month":"2014-01"},{"id":3,"month":"2014-01"}\n'
            '{"id":4,\n'
            '"month":"2014-01"}\n'
        )
        with pytest.raises(CorpusError) as err:
            parse(text)
        assert str(err.value) == "line 2: invalid JSON (Extra data)"
        split_first = text.splitlines(keepends=True)
        split_first = "".join([split_first[0], *split_first[2:], split_first[1]])
        with pytest.raises(CorpusError) as err:
            parse(split_first)
        assert str(err.value) == (
            "line 2: invalid JSON (Expecting property name enclosed in double quotes)"
        )

    def test_error_past_the_first_chunk(self):
        rows = [f'{{"id":{i},"month":"2014-01","mesh":["D{i % 7}"]}}' for i in range(1, 1500)]
        rows.insert(1300, '{"id":5000,"month":"2014-01","mesh":[null]}')
        with pytest.raises(CorpusError) as err:
            parse("\n".join(rows) + "\n")
        assert str(err.value) == "line 1301: 'mesh' entries must be strings"
        del rows[1300]
        text = "\n".join(rows) + "\n"
        assert_same_columns(parse(text), parse_by_line(text))


def writer_row(article_id: int | str, mesh: list[str], month: str, retracted: bool) -> str:
    """The line that `write_articles` gives these fields, `article_id` as it is."""
    return (f'{{"id": {article_id}, "mesh": {json.dumps(mesh)}, '
            f'"month": "{month}", "retracted": {json.dumps(retracted)}}}')


def outcome(parser, text):
    """The columns that `parser` gives of `text`, or its CorpusError's message."""
    try:
        return parser(text)
    except CorpusError as exc:
        return str(exc)


def assert_block_read_is_the_line_loop(text):
    """`parse` of `text` gives the columns of the line loop, or its one-line
    CorpusError, and the block read of each block of `text` raises nothing."""
    want, got = outcome(parse_by_line, text), outcome(parse, text)
    if isinstance(want, str):
        assert got == want and "\n" not in want
    else:
        assert_same_columns(got, want)
    lines = io.StringIO(text).readlines()
    for k in range(0, len(lines), corpus.BLOCK_LINES):
        corpus._block(lines[k : k + corpus.BLOCK_LINES])  # which parse_articles may not show


BASE = [writer_row(1, ["D1", "D2"], "2014-01", False), writer_row(2, [], "2014-02", True),
        writer_row(3, ["D3"], "2013-12", False), writer_row(9, ["D1"], "2014-01", True)]


def near_writer(row: str) -> str:
    """The `BASE` rows as `write_articles` lays them out, with `row` third."""
    return "".join(line + "\n" for line in [*BASE[:2], row, *BASE[2:]])


# (name, text): each text is writer output but for one line or one byte
NEAR_WRITER = [
    ("unsorted", near_writer(writer_row(5, ["D2", "D1"], "2014-01", False))),
    ("repeated", near_writer(writer_row(5, ["D1", "D1"], "2014-01", False))),
    ("escape", near_writer(writer_row(5, ["D\\u00e9"], "2014-01", False))),
    ("raw-e-acute", near_writer(writer_row(5, ["Dé"], "2014-01", False))),
    *((f"id-{i}", near_writer(writer_row(i, ["D1"], "2014-01", False)))
      for i in ["-0", "01", "1234567890123456789", "9999999999999999999",
                str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "+5", "5.0"]),
    ("day-month", near_writer(writer_row(5, ["D1"], "2014-01-15", False))),
    ("month-13", near_writer(writer_row(5, ["D1"], "2014-13", False))),
    ("month-00", near_writer(writer_row(5, ["D1"], "2014-00", False))),
    ("year-0000", near_writer(writer_row(5, ["D1"], "0000-01", False))),
    ("crlf", near_writer(writer_row(5, [], "2014-01", False)).replace("\n", "\r\n")),
    ("no-final-newline", near_writer(writer_row(5, [], "2014-01", False))[:-1]),
    ("respaced", near_writer(writer_row(5, [], "2014-01", False).replace(', "month"', ',"month"'))),
    ("descending", "".join(writer_row(i, ["D1"], "2014-01", False) + "\n" for i in (6, 5, 4, 3))),
    ("repeat-across-blocks", near_writer(writer_row(1, [], "2014-01", False))),
    ("cut-after-retracted", near_writer('{"id": 5, "mesh": [], "month": "2014-01", "retracted"')),
    ("cut-after-retracted-at-end", near_writer(writer_row(5, [], "2014-01", False))
     + '{"id": 6, "mesh": [], "month": "2014-01", "retracted"'),
    ("quote-in-descriptor", near_writer(writer_row(5, ['D"1'], "2014-01", False))),
    ("long-descriptor", near_writer(writer_row(5, ["D" * 70, "D1"], "2014-01", False))),
    ("wide-descriptor", near_writer(writer_row(5, ["D000000001"], "2014-01", False))),
    ("extra-key", near_writer(writer_row(5, [], "2014-01", False)[:-1] + ', "x": 1}')),
]


class TestBlockRead:
    @pytest.mark.parametrize("text", [text for _, text in NEAR_WRITER],
                             ids=[name for name, _ in NEAR_WRITER])
    def test_near_writer_text(self, chunk_lines, text):
        assert_block_read_is_the_line_loop(text)

    def test_a_descriptor_too_long_for_the_block_read_is_decoded(self):
        text = dict(NEAR_WRITER)["long-descriptor"]
        assert corpus._block(io.StringIO(text).readlines()) is None
        assert corpus._block(io.StringIO(text.replace("D" * 70, "D" * 64)).readlines())

    def test_one_byte_edits_of_writer_text(self, chunk_lines):
        """Each of 300 seeded one-character edits of writer text, over every
        character that the read looks for, parses as the line loop does."""
        rng = np.random.default_rng(42)
        text = near_writer(writer_row(-5, ["D1", "D22"], "2014-01", True))
        alphabet = ' \n"-,:[]{}0123456789ftD\\\r' + "é"
        for _ in range(300):
            at, char = int(rng.integers(len(text))), alphabet[rng.integers(len(alphabet))]
            edit = int(rng.integers(3))  # replace, insert, delete
            tail = text[at + 1 :] if edit != 1 else text[at:]
            assert_block_read_is_the_line_loop(text[:at] + (char if edit < 2 else "") + tail)


class TestTextRows:
    @pytest.mark.parametrize("n", [0, 1, 4, 300])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_are_the_oracle_text(self, n, seed):
        rng = np.random.default_rng(seed)
        info = np.iinfo(np.int64)
        wide = rng.integers(info.min, info.max, size=n, dtype=np.int64, endpoint=True)
        edges = np.array([0, -1, info.min, info.max], dtype=np.int64)[:n]
        wide[: len(edges)] = edges
        narrow = rng.integers(-999, 1000, size=n).astype(np.int32)  # the uint32 divmod
        words = np.array([bytes(rng.integers(33, 127, size=k).tolist())
                          for k in rng.integers(0, 12, size=n).tolist()], dtype="S")
        empty = np.array([b""] * n, dtype="S")
        letters = np.array([bytes([c]) for c in rng.integers(65, 91, size=n).tolist()], dtype="S")
        for parts in [
            (wide, b"\n"),
            (b"<", wide, b",", words, narrow, b"\t", letters, empty, b">\n"),
            (letters, np.zeros(n, dtype=np.int64), words, b"", narrow, empty),
        ]:
            assert text_rows(*parts) == "".join(text_rows_oracle(*parts)).encode()
