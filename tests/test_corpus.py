import io

import numpy as np
import pytest

from conftest import descriptors_of, store_from_articles
from kosrank import corpus
from kosrank.corpus import Article, CorpusError, parse_articles, write_articles
from kosrank.months import month_from_index, month_index


def parse(text):
    return parse_articles(io.StringIO(text))


def parse_by_line(text):
    """The columns of the line loop alone, which the chunked parse falls back to."""
    return corpus._columns(corpus._checked_lines(io.StringIO(text)))


def months_of(columns):
    return [month_from_index(m) for m in columns.month_idx.tolist()]


def assert_same_columns(got, want):
    assert got.vocabulary == want.vocabulary
    for name in ("ids", "month_idx", "retracted"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), name
    a, b = got.annotations, want.annotations
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.tolist()) == (y.dtype, y.tolist()), name


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
        store = parse('{"id":1,"month":"2014-01-15"}\n')
        assert months_of(store) == ["2014-01"]

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
        [("2014-13", "month component out of range"), ("14-01", "expected YYYY-MM")],
    )
    def test_bad_month_names_its_line_every_time(self, month, reason):
        good = '{"id":1,"month":"2014-01"}\n'
        bad = f'{{"id":2,"month":"{month}"}}\n'
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
        assert store.ids_up_to("2014-02").tolist() == [1, 2]
        assert store.ids_up_to("2013-12").tolist() == []

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
        written = store_from_articles(
            Article(i, month_from_index(m), descriptors_of(store, i), r)
            for i, m, r in zip(*(a.tolist() for a in (store.ids, store.month_idx, store.retracted)))
        )
        buffer = io.StringIO()
        write_articles(written, buffer)
        again = parse(buffer.getvalue())
        assert_same_columns(again, store)
        assert descriptors_of(again, 2) == ("A", "B")


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
    ('{"id":8,"month":"2014-01","mesh":"D1"}', "'mesh' must be an array"),
    ('{"id":8,"month":"2014-01","mesh":["D1",null]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","mesh":[7]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","mesh":[["D1"]]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","mesh":[{"a":1}]}', "'mesh' entries must be strings"),
    ('{"id":8,"month":"2014-01","retracted":"false"}', "'retracted' must be true or false"),
    ('{"id":8,"month":"2014-01","retracted":0}', "'retracted' must be true or false"),
    ('{"id":7,"month":"2014-01"}', "duplicate id 7, first on line {first}"),
]

LAYOUTS = ["lf", "crlf", "blank-lines", "reversed"]


def layout(rows: list[str], style: str) -> tuple[str, dict[int, int]]:
    """`rows` as a file in `style`, and the 1-based line of each row by its
    index in `rows`."""
    lines = rows[::-1] if style == "reversed" else list(rows)
    if style == "blank-lines":
        lines = [part for row in lines for part in ("", "  \t", row)]
    end = "\r\n" if style == "crlf" else "\n"
    line_of = {}
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            line_of.setdefault(rows.index(line), lineno)
    return "".join(line + end for line in lines), line_of


@pytest.fixture(params=[512, 2], ids=["chunk-512", "chunk-2"])
def chunk_lines(request, monkeypatch):
    """Runs a test with the default chunk size and with chunks of 2 lines."""
    monkeypatch.setattr(corpus, "CHUNK_LINES", request.param)
    return request.param


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
