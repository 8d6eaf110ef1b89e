import io

import pytest

from kosrank.corpus import (
    Article,
    CorpusError,
    parse_articles,
    store_from_articles,
    write_articles,
)
from kosrank.months import month_index


def parse(text):
    return parse_articles(io.StringIO(text))


def in_month(store, month):
    """Sorted ids of the articles published in `month`."""
    return store.ids[store.month_idx == month_index(month)].tolist()


class TestParse:
    def test_single_row(self):
        store = parse('{"id":1,"month":"2014-01","mesh":["D011506"],"retracted":false}\n')
        assert len(store) == 1
        assert store.articles[1].descriptors == ("D011506",)

    def test_duplicate_id_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            parse('{"id":7,"month":"2014-01"}\n{"id":7,"month":"2014-02"}\n')

    def test_retracted_defaults_false(self):
        store = parse('{"id":1,"month":"2014-01"}\n')
        assert store.articles[1].retracted is False
        assert store.articles[1].descriptors == ()

    def test_missing_month_fatal(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse('{"id":1}\n')

    def test_malformed_line_reports_number(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse('{"id":1,"month":"2014-01"}\n{nope}\n')

    def test_day_truncated_to_month(self):
        store = parse('{"id":1,"month":"2014-01-15"}\n')
        assert store.articles[1].month == "2014-01"

    def test_months_parsed_once_per_distinct_text(self):
        store = parse(
            '{"id":2,"month":"2014-01"}\n{"id":1,"month":"2014-01-15"}\n'
            '{"id":3,"month":"2014-01"}\n{"id":4,"month":"2013-12"}\n'
        )
        assert [store.articles[i].month for i in (1, 2, 3, 4)] == [
            "2014-01", "2014-01", "2014-01", "2013-12"
        ]
        assert store.articles[2].month is store.articles[3].month
        assert store.ids_up_to("2013-12").tolist() == [4]
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
        buffer = io.StringIO()
        write_articles(store, buffer)
        again = parse(buffer.getvalue())
        assert again == store
        assert again.articles[2].descriptors == ("A", "B")
