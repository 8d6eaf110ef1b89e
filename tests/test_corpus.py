import io

import pytest

from kosrank.corpus import (
    Article,
    CorpusError,
    parse_articles,
    store_from_articles,
    write_articles,
)


def parse(text):
    return parse_articles(io.StringIO(text))


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


class TestQueries:
    def make_store(self):
        return store_from_articles(
            [Article(1, "2014-01", ()), Article(2, "2014-02", ())]
        )

    def test_articles_in_month(self):
        store = self.make_store()
        assert store.articles_in_month("2014-01") == {1}
        assert store.articles_in_month("2015-06") == set()

    def test_cumulative(self):
        store = self.make_store()
        assert store.ids_up_to("2014-02").tolist() == [1, 2]
        assert store.ids_up_to("2013-12").tolist() == []

    def test_retracted_ids(self):
        assert self.make_store().retracted_ids() == set()
        store = store_from_articles(
            [Article(9, "2014-01", (), retracted=True), Article(1, "2014-01", ())]
        )
        assert store.retracted_ids() == {9}

    def test_monthly_counts_partition_store(self):
        store = store_from_articles(
            [Article(i, f"2014-{(i % 3) + 1:02d}", ()) for i in range(1, 50)]
        )
        total = sum(len(store.articles_in_month(m)) for m in store.months())
        assert total == len(store)

    def test_tiny_retraction_rate_ratio(self):
        # one retracted article in half a million: ratio 2e-6
        articles = [Article(i, "2014-01", ()) for i in range(1, 500_000)]
        articles.append(Article(500_000, "2014-01", (), retracted=True))
        store = store_from_articles(articles)
        assert len(store.retracted_ids()) / len(store) == pytest.approx(2e-6)


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
