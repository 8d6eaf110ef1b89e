import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from conftest import ancestors_of, descriptors_of, level_of, usefulness_oracle
from kosrank import (citegraph, evaluate, fusion, graphmetrics, mirror, pipeline, propagation,
                     synthgen)
from kosrank.cli import main
from kosrank.config import ConfigError, load_config, write_config, PipelineConfig
from kosrank.corpus import parse_articles
from kosrank.hierarchy import Hierarchy, parse_hierarchy
from kosrank.months import month_from_index, month_index
from kosrank.pipeline import GRAPH_ARRAYS, compute_month, ingest, ingest_arrays
from kosrank.scores import ASPECTS, SCORES_HEADER, write_scores_csv


def make_config(tmp_path: Path, **overrides) -> Path:
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    cfg = PipelineConfig(
        hierarchy=str(data / "hierarchy.tsv"),
        articles=str(data / "articles.jsonl"),
        citations=str(data / "citations.tsv"),
        changes=str(data / "changes.tsv"),
        first_month="2014-01",
        last_month="2014-06",
        sample_fraction=1.0,
        base_seed=11,
        output_dir=str(tmp_path / "out"),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = tmp_path / "pipeline.cfg"
    write_config(cfg, path)
    return path


def set_line(path: Path, line: str) -> None:
    """Append the config `line` to the config file `path`, in place of the
    line that sets the same key: a config that sets a key twice is an error."""
    key = line.partition("=")[0].strip()
    kept = [old for old in path.read_text().splitlines(keepends=True)
            if old.partition("=")[0].strip() != key]
    path.write_text("".join(kept) + line + "\n")


def generate_argv(cfg_path: Path, months=6, articles=120) -> list[str]:
    return [
        "generate",
        "--config",
        str(cfg_path),
        "--months",
        str(months),
        "--articles-per-month",
        str(articles),
        "--evolving-fraction",
        "0.05",
        "--retraction-rate",
        "0.05",
        "--refs-mean",
        "3.0",
    ]


def generate_inputs(cfg_path: Path, months=6, articles=120) -> None:
    assert main(generate_argv(cfg_path, months, articles)) == 0


def add_mapping_edge_cases(cfg: PipelineConfig, month: str) -> None:
    """Map one descriptor to a second code in another category, and add an
    article in `month` that carries it beside an unknown descriptor id."""
    with open(cfg.hierarchy) as fh:
        h, _ = parse_hierarchy(fh)
    descriptor = min(h.descriptor_map)
    categories = {code[0] for code in h.descriptor_map[descriptor]}
    extra = next(code for code in sorted(h.nodes, reverse=True) if code[0] not in categories)
    with open(cfg.hierarchy, "a") as fh:
        fh.write(f"{extra}\t{descriptor}\t\n")
    articles = Path(cfg.articles)
    last_id = max(json.loads(line)["id"] for line in articles.read_text().splitlines())
    row = {"id": last_id + 1, "month": month, "mesh": [descriptor, "D999998"], "retracted": False}
    with articles.open("a") as fh:
        fh.write(json.dumps(row) + "\n")


@pytest.fixture()
def prepared(tmp_path):
    cfg_path = make_config(tmp_path)
    generate_inputs(cfg_path)
    cfg = load_config(cfg_path)
    add_mapping_edge_cases(cfg, "2014-04")
    return cfg_path, cfg


def aspect_scores(result, aspect: str) -> tuple[np.ndarray, np.ndarray]:
    """The (values, scored) arrays that a MonthResult holds for `aspect`."""
    s = ASPECTS.index(aspect)
    return result.values[s], result.scored[s]


def scored_values(h, values, scored) -> dict[str, float]:
    """code -> value of the nodes an aspect scored."""
    return {
        code: value
        for code, value, given in zip(h.codes, values.tolist(), scored.tolist())
        if given
    }


def read_all_outputs(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats takes about 0.8 s and 50 MB to import, and no stage needs
    # it.  The chain runs in a fresh interpreter with warnings as errors, on a
    # scenario whose disruptiveness series is constant (0 edges).
    cfg_path = make_config(tmp_path, last_month="2014-01", sample_fraction=0.5, base_seed=4)
    code = f"""
import sys
from kosrank.cli import main
cfg = {str(cfg_path)!r}
args = ["--months", "1", "--articles-per-month", "4", "--retraction-rate", "0.05"]
assert main(["generate", "--config", cfg, *args]) == 0
for stage in ("ingest", "compute", "fuse", "trend", "evaluate", "export-plots"):
    assert main([stage, "--config", cfg]) == 0
sys.exit("scipy.stats" in sys.modules and "the chain loaded scipy.stats")
"""
    src = str(Path(pipeline.__file__).parents[1])
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr


COMMANDS = [
    ("ingest", "parse all inputs and print a validation report"),
    ("compute", "per-month aspect scores for the configured window"),
    ("fuse", "fuse aspect rankings into relevance rankings"),
    ("trend", "yearly rank slopes and top/bottom tables"),
    ("evaluate", "cohort tests and aspect correlations"),
    ("export-plots", "SVG rank-trajectory charts"),
    ("generate", "write a synthetic scenario to the config's input paths"),
]


def test_help_lists_each_command_with_its_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "120")  # no help text wraps
    for argv in [*([name, "--help"] for name, _ in COMMANDS), ["--help"]]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
    listing = capsys.readouterr().out.split("positional arguments:\n")[1]
    lines = listing.split("\n\n")[0].splitlines()
    assert lines[0].strip() == "{" + ",".join(name for name, _ in COMMANDS) + "}"
    assert [tuple(line.split(None, 1)) for line in lines[1:]] == COMMANDS


def test_each_stage_prints_what_it_wrote(tmp_path, capsys):
    cfg_path = make_config(tmp_path)
    out = tmp_path / "out"
    expected = {
        "generate": ["generated 720 articles, 1729 edges, 3040 hierarchy nodes, "
                     "152 change records"],
        "ingest": [
            "hierarchy nodes: 3040",
            "descriptors mapped: 3040",
            "auto-created codes: 0",
            "articles: 720",
            "unknown descriptor references: 0",
            "edges kept: 1729",
            "self-loops dropped: 0",
            "unknown-endpoint edges dropped: 0",
            "duplicate edges dropped: 0",
            "change records: 152",
        ],
        # 4 aspects x 6 months of scores, 6 member lists and the manifest
        "compute": [f"wrote 31 files to {out}"],
        "fuse": [f"wrote {out / 'rankings.csv'}"],
        "trend": [f"wrote {out / 'trends.csv'} and {out / 'tables.csv'}"],
        "evaluate": [f"wrote {out / name}" for name in (
            "evolution_tests.json", "retraction_tests.json",
            "correlation_pearson.csv", "correlation_spearman.csv")],
        "export-plots": [f"wrote 4 plots to {out / 'plots'}"],  # one per hierarchy level
    }
    printed = {}
    for stage in expected:
        argv = generate_argv(cfg_path) if stage == "generate" else [stage, "--config", str(cfg_path)]
        assert main(argv) == 0, stage
        captured = capsys.readouterr()
        assert captured.err == "", stage
        printed[stage] = captured.out.splitlines()
    assert printed == expected


def compute_record_error(cfg: PipelineConfig) -> str:
    """The stderr of a later stage that finds no matching compute record."""
    record = Path(cfg.output_dir) / "compute.mirror.json"
    return f"error: {record} is missing or does not match; rerun compute\n"


# A value other than `make_config`'s for each config key that compute's record
# holds, the window's end standing for the window
COMPUTE_KEY_CHANGES = {
    "sample_fraction": 0.25, "base_seed": 12, "pagerank_alpha": 0.8, "pagerank_tol": 1e-6,
    "pagerank_max_iter": 50, "informativeness_mode": "surprisal", "last_month": "2014-05",
}
# The config keys that compute's record does not hold: the hierarchy and the
# articles are keyed by their sha256 and the window by its months; compute's
# record vouches for its outputs, not for the citations and changes; rrf_k is
# each later stage's own; and output_dir is where the record is.
UNKEYED_CONFIG_KEYS = ("hierarchy", "articles", "citations", "changes", "first_month",
                       "last_month", "rrf_k", "output_dir")


def test_each_config_key_is_keyed_by_compute_or_named_unkeyed():
    keys = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert sorted(keys) == sorted(pipeline.COMPUTE_KEYS + UNKEYED_CONFIG_KEYS)
    assert set(COMPUTE_KEY_CHANGES) - {"last_month"} == set(pipeline.COMPUTE_KEYS)


@pytest.mark.parametrize("change", [*COMPUTE_KEY_CHANGES, "--seed", "rrf_k", "changes"])
def test_stages_of_another_compute_config_are_a_one_line_error(tmp_path, capsys, change):
    cfg_path = make_config(tmp_path, sample_fraction=0.5)
    generate_inputs(cfg_path)
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert main(["fuse", "--config", str(cfg_path)]) == 0
    error = compute_record_error(load_config(cfg_path))
    args = ["--seed", "12"] if change == "--seed" else []
    values = {"sample_fraction": 0.5, **COMPUTE_KEY_CHANGES, "rrf_k": 30, "changes": ""}
    if change in values:
        make_config(tmp_path, **{"sample_fraction": 0.5, change: values[change]})
    capsys.readouterr()
    for stage in ("fuse", "evaluate"):
        code = main([stage, "--config", str(cfg_path), *args])
        err = capsys.readouterr().err
        if change in ("rrf_k", "changes"):
            assert (code, err) == (0, ""), stage
        else:
            assert (code, err) == (1, error), stage


@pytest.fixture()
def computed(tmp_path):
    """A config whose window is computed."""
    cfg_path = make_config(tmp_path, last_month="2014-03", sample_fraction=0.5)
    generate_inputs(cfg_path, months=3)
    assert main(["compute", "--config", str(cfg_path)]) == 0
    return cfg_path


@pytest.mark.parametrize("rrf_k", [10**20, 9223372036854775000])
def test_rrf_k_above_2_pow_53_is_a_one_line_error(computed, capsys, rrf_k):
    # 10**20 overflowed int64 in fuse; 9223372036854775000 + rank wrapped in
    # int64, so 1/(k + rank) turned negative and fuse left those nodes out
    set_line(computed, f"rrf_k = {rrf_k}")
    capsys.readouterr()
    assert main(["fuse", "--config", str(computed)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: rrf_k must be positive and at most 2**53, got {rrf_k}\n"


@pytest.mark.parametrize("value", [7, 60])
def test_key_set_twice_is_a_one_line_error(computed, capsys, value):
    # the later line used to override the first with no message, even a typo
    text = computed.read_text()
    first = text.splitlines().index("rrf_k = 60") + 1
    computed.write_text(text + f"rrf_k = {value}\n")
    capsys.readouterr()
    assert main(["fuse", "--config", str(computed)]) == 1
    lineno = text.count("\n") + 1
    assert capsys.readouterr().err == (
        f"error: line {lineno}: 'rrf_k' is set again, first on line {first}\n")


def test_rrf_k_of_2_pow_53_ranks_every_node_that_60_does(computed, capsys):
    rankings = Path(load_config(computed).output_dir) / "rankings.csv"
    ranked = []  # the month,scope,tree_code of each row
    for line in ["rrf_k = 60", f"rrf_k = {2**53}"]:
        set_line(computed, line)
        capsys.readouterr()
        assert main(["fuse", "--config", str(computed)]) == 0 and capsys.readouterr().err == ""
        rows = rankings.read_text().splitlines()[2:]
        ranked.append(sorted(row.rsplit(",", 2)[0] for row in rows))
    assert ranked[0] and ranked[0] == ranked[1]


def test_evaluate_of_articles_that_compute_did_not_read_is_a_one_line_error(tmp_path, capsys):
    # compute's record holds the sha256 of the articles it sampled; evaluate
    # used to mix its samples with the annotations of a later ingest
    cfg_path = make_config(tmp_path, base_seed=1, last_month="2014-03", sample_fraction=0.5)
    generate_inputs(cfg_path, months=3, articles=300)
    stages = ["ingest", "compute", "fuse", "evaluate"]
    assert run_stages(cfg_path, stages, capsys) == [(0, "")] * len(stages)
    cfg = load_config(cfg_path)
    articles = Path(cfg.articles)
    rows = [json.loads(line) for line in articles.read_text().splitlines()]
    articles.write_text("".join(json.dumps({**row, "mesh": []} if k % 3 == 0 else row) + "\n"
                                for k, row in enumerate(rows)))
    assert run_stages(cfg_path, ["ingest", "evaluate"], capsys) == [
        (0, ""), (1, compute_record_error(cfg))]


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = make_config(tmp_path)
        cfg = load_config(path)
        assert cfg.sample_fraction == 1.0
        assert cfg.base_seed == 11
        assert cfg.pagerank_alpha == 0.85
        assert cfg.rrf_k == 60

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(Exception):
            load_config(path)

    @pytest.mark.parametrize(
        "line, key",
        [
            ('base_seed = "seven"', "base_seed"),
            ('sample_fraction = "0.5"', "sample_fraction"),
            ("pagerank_max_iter = 0", "pagerank_max_iter"),
            ("pagerank_max_iter = -5", "pagerank_max_iter"),
            ("pagerank_tol = 0.0", "pagerank_tol"),
            ("pagerank_tol = -1e-9", "pagerank_tol"),
            ("base_seed = -3", "base_seed"),  # numpy: "expected non-negative integer"
            ("base_seed = 1e2", "base_seed"),  # a float literal, though its value is whole
            ("pagerank_tol = 1e999", "pagerank_tol"),  # float() reads it as inf
        ],
    )
    def test_mistyped_value_is_a_one_line_error(self, tmp_path, capsys, line, key):
        path = make_config(tmp_path)
        set_line(path, line)
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["compute", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ['first_month = "2014-02-30"', 'last_month = "2014-06-31"'])
    def test_window_end_of_no_such_day_is_a_one_line_error(self, tmp_path, capsys, line):
        path = make_config(tmp_path)
        set_line(path, line)
        month = line.split('"')[1]
        assert main(["compute", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid month {month!r}, day component out of range\n"

    @pytest.mark.parametrize(
        "stage", ["generate", "ingest", "compute", "fuse", "trend", "evaluate", "export-plots"]
    )
    def test_negative_seed_option_is_a_one_line_error(self, tmp_path, capsys, stage):
        # numpy's "expected non-negative integer" came from generate at once,
        # and from compute only after the ingest parse
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        data = tmp_path / "data"
        inputs = {p.name: p.read_bytes() for p in data.iterdir()}
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path), "--seed", "-3"]) == 1
        assert capsys.readouterr().err == "error: base_seed must be >= 0, got -3\n"
        assert {p.name: p.read_bytes() for p in data.iterdir()} == inputs
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line",
        ["base_seed = ٤٢", "sample_fraction = ０.５", "rrf_k = 6_0", "pagerank_tol = inf",
         "pagerank_tol = nan"],
    )
    def test_number_that_is_not_an_ascii_decimal_is_a_one_line_error(self, tmp_path, capsys, line):
        """int() and float() alone read "٤٢" as 42, "０.５" as 0.5, "6_0" as 60
        and "inf" as a tolerance that stops PageRank after one iteration."""
        path = make_config(tmp_path)
        set_line(path, line)
        lineno = path.read_text().count("\n")  # the last line
        value = line.partition("=")[2].strip()
        with pytest.raises(ConfigError, match=f"^line {lineno}: "):
            load_config(path)
        assert main(["compute", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: line {lineno}: cannot parse value {value!r}\n"

    @pytest.mark.parametrize(
        "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_a_newline_ends_a_config_line(self, tmp_path, brk):
        """`str.splitlines` breaks a line at each of these too, which would
        shift every later line number and read the rest of a comment."""
        path = tmp_path / "c.cfg"
        path.write_text(f"base_seed = 1\n# x{brk}y = 2\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="^line 3: unknown config key 'bogus'$"):
            load_config(path)
        path.write_text(f"base_seed = 1\n# x{brk}y = 2\n", encoding="utf-8")
        assert load_config(path).base_seed == 1

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_pagerank_tol_must_be_finite(self, tol):
        with pytest.raises(ConfigError, match="^pagerank_tol must be positive and finite"):
            PipelineConfig(pagerank_tol=tol)

    @pytest.mark.parametrize(
        "key, text, value",
        [("base_seed", "7", 7), ("base_seed", "+7", 7), ("base_seed", "-0", 0),
         ("base_seed", "007", 7), ("pagerank_tol", "0.5", 0.5), ("pagerank_tol", ".5", 0.5),
         ("pagerank_tol", "1.", 1.0), ("pagerank_tol", "1e-9", 1e-9),
         ("pagerank_tol", "1E3", 1000.0), ("pagerank_tol", "+2.5e+1", 25.0)],
    )
    def test_ascii_decimal_literals_parse(self, tmp_path, key, text, value):
        """An int is a literal with no `.`, `e` or `E`; the others are floats."""
        path = make_config(tmp_path)
        set_line(path, f"{key} = {text}")
        parsed = getattr(load_config(path), key)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize(
        "brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    @pytest.mark.parametrize("key", ["output_dir", "hierarchy"])
    def test_line_break_in_a_string_is_a_one_line_error(self, tmp_path, brk, key):
        # `write_config` would write a file that `load_config` cannot read back
        with pytest.raises(ConfigError) as exc:
            write_config(PipelineConfig(**{key: f"a{brk}b"}), tmp_path / "c.cfg")
        assert len(str(exc.value).splitlines()) == 1
        assert str(exc.value).startswith(f"{key} must be one line, got ")
        assert not (tmp_path / "c.cfg").exists()

    @pytest.mark.parametrize(
        "value", ['a"b', '"', "a#b", "#", "a\tb", "\t", "  a", " a ", "a\x1fb"]
    )
    def test_quotes_hashes_tabs_and_spaces_round_trip(self, tmp_path, value):
        cfg = PipelineConfig(output_dir=value, hierarchy=value)
        write_config(cfg, tmp_path / "c.cfg")
        assert load_config(tmp_path / "c.cfg") == cfg

    def test_int_passes_for_float_and_bool_never_for_number(self, tmp_path):
        path = make_config(tmp_path)
        set_line(path, "sample_fraction = 1")
        assert load_config(path).sample_fraction == 1
        set_line(path, "rrf_k = true")
        with pytest.raises(ConfigError, match="rrf_k"):
            load_config(path)

    def test_seed_override(self, tmp_path):
        cfg = load_config(make_config(tmp_path), base_seed=99)
        assert cfg.base_seed == 99

    def test_hash_changes_with_config(self, tmp_path):
        c1 = load_config(make_config(tmp_path))
        c2 = load_config(make_config(tmp_path), base_seed=99)
        assert c1.config_hash() != c2.config_hash()

    def test_threads_is_a_compute_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", "--config", str(make_config(tmp_path)), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setattr(pipeline, "compute", lambda *a, **k: pytest.fail("compute ran"))
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--config", str(make_config(tmp_path)), "--threads", threads])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: must be at least 1, got {threads}\n" in err


class TestIngest:
    def test_valid_dataset_reports_counts(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        report = capsys.readouterr().out
        assert "articles: 720" in report
        assert "edges kept:" in report
        assert "self-loops dropped: 0" in report

    @pytest.mark.parametrize(
        "what, row, reason",
        [
            ("citations", "2\t99999999999999999999", "article id outside the int64 range"),
            ("articles", {"id": 99999999999999999999}, "'id' outside the int64 range"),
            ("articles", {"id": 2.9}, "missing or non-integer 'id'"),
            ("articles", {"id": False}, "missing or non-integer 'id'"),
            ("articles", {"id": "7"}, "missing or non-integer 'id'"),
            ("articles", {"id": 10**9, "retracted": "false"}, "'retracted' must be true or false"),
            ("articles", {}, "duplicate id {}, first on line 1"),
        ],
        ids=["citations", "articles", "articles-id-2.9", "articles-id-false", 'articles-id-"7"',
             'articles-retracted-"false"', "articles-duplicate"],
    )
    def test_id_beyond_int64_is_a_one_line_error(self, tmp_path, capsys, what, row, reason):
        """A bad row appended to an input file fails `ingest` with one line
        naming the file and the row's line; an article row without its own
        `id` repeats the first row's."""
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        path = Path(getattr(cfg, what))
        lines = path.read_text().splitlines()
        if what == "articles":
            first_id = json.loads(lines[0])["id"]
            row = json.dumps({"id": first_id, "month": "2014-01", **row})
            reason = reason.format(first_id)
        lines.append(row)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line {len(lines)}: {reason}\n"

    @pytest.mark.parametrize("what", ["hierarchy", "articles", "citations", "changes", "config"])
    def test_byte_that_is_not_utf8_is_a_one_line_error(self, tmp_path, capsys, what):
        """A line with a byte that is not UTF-8, put halfway into an input
        file, fails `ingest` with one line that names the file and that
        line, not the byte's offset into a decode buffer."""
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        path = cfg_path if what == "config" else Path(getattr(load_config(cfg_path), what))
        lines = path.read_bytes().splitlines(keepends=True)
        at = len(lines) // 2
        lines.insert(at, b"2014\xff\tD1\tmove\n")
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line {at + 1}: not UTF-8\n"

    @pytest.mark.parametrize(
        "what, line, reason",
        [
            ("articles", '{"id": 2, "month": ', "invalid JSON (Expecting value)"),
            ("citations", "2\tx", "non-integer article id"),
            ("config", "bogus = 1", "unknown config key 'bogus'"),
        ],
    )
    def test_bad_line_before_a_byte_that_is_not_utf8_wins(self, tmp_path, capsys, what, line,
                                                          reason):
        """The error is the first bad line's, though the parse that runs
        into the byte that is not UTF-8 fails on that byte.  A config error
        names no path."""
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        path = cfg_path if what == "config" else Path(getattr(load_config(cfg_path), what))
        lines = path.read_bytes().splitlines(keepends=True)
        at = len(lines) // 2
        lines[at:at] = [line.encode() + b"\n", b"2014\xff\tD1\tmove\n"]
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        named = "" if what == "config" else f"{path}: "
        assert capsys.readouterr().err == f"error: {named}line {at + 1}: {reason}\n"

    def test_missing_citations_file_fails_with_path(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        Path(cfg.citations).unlink()
        assert main(["ingest", "--config", str(cfg_path)]) != 0
        err = capsys.readouterr().err
        assert "citations.tsv" in err

    def test_missing_citations_file_fails_before_any_parse(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        Path(cfg.articles).write_text("not json\n")
        Path(cfg.citations).unlink()
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: citations file not found: ")


class TestGenerate:
    def test_missing_articles_path_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        path = make_config(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith("articles ")))

        def generate_columns(scenario):
            raise AssertionError("generate ran before the config paths were checked")

        monkeypatch.setattr(synthgen, "generate_columns", generate_columns)
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config does not set the articles path\n"


    def test_months_past_9999_fail_before_any_file_is_written(self, tmp_path, capsys):
        path = make_config(tmp_path, first_month="9999-06", last_month="9999-12")
        argv = ["generate", "--config", str(path), "--articles-per-month", "50", "--months"]
        assert main([*argv, "12"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not list((tmp_path / "data").iterdir())
        assert main([*argv, "7"]) == 0
        assert main(["ingest", "--config", str(path)]) == 0


class TestComputeFuseTrendEvaluate:
    def test_compute_outputs(self, prepared):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        out = Path(cfg.output_dir)
        score_files = sorted((out / "scores").glob("*.csv"))
        assert len(score_files) == 4 * 6  # four aspects x six months
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["seeds"]["2014-03"] == cfg.base_seed + 2
        for path in score_files:
            first = path.read_text().splitlines()[0]
            assert first == f"# config_hash={cfg.config_hash()}"

    def test_full_chain_and_determinism_across_threads(self, prepared):
        cfg_path, cfg = prepared
        for threads in ("1", "4"):
            assert main(["compute", "--config", str(cfg_path), "--threads", threads]) == 0
            assert main(["fuse", "--config", str(cfg_path)]) == 0
            assert main(["trend", "--config", str(cfg_path)]) == 0
            assert main(["evaluate", "--config", str(cfg_path)]) == 0
            assert main(["export-plots", "--config", str(cfg_path)]) == 0
            if threads == "1":
                first = read_all_outputs(Path(cfg.output_dir))
            else:
                second = read_all_outputs(Path(cfg.output_dir))
        assert first == second
        names = set(first)
        assert "rankings.csv" in names
        assert "trends.csv" in names and "tables.csv" in names
        assert "evolution_tests.json" in names and "retraction_tests.json" in names
        assert "correlation_pearson.csv" in names and "correlation_spearman.csv" in names
        assert any(name.startswith("plots/") for name in names)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_thread_computes_in_the_calling_thread(self, prepared, monkeypatch, threads):
        cfg_path, _ = prepared
        callers = []

        def spy(*args):
            callers.append(threading.current_thread())
            return compute_month(*args)

        monkeypatch.setattr(pipeline, "compute_month", spy)
        assert main(["compute", "--config", str(cfg_path), "--threads", threads]) == 0
        assert len(callers) == 6
        assert (set(callers) == {threading.main_thread()}) == (threads == "1")

    def test_rankings_rows_well_formed(self, prepared):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        lines = (Path(cfg.output_dir) / "rankings.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "month,scope,tree_code,rrf_value,rank"
        global_ranks = [
            int(line.split(",")[4])
            for line in lines[2:]
            if line.split(",")[0] == "2014-01" and line.split(",")[1] == "global"
        ]
        assert global_ranks == list(range(1, len(global_ranks) + 1))
        # each level is its own scope, re-ranked from 1
        level_ranks = {}
        for line in lines[2:]:
            month, scope, code, _, rank = line.split(",")
            if month == "2014-01" and scope != "global":
                assert scope == f"level-{level_of(code)}"
                level_ranks.setdefault(scope, []).append(int(rank))
        assert sum(map(len, level_ranks.values())) == len(global_ranks)
        assert all(r == list(range(1, len(r) + 1)) for r in level_ranks.values())

    @pytest.mark.parametrize("mode", ["entropy-term", "surprisal"])
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_unsampled_compute_matches_direct_module_calls(self, prepared, fraction, mode):
        _, cfg = prepared
        cfg = dataclasses.replace(cfg, sample_fraction=fraction, informativeness_mode=mode)
        data = ingest(cfg)
        month = "2014-04"
        result = compute_month(cfg, data, month, 3)
        # independent reconstruction through the dict-based library calls
        with open(cfg.articles) as fh:
            store = parse_articles(fh)
        published = store.ids[store.month_idx <= month_index(month)]
        snapshot = citegraph.induced(data.graph, np.isin(data.graph.node_ids, published))
        everyone = np.ones(snapshot.num_nodes, dtype=bool)
        sample = citegraph.sample_nodes(snapshot, everyone, fraction, cfg.base_seed + 3)
        codes = {}
        for raw_id in sample.node_ids:
            mapped, _ = data.hierarchy.treenodes_of(descriptors_of(store, int(raw_id)))
            if mapped:
                codes[int(raw_id)] = tuple(sorted(mapped))
        for aspect, scores in (
            ("influence", graphmetrics.pagerank(sample)),
            ("disruptiveness", graphmetrics.disruption_all(sample)),
        ):
            seeds = graphmetrics.aggregate_to_nodes(scores, codes)
            expected = propagation.propagate(data.hierarchy, seeds)
            assert scored_values(data.hierarchy, *aspect_scores(result, aspect)) == expected

        # the month's own mappings, from per-article treenodes_of calls
        h = data.hierarchy
        assert data.unknown_descriptor_refs == 1
        added = descriptors_of(store, int(store.ids[-1]))
        assert month_from_index(int(store.month_idx[-1])) == month
        assert len(h.treenodes_of(added)[0]) > 1
        pairs = []
        for article_id in store.ids[store.month_idx == month_index(month)].tolist():
            mapped, _ = h.treenodes_of(descriptors_of(store, article_id))
            pairs.extend((article_id, code) for code in sorted(mapped))
        # each (article, node) pair counts once at the node and every ancestor
        propagated = dict.fromkeys(h.nodes, 0)
        rows = {code: set() for code in h.nodes}
        for article_id, code in pairs:
            for node in (code, *ancestors_of(code)):
                propagated[node] += 1
                rows[node].add(article_id)
        level_totals = {}
        for code, count in propagated.items():
            level_totals[level_of(code)] = level_totals.get(level_of(code), 0) + count
        # p = count / level total; entropy-term scores -p log2 p (0 at p = 0),
        # surprisal -log2 p (unscored at p = 0); empty levels stay unscored
        expected = {}
        for code, count in propagated.items():
            total = level_totals[level_of(code)]
            if total == 0:
                continue
            p = count / total
            if mode == "entropy-term":
                expected[code] = -p * math.log2(p) if p > 0 else 0.0
            elif p > 0:
                expected[code] = -math.log2(p)
        assert scored_values(h, *aspect_scores(result, "informativeness")) == expected
        oracle = usefulness_oracle({code: frozenset(row) for code, row in rows.items()}, len(h.nodes))
        usefulness = scored_values(h, *aspect_scores(result, "usefulness"))
        assert usefulness.keys() == oracle.keys()
        for code, value in oracle.items():
            assert usefulness[code] == pytest.approx(value, abs=1e-12)

    def test_full_sample_leaves_the_shared_graph_unwritten(self, prepared):
        # At sample_fraction 1.0 the last month's sample keeps every node, so
        # its kernels read data.graph's own arrays.
        _, cfg = prepared
        data = ingest(cfg)
        month = cfg.window()[-1]
        candidates = data.month_idx <= month_index(month)
        sampled = citegraph.sample_nodes(data.graph, candidates, 1.0, cfg.base_seed)
        assert sampled.matrix is data.graph.matrix
        matrix = data.graph.matrix
        before = [array.copy() for array in (matrix.indptr, matrix.indices, matrix.data)]
        compute_month(cfg, data, month, len(cfg.window()) - 1)
        after = (matrix.indptr, matrix.indices, matrix.data)
        for name, old, new in zip(("indptr", "indices", "data"), before, after):
            assert old.dtype == new.dtype and old.tobytes() == new.tobytes(), name

    def test_empty_sample_writes_empty_graph_tables(self, prepared):
        _, cfg = prepared
        cfg = dataclasses.replace(cfg, sample_fraction=0.005)  # 0 of 2014-01's 120 articles
        data = ingest(cfg)
        first = compute_month(cfg, data, "2014-01", 0)
        second = compute_month(cfg, data, "2014-02", 1)
        assert len(first.member_ids) == 0 and len(second.member_ids) > 0
        for aspect in ("influence", "disruptiveness"):
            assert scored_values(data.hierarchy, *aspect_scores(first, aspect)) == {}
            assert scored_values(data.hierarchy, *aspect_scores(second, aspect))

    def test_evaluate_separates_planted_cohorts(self, prepared):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        evolution = json.loads(
            (Path(cfg.output_dir) / "evolution_tests.json").read_text()
        )
        relevance_rows = [
            r for r in evolution["results"] if r["aspect"] == "relevance"
        ]
        assert relevance_rows and all(r["status"] == "ok" for r in relevance_rows)
        retraction = json.loads(
            (Path(cfg.output_dir) / "retraction_tests.json").read_text()
        )
        assert any(r["status"] == "ok" for r in retraction["results"])

    def test_evaluate_skipped_status_when_no_evolving_descriptors(self, prepared):
        cfg_path, cfg = prepared
        # change records that match no scored descriptor leave the evolving
        # cohort empty, mirroring releases without evolving descriptors
        Path(cfg.changes).write_text("2014AA\tD999999\tremoval\n")
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        evolution = json.loads(
            (Path(cfg.output_dir) / "evolution_tests.json").read_text()
        )
        assert evolution["results"]
        assert all(r["status"] == "skipped" for r in evolution["results"])

    def test_release_with_no_window_month_is_skipped(self, prepared):
        cfg_path, cfg = prepared
        with open(cfg.changes, "a") as fh:  # the window is 2014-01 .. 2014-06
            fh.write("2013AA\tD000001\textension\n")
        for stage in ("compute", "fuse", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        rows = json.loads((Path(cfg.output_dir) / "evolution_tests.json").read_text())["results"]
        early = [r for r in rows if r["release"] == "2013AA"]
        assert [r["aspect"] for r in early] == [*ASPECTS, "relevance"]
        assert all(r["status"] == "skipped" and r["reason"] == "no window months" for r in early)
        assert any(r["status"] == "ok" for r in rows if r["release"] == "2014AA")

    def test_member_missing_from_the_articles_is_a_one_line_error(self, prepared, capsys):
        # compute's record holds the sha256 of the articles it sampled, so
        # articles edited after compute are a stale record
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        path = Path(cfg.output_dir) / "members" / "2014-03.csv"
        member = int(path.read_text().splitlines()[2])
        articles = Path(cfg.articles)
        lines = [line for line in articles.read_text().splitlines()
                 if json.loads(line)["id"] != member]
        articles.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == compute_record_error(cfg)

    def test_evaluate_skips_without_changes(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path, changes="")
        generate_inputs(cfg_path)
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        evolution = json.loads(
            (Path(cfg.output_dir) / "evolution_tests.json").read_text()
        )
        assert evolution["results"] == []

    def test_evaluate_writes_skipped_correlation_matrices(self, tmp_path, monkeypatch):
        cfg_path = make_config(tmp_path, last_month="2014-02")
        generate_inputs(cfg_path, months=2, articles=40)
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        # two aligned observations reach the real check, one short of a matrix
        real = evaluate.correlation_matrix
        monkeypatch.setattr(evaluate, "correlation_matrix",
                            lambda data, method: real(data[:, :2], method))
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        expected = (f"# config_hash={cfg.config_hash()}\n"
                    "# skipped: need >= 3 aligned observations, got 2\n")
        for method in ("pearson", "spearman"):
            assert (Path(cfg.output_dir) / f"correlation_{method}.csv").read_text() == expected

    def test_evaluate_reads_no_citations(self, prepared, capsys):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        intact = read_all_outputs(Path(cfg.output_dir))
        Path(cfg.citations).write_text("2\tnot-an-id\n")
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        assert read_all_outputs(Path(cfg.output_dir)) == intact

    def test_non_converged_pagerank_is_reported(self, prepared, capsys):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        set_line(cfg_path, "pagerank_max_iter = 1")
        assert main(["compute", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"warning: {month}: PageRank did not converge within pagerank_max_iter = 1 iterations"
            for month in cfg.window()
        ]
        assert len(list((Path(cfg.output_dir) / "scores").iterdir())) == 4 * len(cfg.window())

    def test_missing_upstream_outputs(self, prepared, capsys):
        cfg_path, cfg = prepared
        for stage in ("fuse", "trend", "evaluate", "export-plots"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == compute_record_error(cfg), stage

    @pytest.mark.parametrize("stage", ["fuse", "trend", "export-plots"])
    def test_rank_stage_without_the_hierarchy_is_a_one_line_error(self, prepared, capsys, stage):
        # These stages parse no input, but the hierarchy's sha256 keys compute's record.
        cfg_path, cfg = prepared
        assert run_stages(cfg_path, ["compute", stage], capsys) == [(0, "")] * 2
        out = Path(cfg.output_dir)
        before = read_all_outputs(out)
        missing = Path(cfg.hierarchy).with_name("hierarchy.missing")
        for value, err in [("", "error: config does not set the hierarchy path\n"),
                           (str(missing), f"error: hierarchy file not found: {missing}\n")]:
            set_line(cfg_path, f'hierarchy = "{value}"')
            assert run_stages(cfg_path, [stage], capsys) == [(1, err)], value
        assert read_all_outputs(out) == before

    def test_missing_changes_file_is_an_error(self, prepared, capsys):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        missing = Path(cfg.changes).with_name("changse.tsv")
        set_line(cfg_path, f'changes = "{missing}"')
        capsys.readouterr()
        for stage in ("ingest", "compute", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"error: changes file not found: {missing}\n"

    def test_release_without_a_year_is_a_one_line_error(self, prepared, capsys):
        cfg_path, cfg = prepared
        Path(cfg.changes).write_text("AA\tD000001\textension\n")
        for stage in ("ingest", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {cfg.changes}: line 1: release 'AA' does not start with a year\n"


# sha256 of every file the seed-1 chain writes over 300 articles a month, but
# correlation_*.csv: np.corrcoef goes through BLAS, whose summation order can
# vary by CPU.  The first window was recorded before the scores stayed
# position vectors through fuse and evaluate, the second, which crosses a year
# boundary so that trends.csv holds slope rows, before the rankings were read
# back as position arrays.
PINNED = {
    ("2014-01", "2014-03"): {
        "evolution_tests.json": "9cc6d51cc8e9faf44e595d0459c5a091288ebd8632fffa368d421f40a3cc4d73",
        "manifest.json": "26471189ba04da63c78a651c8e790caf6a8310060c4def6978327b12feedf08c",
        "members/2014-01.csv": "e19d9a5371439d28c39f935d7c72959f8fc95db0de701b3d55896cd15592c87c",
        "members/2014-02.csv": "df470f34f961499ba7262ce04a220a3a385c9e5b4d831c43e4a0a2386bf3fb12",
        "members/2014-03.csv": "a0a4a6ae016747ac68cd681b0bf00528599f7b62129fc90684dce008d063a524",
        "plots/rank_level-1.svg": "cbe2f61252119189a2276fcf0b388a70f503448d60cb5f5d49be208d2ce779b2",
        "plots/rank_level-2.svg": "cdcf1dbb4b61f3038c4fbca7f13727c67c625172ef02dffab303a6acbd60be3c",
        "plots/rank_level-3.svg": "c2cc6fc593cddf2b667c77e6b18e4963886ff37f9718d1b08bfa858beb726213",
        "plots/rank_level-4.svg": "20b39a311a00b6db7634f4af7a913489ad975ccede3dd9c233d0b390d05f4e0a",
        "rankings.csv": "fb2324f0a688170253f771b965934605b6973531f94c3aeac28be3b08d239636",
        "retraction_tests.json": "bf868bc935fb826fb428ea7e934e2cd89039cafb8c32f56c7e1c578965f89005",
        "scores/disruptiveness_2014-01.csv": "508d609d3826ed1f0da204460f9e7b8814a8bee7cb07cf1e14609df3d86bdcce",
        "scores/disruptiveness_2014-02.csv": "13818b0f4b88c18561b8a84c4eee135e2927be27a5af22fb8c39bba8aea5003c",
        "scores/disruptiveness_2014-03.csv": "eae105269ad02c258bda222a4097d793f1748faeca829388ccb5ad2a3b225c92",
        "scores/influence_2014-01.csv": "4db3435442a7bd08452fe11a3d0802b010374b6b4b99512f9712ac5131f3ce98",
        "scores/influence_2014-02.csv": "0ccadaca195ab504df17d9eed4c89e9a8b68ac1ece3ed3a7174370ef1e54cd40",
        "scores/influence_2014-03.csv": "1fd0347eb2a9058216d07eb1b074f2c4e93d399a700e46354b139b34cdc6c3fc",
        "scores/informativeness_2014-01.csv": "418c056efa65f1a9b1309e5ba3d08e3ae6badf71f3199013516c59b729179c42",
        "scores/informativeness_2014-02.csv": "70f11f9015d5ab3b8e0409b3f9583ed0eaf47837fe0ce7eabc59757efdb0ab15",
        "scores/informativeness_2014-03.csv": "42a2b8401a0c785fecdce9e3b9f6dbf396b866145a1f3cd4cfc9fa05c2e6ee25",
        "scores/usefulness_2014-01.csv": "1488778257ddae1a826e8a73126b83281d2bf01ae1630337c5a1b3bbdc3233c8",
        "scores/usefulness_2014-02.csv": "2fc8822d6355b907b7dba9f491d51d645bdf67b8a9d5abfebaa16f55e91a20fa",
        "scores/usefulness_2014-03.csv": "eb5d353f51086c061855c74ad5eabb363ab4e0144eef1ce420d61bf7eae794ca",
        "tables.csv": "a0e0c60b52d68d8db26e9424e7ae87254e94dbb86f47481abb1d2237926eecb6",
        "trends.csv": "6293b16bed7ad5bee9aa05181bc228c3a63d677e91e4a3c5e516a62846435722",
    },
    ("2014-11", "2015-02"): {
        "evolution_tests.json": "56c386875d7407e0ef01aa1e1543f96f3b2e14f902eca629e033ce3e8034f7e3",
        "manifest.json": "0aa4e3d25f99e83795ad9bbbf6cf971044630968fe55d1240ecaba70d50601d6",
        "members/2014-11.csv": "7d94d8f6946ef7d9cf5d768f263d2db4f152caf2630864dbb1cbe66b9af6226c",
        "members/2014-12.csv": "7cd614c5f9376e7aa2ab0695b31e9304f6dbd95bd3e5f12b576aef3cbd5430f3",
        "members/2015-01.csv": "070c1eda857e6b9454c0931b7f877416fb5ef300c7b754c73c886bc3d046ee93",
        "members/2015-02.csv": "7ce69e7e8cc227d1d33e6604c22460cd1d0a85dd230e703235ac6aeed2b67680",
        "plots/rank_level-1.svg": "72ac6e0efd4b617d6b71510c54316830625844bb1eaadcf9fa1afa161e3a125f",
        "plots/rank_level-2.svg": "888d68b1e7987542615b6c9d48aaa9eced215011bb1cd64cba70fb7ef0c26ec5",
        "plots/rank_level-3.svg": "e3998160cdf27780892e8d00c56d68a4986dae7e6d4126dcf3c5f2492ebc5c5e",
        "plots/rank_level-4.svg": "e4d7d4d58f72f6f605c2c9835796f9d638e4287c77a7cef7a595fdb29ff67cb9",
        "rankings.csv": "662bbe4fec02d672d3859357be2a2974f0c71bb2dc000d08634308ca4e45960e",
        "retraction_tests.json": "5d6a5ebecfcffe869b868e1123b019945df9f9c9c4da9bb1142e50db79f9be65",
        "scores/disruptiveness_2014-11.csv": "e0bcacc60e0aabee70b5ca0ba22e07fb50c4aea511176b74bc00e3e1e7458038",
        "scores/disruptiveness_2014-12.csv": "7d1d976c98465670baabbf60a84f4af89b11b6572f6911674cc6ae5b7c041400",
        "scores/disruptiveness_2015-01.csv": "aeda842340995340a3861984bd173b340534c609815145927b5e66795f24daad",
        "scores/disruptiveness_2015-02.csv": "5f3c080d840c946e6f70e693f059ad92460a70a29c2c422bd7aef9a4bdd447af",
        "scores/influence_2014-11.csv": "2a0c41c1f0729302c7420d25e02794cbf3b461fe896c3425d8cb6ca74db4fded",
        "scores/influence_2014-12.csv": "afb78959c2a39bb087ba75a3f70d87d1f30ee0b55ac419f2d63bf1c6d4e58679",
        "scores/influence_2015-01.csv": "ade0608a8f80efa6c55600ba450901f2d9cdadeaf8356d9972d32fefba104df3",
        "scores/influence_2015-02.csv": "d527bfd5fa371222fcf0f588d5fcacd5f82b0580462645a05d472d158758c0b9",
        "scores/informativeness_2014-11.csv": "20281c60a0b7d44c319d57330f6de90d3fa19f34f35375dd244204ae0ef54d1c",
        "scores/informativeness_2014-12.csv": "748f65fb4e4f48232e262fe50a7ea1439a268980bf8c18a2318972325a0130d3",
        "scores/informativeness_2015-01.csv": "191a143d713d739e6444d781d1e55dc81186ccbc13c32f0d37e8821b6e824579",
        "scores/informativeness_2015-02.csv": "202d18c8fe9ad82933962c1e8cc5c5c3d94ceda6c639ffbb1c9de89e429d78c5",
        "scores/usefulness_2014-11.csv": "3a0ff4ada1aeabf331f27f2177692d51ab9ea54309d89d3e448d3d1581dc0e0e",
        "scores/usefulness_2014-12.csv": "743d164f23335862c40146996a47e07ab1d3b76b7d9f323fc25c98eba790595e",
        "scores/usefulness_2015-01.csv": "44c6e197d2e7bb35fe2504af86fa8c5eeb13893d7ca819e076ad30cfd6442e4d",
        "scores/usefulness_2015-02.csv": "b07805747ed221cc52a516aae238fdb7e062cb0eb5bd539fdaaf9a12c9449a31",
        "tables.csv": "970b32e34d40711e23f781c80dd96bdba0b150d6fe5ca317c321fd65ca5a248d",
        "trends.csv": "2fb84effb5f84c9f2a7c53d709f81308cc5f9b5bcf0737a7ba0060918c0e6c0f",
    },
}


STAGE_MIRROR_FILES = {
    "compute.mirror.json", "compute.codes.npy", "compute.level.npy", "compute.values.npy",
    "compute.aspect_rank.npy", "compute.ids.npy", "compute.indptr.npy", "compute.descriptors.npy",
    "compute.descriptor_indptr.npy", "compute.descriptor_indices.npy",
    "compute.sampled_ids.npy", "compute.sampled_indptr.npy", "compute.sampled_indices.npy",
    "compute.retracted.npy",
}


class TestChainPinned:
    @pytest.mark.parametrize("window", PINNED, ids="..".join)
    def test_written_files_are_pinned(self, tmp_path, monkeypatch, window):
        # Relative paths keep the config hash, written into every file, fixed.
        monkeypatch.chdir(tmp_path)
        cfg = PipelineConfig(
            hierarchy="data/hierarchy.tsv",
            articles="data/articles.jsonl",
            citations="data/citations.tsv",
            changes="data/changes.tsv",
            first_month=window[0],
            last_month=window[1],
            sample_fraction=0.5,
            base_seed=1,
            output_dir="out",
        )
        write_config(cfg, "pipeline.cfg")
        args = ["--months", str(len(cfg.window())), "--articles-per-month", "300"]
        assert main(["generate", "--config", "pipeline.cfg", *args]) == 0
        for stage in ("compute", "fuse", "trend", "evaluate", "export-plots"):
            assert main([stage, "--config", "pipeline.cfg"]) == 0
        written = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in read_all_outputs(Path("out")).items()
            if not name.startswith("correlation_")
        }
        # The stage mirrors are checked against the parsers in TestMirrors;
        # here only their names are pinned.
        assert set(written) - set(PINNED[window]) == STAGE_MIRROR_FILES
        assert {name: written[name] for name in PINNED[window]} == PINNED[window]


def test_cohort_means_add_left_to_right():
    # Python 3.12's `sum` over floats compensates: it gives 1.5 / 4 for `a`
    a, b = [1e16, 1.0, -1e16, 0.5], [-0.0, -0.0]

    def loop_mean(values):
        acc = 0.0
        for v in values:
            acc += v
        return acc / len(values)

    row = pipeline._cohort_test(a, b, ("mean_a", "mean_b"), year=2014)
    assert (row["mean_a"], row["mean_b"]) == (loop_mean(a), loop_mean(b)) == (0.125, 0.0)
    assert math.copysign(1.0, row["mean_b"]) == math.copysign(1.0, loop_mean(b)) == 1.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_cut_gives_the_snapshot_sample(tmp_path, seed):
    """Each window month's sample, drawn from the whole graph with the
    snapshot's nodes as candidates, is the sample that the snapshot cut,
    then sampled by the PCG64 prefix rule, gives."""
    cfg_path = make_config(tmp_path, base_seed=seed, sample_fraction=0.5)
    generate_inputs(cfg_path, months=6, articles=300)
    cfg = load_config(cfg_path)
    data = ingest(cfg)
    for index, month in enumerate(cfg.window()):
        candidates = data.month_idx <= month_index(month)
        snapshot = citegraph.induced(data.graph, candidates)
        seed_of_month = cfg.base_seed + index
        k = int(np.floor(cfg.sample_fraction * snapshot.num_nodes))
        perm = np.random.Generator(np.random.PCG64(seed_of_month)).permutation(snapshot.num_nodes)
        keep = np.zeros(snapshot.num_nodes, dtype=bool)
        keep[perm[:k]] = True
        want = citegraph.induced(snapshot, keep)
        got = citegraph.sample_nodes(data.graph, candidates, cfg.sample_fraction, seed_of_month)
        names = ("node_ids", "matrix.indptr", "matrix.indices", "incoming.indptr",
                 "incoming.indices")
        for name, a, b in zip(names, attrgetter(*names)(got), attrgetter(*names)(want)):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(compute_month(cfg, data, month, index).member_ids, want.node_ids)
    assert got.num_edges > 0  # the last month's sample cites earlier months


def test_compute_leaves_the_ingest_graph_without_its_csc_form(prepared):
    """Only the sampled graphs' kernels read a CSC form, so the whole graph's
    is never built."""
    _, cfg = prepared
    data = ingest(cfg)
    for index, month in enumerate(cfg.window()):
        assert compute_month(cfg, data, month, index).member_ids.size > 0
    assert "incoming" not in vars(data.graph)
    data.graph.incoming
    assert "incoming" in vars(data.graph)  # where the cached form would be


def read_score_text(h: Hierarchy, path: Path, aspect: str, month: str):
    """The (values, scored) by position that the rows of the `aspect` score
    CSV of `month` give, each row checked against the table and the tree."""
    values, scored = np.zeros(len(h.codes)), np.zeros(len(h.codes), dtype=bool)
    lines = path.read_text().splitlines()
    assert lines[1] == SCORES_HEADER
    for line in lines[2:]:
        code, level, row_aspect, row_month, value = line.split(",")
        i = h.position[code]
        assert (int(level), row_aspect, row_month, scored[i]) == (h.level[i], aspect, month, False)
        values[i], scored[i] = float(value), True
    return values, scored


def read_member_text(path: Path) -> np.ndarray:
    return np.array([int(line) for line in path.read_text().splitlines()[2:]], dtype=np.int64)


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        cfg_path = make_config(tmp_path, last_month="2014-02")
        generate_inputs(cfg_path, months=2)
        assert main(["compute", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        data = ingest(cfg)
        computed = compute_month(cfg, data, "2014-02", 1)
        for aspect in ASPECTS:
            path = Path(cfg.output_dir) / "scores" / f"{aspect}_2014-02.csv"
            values, scored = read_score_text(data.hierarchy, path, aspect, "2014-02")
            assert scored.any()
            # 17 significant digits give back every value's bits
            expected_values, expected_scored = aspect_scores(computed, aspect)
            assert np.array_equal(scored, expected_scored)
            assert np.array_equal(values, expected_values)

    def test_writer_gives_the_bytes_of_a_per_row_format(self, tmp_path):
        h = Hierarchy({f"A{i:02d}": "" for i in range(1, 12)}, {})  # 12 nodes
        n, window = len(h.codes), ["2014-01", "2014-02"]
        after = lambda x, to: float(np.nextafter(x, to))  # noqa: E731
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0x7FF8000000000ABC, 0xFFF0000000000123], dtype=np.uint64)
        values = np.zeros((len(window), len(ASPECTS), n))
        values[0, 0] = [-0.0, 0.0, -0.0, 0.0, 1.5, 1.5, -0.0, 1.5, 0.0, -1.5, -1.5, 0.0]
        values[0, 1, :5] = nans.view(np.float64)
        values[0, 1, 5:] = [1.0, np.nan, -np.nan] * 2 + [1.0]
        values[0, 2] = [np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, np.inf, 5e-324, -np.inf, 0.1, -5e-324, np.inf]
        values[0, 3] = [after(0.1, 0), 0.1, after(0.1, 1), after(1.0, 0), 1.0, after(1.0, 2),
                        0.1, after(0.1, 1), after(0.1, 0), 1.0, after(1.0, 0), after(1.0, 2)]
        rng = np.random.default_rng(5)
        values[1] = rng.choice([0.25, 1 / 3, -2.0, 1e-300], size=(len(ASPECTS), n))
        scored = np.ones(values.shape, dtype=bool)
        scored[1] = rng.random((len(ASPECTS), n)) < 0.6
        scored[0, 0, [2, 3]] = scored[0, 3, 0] = False
        scored[1, 0] = False  # a table with no scored node
        paths = [tmp_path / f"{m}_{a}.csv" for m in window for a in ASPECTS]
        write_scores_csv(h, paths, window, values, scored, "abc")
        levels = h.level.tolist()
        for path, (k, s) in zip(paths, np.ndindex(values.shape[:2])):
            vals = values[k, s].tolist()
            rows = [f"{h.codes[i]},{levels[i]},{ASPECTS[s]},{window[k]},{format(vals[i], '.17g')}"
                    for i in np.flatnonzero(scored[k, s]).tolist()]
            expected = "\n".join(["# config_hash=abc", SCORES_HEADER, *rows, ""]).encode()
            assert path.read_bytes() == expected, path.name
        text = paths[0].read_text()
        assert ",-0\n" in text and ",0\n" in text and ",-1.5\n" in text
        assert paths[len(ASPECTS)].read_text() == f"# config_hash=abc\n{SCORES_HEADER}\n"


CHAIN = ["ingest", "compute", "fuse", "trend", "evaluate", "export-plots"]


def results(out_dir: Path) -> dict[str, bytes]:
    """Every output file but the mirrors."""
    return {
        name: data
        for name, data in read_all_outputs(out_dir).items()
        if not name.endswith((".npy", ".mirror.json"))
    }


def drop_mirror_records(out_dir: Path) -> None:
    """Delete every mirror record but compute's, which the later stages need."""
    for record in out_dir.rglob("*.mirror.json"):
        if record != out_dir / "compute.mirror.json":
            record.unlink()


def run_stages(cfg_path: Path, stages, capsys) -> list[tuple[int, str]]:
    """The exit code and stderr of each stage."""
    capsys.readouterr()
    runs = []
    for stage in stages:
        code = main([stage, "--config", str(cfg_path)])
        runs.append((code, capsys.readouterr().err))
    return runs


def assert_mirrors_hold_parsed_arrays(cfg: PipelineConfig) -> None:
    """Each mirror array has the dtype, shape and bytes that the text
    parsers return for the files it was made from: compute's node codes,
    levels, descriptors and descriptor x node pattern those of the parsed
    hierarchy, its aspect ranks `rank_by_aspect` of the parsed scores, and its
    sampled rows and flags those of the ingest incidence and the parsed
    articles at the ids of the window's members."""
    out, window = Path(cfg.output_dir), cfg.window()
    mirrored = {str(p.relative_to(out))[: -len(".npy")]: np.load(p) for p in out.rglob("*.npy")}
    with open(cfg.hierarchy) as fh:
        h, _ = parse_hierarchy(fh)
    with open(cfg.articles) as fh:
        articles = parse_articles(fh)
    with open(cfg.citations) as fh:
        edges = citegraph.parse_citations(fh)
    parsed = {
        f"ingest/{'graph' if name in GRAPH_ARRAYS else 'annotations'}.{name}": array
        for name, array in ingest_arrays(h, articles, edges).items()
    }
    values = np.zeros((len(window), len(ASPECTS), len(h.codes)))
    aspect_rank = np.zeros(values.shape, dtype=np.int32)
    for k, s in np.ndindex(values.shape[:2]):
        path = out / "scores" / f"{ASPECTS[s]}_{window[k]}.csv"
        values[k, s], scored = read_score_text(h, path, ASPECTS[s], window[k])
        aspect_rank[k, s] = fusion.rank_by_aspect(values[k, s], scored)
    members = [read_member_text(out / "members" / f"{m}.csv") for m in window]
    parsed["compute.codes"], parsed["compute.level"] = np.array(h.codes), h.level
    parsed["compute.values"], parsed["compute.aspect_rank"] = values, aspect_rank
    parsed["compute.ids"] = np.concatenate(members)
    parsed["compute.indptr"] = np.cumsum([0, *map(len, members)])
    parsed["compute.descriptors"] = np.array(h.descriptors)
    parsed["compute.descriptor_indptr"] = h.descriptor_nodes.indptr
    parsed["compute.descriptor_indices"] = h.descriptor_nodes.indices
    sampled = np.isin(articles.ids, parsed["compute.ids"])
    incidence, _ = h.incidence(articles.vocabulary, articles.annotations)
    parsed["compute.sampled_ids"] = articles.ids[sampled]
    parsed["compute.sampled_indptr"] = incidence[sampled].indptr
    parsed["compute.sampled_indices"] = incidence[sampled].indices
    parsed["compute.retracted"] = articles.retracted[sampled]
    assert mirrored.keys() == parsed.keys()
    for name, array in parsed.items():
        got = mirrored[name]
        assert (got.dtype, got.shape, got.tobytes()) == (array.dtype, array.shape, array.tobytes())


@pytest.fixture()
def mirror_loads(monkeypatch):
    """(mirror name, whether it was used) of every mirror.load call."""
    calls = []
    load = mirror.load

    def spy(stem, *args):
        arrays = load(stem, *args)
        calls.append((stem.name, arrays is not None))
        return arrays

    monkeypatch.setattr(mirror, "load", spy)
    return calls


def edit_line(path: Path, pick, change) -> None:
    """Replace the first line for which `pick` holds by `change(line)`."""
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if pick(line))
    lines[at] = change(lines[at])
    path.write_text("\n".join(lines) + "\n")


def article_edit(line: str) -> str:
    row = json.loads(line)
    row["mesh"] = ["D000001", "D000002"] if row.get("mesh") != ["D000001", "D000002"] else []
    return json.dumps(row)


class TestMirrors:
    def test_mirrors_hold_what_the_parsers_return(self, prepared):
        cfg_path, cfg = prepared
        for stage in ("ingest", "compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        out = Path(cfg.output_dir)
        records = ["ingest/annotations", "ingest/graph", "compute"]  # fuse writes no mirror
        assert all((out / f"{name}.mirror.json").exists() for name in records)
        assert_mirrors_hold_parsed_arrays(cfg)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mirrors_hold_what_the_parsers_return_by_seed(self, tmp_path, seed):
        cfg_path = make_config(tmp_path, base_seed=seed, last_month="2014-03", sample_fraction=0.5)
        generate_inputs(cfg_path, months=3, articles=300)
        for stage in ("ingest", "compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        assert_mirrors_hold_parsed_arrays(load_config(cfg_path))

    def test_ingest_records_hold_each_matrix_as_its_pattern(self, prepared, mirror_loads):
        cfg_path, cfg = prepared
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        out = Path(cfg.output_dir) / "ingest"
        patterns = {
            "annotations": {"ids", "month_idx", "retracted", "indptr", "indices", "unknown"},
            "graph": {"out_indptr", "out_targets", "dropped"},
        }
        for name, arrays in patterns.items():
            assert set(json.loads((out / f"{name}.mirror.json").read_text())["arrays"]) == arrays
        mirror_loads.clear()
        loaded = ingest(cfg, save=False)
        assert mirror_loads == [("annotations", True), ("graph", True)]

        with open(cfg.hierarchy) as fh:
            h, _ = parse_hierarchy(fh)
        with open(cfg.articles) as fh:
            articles = parse_articles(fh)
        with open(cfg.citations) as fh:
            graph = citegraph.build_graph(citegraph.parse_citations(fh), articles)
        incidence, unknown = h.incidence(articles.vocabulary, articles.annotations)
        assert loaded.unknown_descriptor_refs == unknown > 0
        for name in ("ids", "month_idx", "retracted"):
            got, want = getattr(loaded, name), getattr(articles, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        got = loaded.incidence
        assert (got.shape, got.dtype, incidence.dtype) == (incidence.shape, np.int32, np.int32)
        assert (got.data == 1).all() and (incidence.data == 1).all()
        for name in ("indptr", "indices"):
            a, b = getattr(got, name), getattr(incidence, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        got = loaded.graph
        assert np.array_equal(got.node_ids, graph.node_ids)
        assert (got.matrix.shape, got.matrix.dtype) == (graph.matrix.shape, bool)
        assert got.matrix.nnz == graph.matrix.nnz > 0 and got.matrix.data.all()
        for name in ("indptr", "indices"):
            a, b = getattr(got.matrix, name), getattr(graph.matrix, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        drops = attrgetter("self_loops_dropped", "unknown_dropped", "duplicates_dropped")
        assert drops(got) == drops(graph)

    def test_changes_edit_keeps_the_annotation_mirror(self, prepared, capsys, mirror_loads):
        # No annotation array depends on the change records, which every
        # stage that reads them parses again: compute, rerun, keeps using the
        # annotations mirror, and evaluate its record.
        cfg_path, cfg = prepared
        out, stages = Path(cfg.output_dir), ["compute", "evaluate"]
        assert run_stages(cfg_path, ["ingest", *stages], capsys) == [(0, "")] * 3
        before = results(out)
        edit_line(Path(cfg.changes), lambda line: True, lambda line: f"# {line}")
        mirror_loads.clear()
        edited = run_stages(cfg_path, stages, capsys), results(out)
        assert mirror_loads == [("annotations", True), ("graph", True), ("compute", True)]
        assert edited[0] == [(0, "")] * 2 and edited[1] != before
        drop_mirror_records(out)
        assert (run_stages(cfg_path, stages, capsys), results(out)) == edited

    def test_score_mirror_keeps_the_bits_the_reader_gives(self, prepared, monkeypatch):
        cfg_path, cfg = prepared
        compute_month = pipeline.compute_month

        def odd_values(cfg, data, month, index):
            result = compute_month(cfg, data, month, index)
            values, scored = result.values[0], result.scored[0]
            values[np.flatnonzero(scored)[:3]] = [-0.0, -np.nan, -np.inf]
            values[~scored] = 7.0  # not written, so the reader gives 0
            return result

        monkeypatch.setattr(pipeline, "compute_month", odd_values)
        assert main(["compute", "--config", str(cfg_path)]) == 0
        monkeypatch.undo()
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        # "-0" reads back as -0.0 and "nan" as float("nan"), whose sign is +
        values = np.load(Path(cfg.output_dir) / "compute.values.npy")[:, 0]
        assert (np.signbit(values) & (values == 0)).any() and not (values == 7.0).any()
        assert np.isnan(values).any() and not np.signbit(values[np.isnan(values)]).any()
        # each month's ranks run down its values, -0.0 tied with 0.0 by
        # position, then -inf, then NaN last
        ranks = np.load(Path(cfg.output_dir) / "compute.aspect_rank.npy")[:, 0]
        for month_values, rank in zip(values, ranks):
            ranked = np.flatnonzero(rank)
            order = ranked[np.argsort(rank[ranked])]
            nan = np.isnan(month_values[order])
            assert nan[-1] and np.array_equal(nan, np.sort(nan))
            ordered = month_values[order[~nan]]
            assert ordered[-1] == -np.inf and (ordered[:-1] >= ordered[1:]).all()
            ties = order[~nan][ordered == 0]
            assert (np.diff(ties) > 0).all()
            assert np.signbit(month_values[ties]).any()
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert_mirrors_hold_parsed_arrays(cfg)

    @pytest.mark.parametrize("edit", ["article", "article-broken"])
    def test_edit_after_its_stage_gives_a_fresh_parse(self, prepared, capsys, mirror_loads, edit):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        assert run_stages(cfg_path, ["ingest"], capsys) == [(0, "")]
        before = results(out)
        path = Path(cfg.articles)
        change = (lambda line: line[:-1]) if edit.endswith("broken") else article_edit
        edit_line(path, lambda line: '"2014-03"' in line, change)
        mirror_loads.clear()
        stale = run_stages(cfg_path, CHAIN[1:], capsys), results(out)
        assert ("annotations", False) in mirror_loads and ("annotations", True) not in mirror_loads
        drop_mirror_records(out)
        fresh = run_stages(cfg_path, CHAIN[1:], capsys), results(out)
        assert stale == fresh
        if edit.endswith("broken"):
            assert any(code == 1 and err.startswith(f"error: {path}: line ") for code, err in stale[0])
        else:
            assert stale[0] == [(0, "")] * (len(CHAIN) - 1) and stale[1] != before

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_score_csv_edit_changes_no_later_output(self, prepared, capsys, value):
        """The later stages read compute's arrays, not its score text."""
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        path = out / "scores" / "influence_2014-02.csv"
        edit_line(path, lambda line: line.startswith("A,1,influence,"),
                  lambda line: line.rsplit(",", 1)[0] + f",{value}")
        edited = results(out)
        assert run_stages(cfg_path, CHAIN[2:], capsys) == [(0, "")] * (len(CHAIN) - 2)
        drop_mirror_records(out)
        assert run_stages(cfg_path, CHAIN[2:], capsys) == [(0, "")] * (len(CHAIN) - 2)
        assert results(out) == edited

    @pytest.mark.parametrize(
        "damage",
        ["ingest/annotations.ids.npy", "ingest/graph.out_targets.npy", "compute.values.npy",
         "compute.level.npy", "compute.ids.npy", "compute.sampled_indices.npy",
         "ingest/annotations.mirror.json",
         "ingest/graph.mirror.json", "compute.mirror.json", "hierarchy-swapped",
         "window-changed", "code-changed", "rrf_k-changed"],
    )
    def test_damaged_mirror_is_not_used(self, prepared, capsys, monkeypatch, mirror_loads, damage):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        name = Path(damage).name.split(".")[0]
        producer = {"annotations": "ingest", "graph": "ingest",
                    "rrf_k-changed": "fuse"}.get(name, "compute")
        done = CHAIN.index(producer) + 1
        with monkeypatch.context() as m:
            if damage == "code-changed":  # ingest and compute write records of other code
                m.setattr(mirror, "code_digest", lambda: "0" * 64)
                name = "compute"
            assert run_stages(cfg_path, CHAIN[:done], capsys) == [(0, "")] * done
        if damage == "hierarchy-swapped":
            with open(cfg.hierarchy, "a") as fh:
                fh.write("Z99\t\tnode Z99\n")
            name = "compute"
        elif damage == "window-changed":
            set_line(cfg_path, 'last_month = "2014-05"')
            name = "compute"
        elif damage == "rrf_k-changed":
            set_line(cfg_path, "rrf_k = 30")
        elif damage.endswith(".npy"):
            data = bytearray((out / damage).read_bytes())
            data[-1] ^= 1
            (out / damage).write_bytes(bytes(data))
        elif damage != "code-changed":
            (out / damage).unlink()
        mirror_loads.clear()
        damaged = run_stages(cfg_path, CHAIN[done:], capsys), results(out)
        if damage == "rrf_k-changed":  # the scores do not depend on rrf_k
            assert ("compute", True) in mirror_loads and ("compute", False) not in mirror_loads
        else:
            assert (name, True) not in mirror_loads and (name, False) in mirror_loads
        if name == "compute":  # compute's record is the later stages' one way to its outputs
            assert damaged[0] == [(1, compute_record_error(cfg))] * (len(CHAIN) - done)
            assert run_stages(cfg_path, ["compute"], capsys) == [(0, "")]
            damaged = run_stages(cfg_path, CHAIN[done:], capsys), results(out)
        assert damaged[0] == [(0, "")] * (len(CHAIN) - done)
        drop_mirror_records(out)
        assert (run_stages(cfg_path, CHAIN[done:], capsys), results(out)) == damaged

    def test_later_stages_do_not_read_the_rankings(self, prepared, capsys, mirror_loads):
        cfg_path, cfg = prepared
        out, later = Path(cfg.output_dir), CHAIN[CHAIN.index("fuse") + 1:]
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        path = out / "rankings.csv"
        before = results(out)
        del before["rankings.csv"]
        edit_line(path, lambda line: line.startswith("2014-01,global,"), lambda line: "x")
        for change in ("edited", "deleted"):
            if change == "deleted":
                path.unlink()
            mirror_loads.clear()
            assert run_stages(cfg_path, later, capsys) == [(0, "")] * len(later), change
            assert ("compute", True) in mirror_loads, change
            assert ("compute", False) not in mirror_loads, change
            after = results(out)
            after.pop("rankings.csv", None)
            assert after == before, change

    def test_rank_stages_load_only_the_compute_mirror(self, prepared, capsys, mirror_loads):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        before = results(out)
        for stage in ("trend", "evaluate", "export-plots"):
            mirror_loads.clear()
            assert run_stages(cfg_path, [stage], capsys) == [(0, "")]
            assert mirror_loads == [("compute", True)], stage
        assert results(out) == before

    def test_evaluate_parses_only_the_changes(self, prepared, capsys, monkeypatch, mirror_loads):
        # evaluate takes the descriptors, their nodes and the sampled
        # articles' rows and flags from compute's record, so it needs no
        # ingest output and parses neither the hierarchy nor the articles.
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        before = results(out)
        shutil.rmtree(out / "ingest")
        parsed = []
        parse = pipeline._parse
        monkeypatch.setattr(pipeline, "_parse",
                            lambda path, p: parsed.append(p.__name__) or parse(path, p))
        mirror_loads.clear()
        assert run_stages(cfg_path, ["evaluate"], capsys) == [(0, "")]
        assert (parsed, mirror_loads) == (["parse_changes"], [("compute", True)])
        assert results(out) == before

    def test_later_stages_fuse_at_their_own_rrf_k(self, prepared, capsys):
        cfg_path, cfg = prepared
        out, later = Path(cfg.output_dir), CHAIN[CHAIN.index("fuse") + 1:]
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        at_60 = results(out)
        set_line(cfg_path, "rrf_k = 30")
        stale = run_stages(cfg_path, later, capsys), results(out)
        fresh = run_stages(cfg_path, ["fuse", *later], capsys)[1:], results(out)
        assert stale[1].pop("rankings.csv") == at_60["rankings.csv"] != fresh[1].pop("rankings.csv")
        assert stale == fresh
        for name in ("trends.csv", "tables.csv", "evolution_tests.json", "plots/rank_level-1.svg"):
            assert stale[1][name] != at_60[name], name

    def test_rank_stages_follow_a_compute_rerun_without_fuse(self, prepared, capsys):
        # trend and export-plots fuse compute's arrays themselves, so new
        # scores from edited inputs reach them before fuse runs again.
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        before = results(out)
        path = Path(cfg.articles)
        lines = path.read_text().splitlines()
        lines[::3] = [json.dumps({**json.loads(line), "mesh": []}) for line in lines[::3]]
        path.write_text("\n".join(lines) + "\n")
        stages = ["ingest", "compute", "trend", "export-plots"]
        assert run_stages(cfg_path, stages, capsys) == [(0, "")] * len(stages)
        stale = results(out)
        assert run_stages(cfg_path, ["fuse", "trend", "export-plots"], capsys) == [(0, "")] * 3
        fresh = results(out)
        assert stale.pop("rankings.csv") == before["rankings.csv"] != fresh.pop("rankings.csv")
        assert stale == fresh and stale["tables.csv"] != before["tables.csv"]

    def test_later_stages_read_no_score_member_or_rankings_text(self, prepared, capsys):
        cfg_path, cfg = prepared
        out, later = Path(cfg.output_dir), CHAIN[CHAIN.index("fuse"):]
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        before = results(out)
        shutil.rmtree(out / "scores")
        shutil.rmtree(out / "members")
        (out / "rankings.csv").unlink()
        drop_mirror_records(out)  # no later stage reads an ingest record
        assert run_stages(cfg_path, later, capsys) == [(0, "")] * len(later)
        assert results(out) == {name: data for name, data in before.items()
                                if not name.startswith(("scores/", "members/"))}

    def test_copied_tree_uses_every_mirror(self, prepared, capsys, monkeypatch, mirror_loads):
        # Records name their sources by role, so a tree moved with its config
        # needs no parse but the hierarchy's and the changes'.
        cfg_path, cfg = prepared
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        root, copy = cfg_path.parent, cfg_path.parent / "copy"
        for name in ("data", "out"):
            shutil.copytree(root / name, copy / name)
        copy_cfg = make_config(copy)
        hashes = cfg.config_hash().encode(), load_config(copy_cfg).config_hash().encode()
        parsed = []
        parse = pipeline._parse
        monkeypatch.setattr(pipeline, "_parse",
                            lambda path, p: parsed.append(p.__name__) or parse(path, p))
        mirror_loads.clear()
        assert run_stages(copy_cfg, CHAIN[1:], capsys) == [(0, "")] * (len(CHAIN) - 1)
        assert {name for name, _ in mirror_loads} == {"annotations", "graph", "compute"}
        assert all(used for _, used in mirror_loads)
        assert set(parsed) == {"parse_hierarchy", "parse_changes"}
        assert results(copy / "out") == {name: data.replace(*hashes)
                                         for name, data in results(root / "out").items()}

    def test_rank_stages_parse_nothing(self, prepared, capsys, monkeypatch):
        # fuse, trend and export-plots take the node codes and levels from
        # compute's record, not from the hierarchy text.
        cfg_path, cfg = prepared
        out, stages = Path(cfg.output_dir), ["fuse", "trend", "export-plots"]
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        before = results(out)
        for name in ("rankings.csv", "trends.csv", "tables.csv"):
            (out / name).unlink()
        shutil.rmtree(out / "plots")
        parsed = []
        parse = pipeline._parse
        monkeypatch.setattr(pipeline, "_parse",
                            lambda path, p: parsed.append(p.__name__) or parse(path, p))
        assert run_stages(cfg_path, stages, capsys) == [(0, "")] * len(stages)
        assert parsed == []
        assert results(out) == before

    def test_each_later_stage_hashes_the_compute_outputs_once(self, prepared, capsys,
                                                              monkeypatch):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        hierarchy = {cfg.hierarchy}
        inputs = {cfg.hierarchy, cfg.articles}  # evaluate parses the changes, unhashed
        passes = []
        digests = mirror.digests

        def spy(paths):
            passes.append({str(p) for p in paths.values()})
            return digests(paths)

        monkeypatch.setattr(mirror, "digests", spy)
        for mirrored in (True, False):  # the passes do not depend on the records
            if not mirrored:
                drop_mirror_records(out)
            for stage, want in [("fuse", [hierarchy]), ("trend", [hierarchy]),
                                ("evaluate", [inputs]), ("export-plots", [hierarchy])]:
                passes.clear()
                assert run_stages(cfg_path, [stage], capsys) == [(0, "")]
                assert passes == want, (stage, mirrored)

    def test_mirror_from_other_code_is_not_used(self, prepared, capsys, monkeypatch):
        # Code whose article parser took "false" for true left a mirror that
        # marks the first article retracted; today's parser rejects the row.
        cfg_path, cfg = prepared
        articles = Path(cfg.articles)
        edit_line(articles, lambda line: True,
                  lambda line: json.dumps({**json.loads(line), "retracted": "false"}))

        def lenient(fh):
            text = fh.read().replace('"retracted": "false"', '"retracted": true')
            return parse_articles(io.StringIO(text))

        with monkeypatch.context() as m:
            m.setattr(mirror, "code_digest", lambda: "0" * 64)
            m.setattr(pipeline, "parse_articles", lenient)
            assert run_stages(cfg_path, ["ingest"], capsys) == [(0, "")]
        error = f"error: {articles}: line 1: 'retracted' must be true or false\n"
        assert run_stages(cfg_path, ["compute"], capsys) == [(1, error)]

    def test_failed_rename_leaves_the_last_output_whole(self, prepared, capsys, monkeypatch):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        out = Path(cfg.output_dir)
        before = (out / "rankings.csv").read_bytes()
        set_line(cfg_path, "rrf_k = 30")  # which changes every rrf value

        def fail(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")

        monkeypatch.setattr(os, "replace", fail)
        capsys.readouterr()
        assert main(["fuse", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert (out / "rankings.csv").read_bytes() == before
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "stage, name",
        [
            ("generate", "citations"),  # the config's citations path
            ("ingest", "ingest/annotations.mirror.json"),  # mirror.save
            ("compute", "scores/influence_2014-01.csv"),  # scores.write_rows
            ("evaluate", "evolution_tests.json"),  # pipeline._write_json
            ("export-plots", "plots/rank_level-1.svg"),
        ],
    )
    def test_each_writer_renames_onto_its_output(self, prepared, capsys, monkeypatch,
                                                 stage, name):
        cfg_path, cfg = prepared
        for step in CHAIN:
            assert main([step, "--config", str(cfg_path)]) == 0
        path = Path(cfg.citations) if stage == "generate" else Path(cfg.output_dir) / name
        path.write_bytes(b"stale\n")  # no stage would write these bytes

        def fail(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")

        monkeypatch.setattr(os, "replace", fail)
        capsys.readouterr()
        argv = generate_argv(cfg_path) if stage == "generate" else [stage, "--config", str(cfg_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert path.read_bytes() == b"stale\n"
        assert not list(cfg_path.parent.rglob("*.tmp"))  # the inputs and the outputs

    def test_failed_write_deletes_its_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out" / "rankings.csv"
        path.parent.mkdir()
        path.write_bytes(b"old\n")
        real = Path.open

        def opened(self, *args, **kwargs):  # a file whose write stops part of the way in
            fh = real(self, *args, **kwargs)
            write = fh.write

            def half(data):
                write(data[: len(data) // 2])
                raise OSError("No space left on device")

            fh.write = half
            return fh

        monkeypatch.setattr(Path, "open", opened)
        with pytest.raises(OSError, match="No space left"):
            mirror.write_file(path, b"new ", b"contents\n")
        monkeypatch.undo()
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in path.parent.iterdir()] == ["rankings.csv"]

    def test_failed_ingest_leaves_output_dir_untouched(self, prepared, capsys):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        citations = Path(cfg.citations)
        intact = citations.read_text()
        citations.write_text(intact + "2\tnot-an-id\n")
        assert run_stages(cfg_path, ["ingest"], capsys)[0][0] == 1
        assert not out.exists()
        citations.write_text(intact)
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        written = read_all_outputs(out)
        edit_line(Path(cfg.articles), lambda line: True, lambda line: line[:-1])
        assert run_stages(cfg_path, ["ingest"], capsys)[0][0] == 1
        assert read_all_outputs(out) == written
