"""Command-line entry point.

Subcommands: ingest, generate, compute, fuse, trend, evaluate, export-plots.
All take --config pointing at a flat key = value file and --seed, which
overrides base_seed; compute also takes --threads, its parallel months.
"""
from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from . import fusion, mirror, pipeline, synthgen
from .citegraph import write_citations
from .config import ConfigError, PipelineConfig, load_config
from .corpus import write_articles
from .hierarchy import write_hierarchy
from .plots import rank_chart_svg
from .synthgen import ScenarioConfig, write_changes


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the pipeline config file")
    parser.add_argument("--seed", type=int, default=None, help="override base_seed")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kosrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("ingest", "parse all inputs and print a validation report"),
        ("compute", "per-month aspect scores for the configured window"),
        ("fuse", "fuse aspect rankings into relevance rankings"),
        ("trend", "yearly rank slopes and top/bottom tables"),
        ("evaluate", "cohort tests and aspect correlations"),
        ("export-plots", "SVG rank-trajectory charts"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "compute":
            p.add_argument(
                "--threads", type=positive_int, default=1, help="parallel months (default 1)"
            )

    g = sub.add_parser("generate", help="write a synthetic scenario to the config's input paths")
    _add_common(g)
    g.add_argument("--months", type=int, default=ScenarioConfig.months)
    g.add_argument("--articles-per-month", type=int, default=ScenarioConfig.articles_per_month)
    g.add_argument("--evolving-fraction", type=float, default=ScenarioConfig.evolving_fraction)
    g.add_argument("--retraction-rate", type=float, default=ScenarioConfig.retraction_rate)
    g.add_argument("--refs-mean", type=float, default=ScenarioConfig.refs_mean)
    return parser


def _cmd_ingest(cfg: PipelineConfig) -> int:
    data = pipeline.ingest(cfg)
    for line in data.report_lines():
        print(line)
    return 0


def _cmd_generate(cfg: PipelineConfig, args) -> int:
    scenario = ScenarioConfig(
        seed=cfg.base_seed,
        months=args.months,
        articles_per_month=args.articles_per_month,
        first_month=cfg.first_month or ScenarioConfig.first_month,
        evolving_fraction=args.evolving_fraction,
        retraction_rate=args.retraction_rate,
        refs_mean=args.refs_mean,
    )
    for key in ("hierarchy", "articles", "citations"):
        if not getattr(cfg, key):
            raise pipeline.PipelineError(f"config does not set the {key} path")
    hierarchy, store, (citing, cited), changes = synthgen.generate(scenario)

    def write(path, writer, *data):
        text = io.StringIO()
        writer(*data, text)
        mirror.write_file(Path(path), text.getvalue().encode())

    write(cfg.hierarchy, write_hierarchy, hierarchy)
    write(cfg.articles, write_articles, store)
    write(cfg.citations, write_citations, citing, cited)
    if cfg.changes:
        write(cfg.changes, write_changes, changes)
    print(
        f"generated {len(store)} articles, {len(citing)} edges, "
        f"{len(hierarchy.codes)} hierarchy nodes, {len(changes)} change records"
    )
    return 0


def _cmd_export_plots(cfg: PipelineConfig) -> int:
    h, _ = pipeline._read_hierarchy(cfg)
    means = pipeline.scope_mean_ranks(cfg, h)
    out = Path(cfg.output_dir) / "plots"
    out.mkdir(parents=True, exist_ok=True)
    for scope, (years, yearly, window_means) in means.items():
        nodes = fusion.top_k(window_means, pipeline.TOP_K).tolist()
        svg = rank_chart_svg(
            f"top {len(nodes)} concepts, {scope}",
            [str(y) for y in years],
            # a mean of 0: no month of that year ranks the node, so no point
            {h.codes[i]: [r or None for r in yearly[:, i].tolist()] for i in nodes},
            config_hash=cfg.config_hash(),
        )
        mirror.write_file(out / f"rank_{scope}.svg", svg.encode())
    print(f"wrote {len(means)} plots to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, base_seed=args.seed)
        if args.command == "ingest":
            return _cmd_ingest(cfg)
        if args.command == "generate":
            return _cmd_generate(cfg, args)
        if args.command == "compute":
            written = pipeline.compute(cfg, threads=args.threads)
            print(f"wrote {len(written)} files to {cfg.output_dir}")
            return 0
        if args.command == "fuse":
            path = pipeline.fuse(cfg)
            print(f"wrote {path}")
            return 0
        if args.command == "trend":
            trends, tables = pipeline.trend(cfg)
            print(f"wrote {trends} and {tables}")
            return 0
        if args.command == "evaluate":
            for path in pipeline.run_evaluate(cfg):
                print(f"wrote {path}")
            return 0
        if args.command == "export-plots":
            return _cmd_export_plots(cfg)
    except (ConfigError, pipeline.PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
