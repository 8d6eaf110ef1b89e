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

from . import mirror, pipeline, synthgen
from .citegraph import write_citations
from .config import ConfigError, PipelineConfig, load_config
from .corpus import write_articles
from .evaluate import write_changes
from .hierarchy import write_hierarchy
from .synthgen import ScenarioConfig


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_generate(cfg: PipelineConfig, args) -> list[str]:
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
    hierarchy, articles, (citing, cited), changes = synthgen.generate_columns(scenario)

    def write(path, writer, *data):
        text = io.StringIO()
        writer(*data, text)
        mirror.write_file(Path(path), text.getvalue().encode())

    write(cfg.hierarchy, write_hierarchy, hierarchy)
    write(cfg.articles, write_articles, articles)
    write(cfg.citations, write_citations, citing, cited)
    if cfg.changes:
        write(cfg.changes, write_changes, changes)
    return [
        f"generated {len(articles.ids)} articles, {len(citing)} edges, "
        f"{len(hierarchy.codes)} hierarchy nodes, {len(changes)} change records"
    ]


# Command -> (help text, runner(cfg, args) -> the lines to print), in the
# order --help lists them.  The runners look each stage up on `pipeline` when
# they run, so a wrapper set on the module attribute sees the call.
STAGES = {
    "ingest": ("parse all inputs and print a validation report",
               lambda cfg, args: pipeline.ingest(cfg).report_lines()),
    "compute": ("per-month aspect scores for the configured window",
                lambda cfg, args: [f"wrote {len(pipeline.compute(cfg, threads=args.threads))} "
                                   f"files to {cfg.output_dir}"]),
    "fuse": ("fuse aspect rankings into relevance rankings",
             lambda cfg, args: [f"wrote {pipeline.fuse(cfg)}"]),
    "trend": ("yearly rank slopes and top/bottom tables",
              lambda cfg, args: ["wrote {} and {}".format(*pipeline.trend(cfg))]),
    "evaluate": ("cohort tests and aspect correlations",
                 lambda cfg, args: [f"wrote {path}" for path in pipeline.run_evaluate(cfg)]),
    "export-plots": ("SVG rank-trajectory charts",
                     lambda cfg, args: ["wrote {} plots to {}".format(*pipeline.export_plots(cfg))]),
    "generate": ("write a synthetic scenario to the config's input paths", _cmd_generate),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kosrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the pipeline config file")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
    sub.choices["compute"].add_argument(
        "--threads", type=positive_int, default=1, help="parallel months (default 1)"
    )
    g = sub.choices["generate"]
    g.add_argument("--months", type=int, default=ScenarioConfig.months)
    g.add_argument("--articles-per-month", type=int, default=ScenarioConfig.articles_per_month)
    g.add_argument("--evolving-fraction", type=float, default=ScenarioConfig.evolving_fraction)
    g.add_argument("--retraction-rate", type=float, default=ScenarioConfig.retraction_rate)
    g.add_argument("--refs-mean", type=float, default=ScenarioConfig.refs_mean)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, base_seed=args.seed)
        for line in STAGES[args.command][1](cfg, args):
            print(line)
    except (ConfigError, pipeline.PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
