#!/usr/bin/env python3
"""Cohort-separation experiment over multiple generator seeds.

For each seed: synthesize a corpus with planted evolving descriptors and
annotation-biased retracted articles, run the full compute/fuse/evaluate
pipeline through the CLI, and report the Mann-Whitney p-values for the
fused relevance of both cohorts.

Usage:
  python scripts/cohort_experiment.py --seeds 10 --months 24 --articles-per-month 5000
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kosrank.cli import main as kosrank_main  # noqa: E402
from kosrank.config import PipelineConfig, write_config  # noqa: E402
from kosrank.months import month_from_index, month_index  # noqa: E402


def run_seed(seed: int, months: int, articles_per_month: int, workdir: Path) -> dict:
    data = workdir / "data"
    data.mkdir(parents=True, exist_ok=True)
    first = "2014-01"
    last = month_from_index(month_index(first) + months - 1)
    cfg = PipelineConfig(
        hierarchy=str(data / "hierarchy.tsv"),
        articles=str(data / "articles.jsonl"),
        citations=str(data / "citations.tsv"),
        changes=str(data / "changes.tsv"),
        first_month=first,
        last_month=last,
        sample_fraction=0.10,
        base_seed=seed,
        output_dir=str(workdir / "out"),
    )
    cfg_path = workdir / "pipeline.cfg"
    write_config(cfg, cfg_path)

    for argv in (
        [
            "generate", "--config", str(cfg_path),
            "--months", str(months),
            "--articles-per-month", str(articles_per_month),
        ],
        ["compute", "--config", str(cfg_path), "--threads", "4"],
        ["fuse", "--config", str(cfg_path)],
        ["evaluate", "--config", str(cfg_path)],
    ):
        code = kosrank_main(argv)
        if code != 0:
            raise SystemExit(f"step {argv[0]} failed for seed {seed}")

    evolution = json.loads((workdir / "out" / "evolution_tests.json").read_text(encoding="utf-8"))
    retraction = json.loads((workdir / "out" / "retraction_tests.json").read_text(encoding="utf-8"))
    ev = [r for r in evolution["results"] if r["aspect"] == "relevance" and r["status"] == "ok"]
    ret = [r for r in retraction["results"] if r["aspect"] == "relevance" and r["status"] == "ok"]
    return {
        "seed": seed,
        "evolution_p": min((r["p"] for r in ev), default=None),
        "retraction_p": min((r["p"] for r in ret), default=None),
        "mean_evolving": ev[0]["mean_evolving"] if ev else None,
        "mean_stable": ev[0]["mean_stable"] if ev else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--months", type=int, default=24)
    parser.add_argument("--articles-per-month", type=int, default=5000)
    args = parser.parse_args()

    rows = []
    for seed in range(args.seeds):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=f"cohort_seed{seed}_") as tmp:
            row = run_seed(seed, args.months, args.articles_per_month, Path(tmp))
        row["seconds"] = round(time.perf_counter() - start, 1)
        rows.append(row)
        print(
            f"seed {seed}: evolution p={row['evolution_p']!r} "
            f"retraction p={row['retraction_p']!r} ({row['seconds']}s)"
        )

    significant_ev = sum(1 for r in rows if r["evolution_p"] is not None and r["evolution_p"] < 0.05)
    significant_ret = sum(1 for r in rows if r["retraction_p"] is not None and r["retraction_p"] < 0.05)
    print(f"\nevolution significant in {significant_ev}/{len(rows)} seeds")
    print(f"retraction significant in {significant_ret}/{len(rows)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
