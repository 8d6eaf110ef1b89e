"""Pipeline configuration: a flat TOML-like key = value file.

Values are quoted strings, ASCII decimal ints and floats, or true/false.
Unknown or repeated keys are rejected so typos fail loudly.  The config hash
(sha256 of the canonical key=value rendering) is stamped in every output file.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TextIO

from . import mirror
from .infometrics import INFORMATIVENESS_MODES
from .months import month_range, normalize_month


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    hierarchy: str = ""
    articles: str = ""
    citations: str = ""
    changes: str = ""
    first_month: str = ""
    last_month: str = ""
    sample_fraction: float = 0.10
    base_seed: int = 42
    pagerank_alpha: float = 0.85
    pagerank_tol: float = 1e-9
    pagerank_max_iter: int = 200
    rrf_k: int = 60
    informativeness_mode: str = "entropy-term"
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for f in fields(self):
            # an int passes for a float field; a bool never passes for a number
            accepted = {"str": str, "int": int, "float": (int, float)}[f.type]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"{f.name} must be a {f.type}, got {value!r}")
            # a line break would split the line that `write_config` writes
            if isinstance(value, str) and "".join(value.splitlines()) != value:
                raise ConfigError(f"{f.name} must be one line, got {value!r}")
        if self.first_month:
            self.first_month = normalize_month(self.first_month)
        if self.last_month:
            self.last_month = normalize_month(self.last_month)
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        if not 0.0 < self.pagerank_alpha < 1.0:
            raise ConfigError(f"pagerank_alpha must be in (0, 1), got {self.pagerank_alpha}")
        if self.pagerank_max_iter < 1:
            raise ConfigError(f"pagerank_max_iter must be at least 1, got {self.pagerank_max_iter}")
        if not 0.0 < self.pagerank_tol < math.inf:
            raise ConfigError(f"pagerank_tol must be positive and finite, got {self.pagerank_tol}")
        if not 0 < self.rrf_k <= 2**53:  # so k + rank, in int64, cannot wrap
            raise ConfigError(f"rrf_k must be positive and at most 2**53, got {self.rrf_k}")
        if self.informativeness_mode not in INFORMATIVENESS_MODES:
            raise ConfigError(f"unknown informativeness_mode {self.informativeness_mode!r}")

    def window(self) -> list[str]:
        if not self.first_month or not self.last_month:
            raise ConfigError("config must set first_month and last_month")
        return month_range(self.first_month, self.last_month)

    def canonical(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name}={value!r}")
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    # an optional sign, ASCII digits, and for a float a fraction or an exponent:
    # int() and float() alone also read "٤٢", "０.５", "6_0" and "inf"
    if not re.fullmatch(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?", text):
        raise ConfigError(f"line {lineno}: cannot parse value {text!r}")
    return float(text) if any(c in ".eE" for c in text) else int(text)


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    """Read a config file and apply keyword overrides (e.g. base_seed)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = mirror.parse_utf8(path, _read_values)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _read_values(fh: TextIO) -> dict[str, object]:
    """key -> value of each `key = value` line of the open config file `fh`."""
    known = {f.name for f in fields(PipelineConfig)}
    values, line_of = {}, {}  # key -> its value, and the line that set it
    # only "\n" ends a line, as the file counts them: str.splitlines also breaks at "\f"
    for lineno, raw in enumerate(fh.read().split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if line_of.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} is set again, first on line {line_of[key]}")
        values[key] = _parse_value(rest, lineno)
    return values


def write_config(cfg: PipelineConfig, path: str | Path) -> None:
    out = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, str):
            out.append(f'{f.name} = "{value}"')
        else:
            out.append(f"{f.name} = {value}")
    mirror.write_file(Path(path), ("\n".join(out) + "\n").encode())
