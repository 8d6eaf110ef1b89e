"""Pipeline configuration: a flat TOML-like key = value file.

Values are quoted strings, integers, floats, or true/false.  Unknown keys
are rejected so typos fail loudly.  The config hash (sha256 over the
canonical key=value rendering) is stamped into every output file.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

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
        if self.first_month:
            self.first_month = normalize_month(self.first_month)
        if self.last_month:
            self.last_month = normalize_month(self.last_month)
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        if not 0.0 < self.pagerank_alpha < 1.0:
            raise ConfigError(f"pagerank_alpha must be in (0, 1), got {self.pagerank_alpha}")
        if self.rrf_k <= 0:
            raise ConfigError(f"rrf_k must be positive, got {self.rrf_k}")
        if self.informativeness_mode not in ("entropy-term", "surprisal"):
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
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {text!r}") from None


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    """Read a config file and apply keyword overrides (e.g. base_seed)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    known = {f.name: f.type for f in fields(PipelineConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _parse_value(rest, lineno)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def write_config(cfg: PipelineConfig, path: str | Path) -> None:
    out = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, str):
            out.append(f'{f.name} = "{value}"')
        elif isinstance(value, bool):
            out.append(f"{f.name} = {'true' if value else 'false'}")
        else:
            out.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(out) + "\n")
