"""Experiment configuration and result persistence.

Configs are flat ``key = value`` text with sections (INI syntax).  Parsing
and serialization are canonical: sections and keys are emitted sorted, so
``serialize(parse(text))`` is idempotent and its SHA-256 identifies the run.

Result bundles collect CSV tables, optional binary snapshots and a JSON
summary; every emitted file is referenced from the summary manifest.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import ConfigError
from .exponents import Exponent, ScheduleKind, ScheduleParams
from .potentials import (
    PatchedRescaledPotential,
    PotentialSpec,
    PseudoconformalPotential,
    StaticPotential,
    SumPotential,
    ZeroPotential,
    make_schedule,
)
from .snapshot import read_snapshot, write_snapshot
from .spectral import ComplexField


class ExperimentConfig:
    """Parsed sectioned key-value configuration with typed accessors."""

    def __init__(self, sections: Optional[Dict[str, Dict[str, str]]] = None):
        self.sections: Dict[str, Dict[str, str]] = sections or {}

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None, strict=True)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        sections = {
            name: {k: v for k, v in parser.items(name)} for name in parser.sections()
        }
        return cls(sections)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.parse(text)

    def serialize(self) -> str:
        out = io.StringIO()
        for name in sorted(self.sections):
            out.write(f"[{name}]\n")
            for key in sorted(self.sections[name]):
                out.write(f"{key} = {self.sections[name][key]}\n")
            out.write("\n")
        return out.getvalue()

    def config_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    # -- typed accessors ----------------------------------------------------

    def _raw(self, section: str, key: str, default=None, required=False) -> Optional[str]:
        val = self.sections.get(section, {}).get(key)
        if val is None:
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        return val

    def get_str(self, section, key, default=None, required=False):
        return self._raw(section, key, default, required)

    def _typed(self, section, key, default, required, convert, what):
        raw = self._raw(section, key, None, required)
        if raw is None:
            return default
        try:
            return convert(raw)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from exc

    def get_int(self, section, key, default=None, required=False):
        return self._typed(section, key, default, required, int, "an integer")

    def get_float(self, section, key, default=None, required=False):
        return self._typed(section, key, default, required, float, "a number")

    def get_exponent(self, section, key, default=None, required=False):
        return self._typed(section, key, default, required, Exponent, "an exponent")

    def get_fraction(self, section, key, default=None, required=False):
        return self._typed(section, key, default, required, Fraction, "a rational")


def parse_pairs(text: str) -> List[Tuple[Exponent, Exponent]]:
    """Parse 'p,q;p,q;...' pair lists such as '2,6;8/3,4;inf,2'."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad pair {chunk!r}: expected 'p,q'")
        try:
            pairs.append((Exponent(parts[0].strip()), Exponent(parts[1].strip())))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad pair {chunk!r}: {exc}") from exc
    if not pairs:
        raise ConfigError("empty pair list")
    return pairs


# ---------------------------------------------------------------------------
# Potential spec <-> config


def potential_to_config(V: PotentialSpec, profile_path: Optional[str] = None,
                        section: str = "potential") -> Dict[str, Dict[str, str]]:
    """Config sections describing a potential; profiles are referenced by
    snapshot path (the caller is responsible for writing them)."""
    return V.config_sections(section, profile_path)


def potential_from_config(
    cfg: ExperimentConfig,
    section: str = "potential",
    base_dir: Union[str, Path] = ".",
) -> PotentialSpec:
    """Rebuild a potential spec from config sections, loading profile
    snapshots relative to ``base_dir``."""
    kind = cfg.get_str(section, "kind", required=True)
    if kind == "zero":
        return ZeroPotential()

    def load_profile() -> ComplexField:
        rel = cfg.get_str(section, "profile", required=True)
        return read_snapshot(Path(base_dir) / rel)

    if kind == "static":
        return StaticPotential(load_profile())
    if kind == "pseudoconformal":
        return PseudoconformalPotential(load_profile())
    if kind == "patched":
        profile = load_profile()
        sched_kind = ScheduleKind(cfg.get_str(section, "schedule", required=True))
        alpha = cfg.get_fraction(section, "alpha", required=True)
        beta = cfg.get_fraction(section, "beta", required=True)
        K = cfg.get_int(section, "k", required=True)
        r = cfg.get_exponent(section, "r", required=True)
        s = cfg.get_exponent(section, "s", required=True)
        params = ScheduleParams(alpha=alpha, beta=beta, kind=sched_kind)
        schedule = make_schedule(sched_kind, params, r, s, profile.grid.n, K)
        return PatchedRescaledPotential(profile, schedule)
    if kind == "sum":
        nterms = cfg.get_int(section, "terms", required=True)
        terms = []
        for i in range(1, nterms + 1):
            sub = f"{section}.term{i}"
            term = potential_from_config(cfg, section=sub, base_dir=base_dir)
            r_j = cfg.get_exponent(sub, "r", required=True)
            s_j = cfg.get_exponent(sub, "s", required=True)
            terms.append((term, r_j, s_j))
        return SumPotential(terms=tuple(terms))
    raise ConfigError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# Result bundles


@dataclass
class ResultBundle:
    """Collects run outputs; every file lands in the JSON summary manifest."""

    out_dir: Path
    command: str
    config_hash: Optional[str] = None
    files: List[str] = field(default_factory=list)
    summary: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def write_csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
        path = self.out_dir / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(c) for c in row])
        self.files.append(name)
        return path

    def write_snapshot(self, name: str, fieldval: ComplexField) -> Path:
        path = self.out_dir / name
        write_snapshot(fieldval, path)
        self.files.append(name)
        return path

    def finalize(self, name: str = "summary.json") -> Path:
        payload = {
            "command": self.command,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config_hash": self.config_hash,
            "files": sorted(self.files),
            **self.summary,
        }
        path = self.out_dir / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
