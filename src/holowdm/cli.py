"""Command-line front end: parse a JSON config, run experiments, emit CSV."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ExperimentConfig,
    Table,
    default_config,
    run_capacity,
    run_dof,
    run_eigen_spectrum,
    run_psf_profile,
)
from .scattering import Cluster, ScatteringSpec
from .wavenumber import PhysicalConfig

__all__ = ["parse_config", "emit_csv", "main"]

_PHYSICAL_KEYS = ("lambda_m", "L_s_over_lambda", "L_r_over_lambda", "d_m")
_KEYS = _PHYSICAL_KEYS + (
    "epsilon", "noise_var_dbw", "power_grid_dbw", "realizations", "seed", "models", "clusters",
)

_CLUSTER_KEYS = {"mean_deg", "circ_var", "weight"}

_EXPERIMENTS = (
    ("psf", run_psf_profile, "angular power density table"),
    ("eigs", run_eigen_spectrum, "receive-correlation eigenvalue table"),
    ("dof", run_dof, "degrees-of-freedom table"),
    ("capacity", run_capacity, "ergodic capacity table"),
)


def _number(key: str, value) -> float:
    # JSON true and false arrive as bools, which float() would take as 1 and 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _positive(key: str, value) -> float:
    v = _number(key, value)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{key} must be positive and finite, got {value!r}")
    return v


def _parse_clusters(raw) -> ScatteringSpec:
    if not isinstance(raw, list) or not raw:
        raise ValueError("clusters must be a non-empty list")
    clusters = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"clusters[{i}] must be an object")
        unknown = set(entry) - _CLUSTER_KEYS
        if unknown:
            raise ValueError(f"clusters[{i}]: unknown key {sorted(unknown)[0]!r}")
        missing = _CLUSTER_KEYS - set(entry)
        if missing:
            raise ValueError(f"clusters[{i}]: missing key {sorted(missing)[0]!r}")
        mean_deg = _number(f"clusters[{i}].mean_deg", entry["mean_deg"])
        if not (0.0 <= mean_deg < 180.0):
            raise ValueError(f"clusters[{i}].mean_deg must lie in [0, 180), got {mean_deg}")
        circ_var = _number(f"clusters[{i}].circ_var", entry["circ_var"])
        if not (0.0 < circ_var <= 1.0):
            raise ValueError(f"clusters[{i}].circ_var must lie in (0, 1], got {circ_var}")
        weight = _positive(f"clusters[{i}].weight", entry["weight"])
        try:
            clusters.append(Cluster(weight, math.radians(mean_deg), circ_var))
        except ValueError as exc:
            # the concentration solve is the one cluster rule left unchecked above
            raise ValueError(f"clusters[{i}].circ_var: {exc}") from None
    try:
        return ScatteringSpec.mixture(clusters)
    except ValueError as exc:
        # the weights are the one mixture rule left unchecked above
        raise ValueError(f"clusters.weight: {exc}") from None


def _physical(raw: dict, default: PhysicalConfig) -> PhysicalConfig:
    """The geometry from the keys in wavelengths, each omitted one at its default.

    lambda_m and d_m are checked, then unread: every statistic of the study
    depends on the apertures through L / lambda alone.  A side whose
    2 L / lambda is past the range of a double, or too short to carry a mode,
    raises here, naming the key, before any experiment runs.
    """
    if "lambda_m" in raw:
        _positive("lambda_m", raw["lambda_m"])
    if "d_m" in raw:
        d = _number("d_m", raw["d_m"])
        if not (math.isfinite(d) and d >= 0.0):
            raise ValueError(f"d_m must be non-negative and finite, got {d}")
    phys = PhysicalConfig(
        _positive("L_s_over_lambda", raw.get("L_s_over_lambda", default.L_s_over_lambda)),
        _positive("L_r_over_lambda", raw.get("L_r_over_lambda", default.L_r_over_lambda)),
    )
    for key, side in (("L_s_over_lambda", "source"), ("L_r_over_lambda", "receiver")):
        try:
            phys.mode_count(side)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return phys


def _unique_keys(pairs):
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is given twice")
    return dict(pairs)


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from JSON text; omitted keys take defaults.

    An empty document yields the full default configuration.  Unknown keys and
    out-of-range values raise ValueError naming the offending key; the ranges
    are checked by ExperimentConfig itself.
    """
    if text.strip():
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            # also a repeated key, an over-long integer or nesting too deep
            raise ValueError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
    else:
        raw = {}
    for key in raw:
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")

    cfg = default_config()
    changes = {}
    if any(key in raw for key in _PHYSICAL_KEYS):
        changes["physical"] = _physical(raw, cfg.physical)
    for key in ("epsilon", "noise_var_dbw"):
        if key in raw:
            changes[key] = _number(key, raw[key])
    if "power_grid_dbw" in raw:
        grid = raw["power_grid_dbw"]
        if not isinstance(grid, list):
            raise ValueError("power_grid_dbw must be a list")
        changes["power_grid_dbw"] = tuple(
            _number(f"power_grid_dbw[{i}]", p) for i, p in enumerate(grid)
        )
    for key in ("realizations", "seed"):
        if key in raw:
            changes[key] = raw[key]
    if "models" in raw:
        if not isinstance(raw["models"], list):
            raise ValueError("models must be a list")
        changes["models"] = tuple(raw["models"])
    if "clusters" in raw:
        changes["scattering_s"] = changes["scattering_r"] = _parse_clusters(raw["clusters"])
    return replace(cfg, **changes)


def _format_column(name: str, values) -> list[str]:
    # 17 significant digits round-trip doubles exactly, so re-runs are byte-comparable
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map("%.17g".__mod__, values))
    if kinds <= {int}:
        return list(map(str, values))
    if kinds <= {str}:
        return values
    raise TypeError(f"column {name!r} is not all floats, all ints or all strs: {kinds}")


def emit_csv(table: Table, path) -> None:
    """Write a table as RFC-4180-style CSV with LF line endings, one column at a time."""
    cells = [_format_column(n, v) for n, v in zip(table.columns, table.data, strict=True)]
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(table.columns)
            writer.writerows(zip(*cells, strict=True))
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holowdm",
        description="Synthesize wavenumber-domain holographic MIMO channels and run "
        "scattering, spectrum, degrees-of-freedom, and capacity experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _, text in _EXPERIMENTS + (("all", None, "all experiments"),):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (omitted keys take defaults)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory for CSV files (default: current directory)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        text = "" if args.config is None else args.config.read_text(encoding="utf-8")
        cfg = parse_config(text)
    except OSError as exc:
        print(f"holowdm: config file not found or unreadable: {args.config}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        # a file that is not UTF-8 lands here too: UnicodeDecodeError is a ValueError
        print(f"holowdm: invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # an existing file, or a path under one, is not an output directory
        print(f"holowdm: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    for name, runner, _ in _EXPERIMENTS:
        if args.command not in (name, "all"):
            continue
        target = args.out / f"{name}.csv"
        try:
            emit_csv(runner(cfg), target)
        except Exception as exc:
            print(f"holowdm: experiment {name!r} failed: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {target}")
    return 0
