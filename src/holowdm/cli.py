"""Command-line front end: parse a JSON config, run experiments, emit CSV."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    Table,
    run_capacity,
    run_dof,
    run_eigen_spectrum,
    run_psf_profile,
)
from .scattering import Cluster, ScatteringSpec

__all__ = ["parse_config", "emit_csv", "main"]

_KEYS = (
    "lambda_m", "L_s_over_lambda", "L_r_over_lambda", "d_m",
    "epsilon", "noise_var_dbw", "power_grid_dbw", "realizations", "seed", "models", "clusters",
)

# each cluster key with a value that passes Cluster's checks, in the order read
_CLUSTER_NEUTRAL = {"mean_deg": 0.0, "weight": 1.0, "circ_var": 1.0}

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
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is an integer past the range of a double") from None


def _parse_clusters(raw) -> ScatteringSpec:
    if not isinstance(raw, list) or not raw:
        raise ValueError("clusters must be a non-empty list")
    clusters = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"clusters[{i}] must be an object")
        unknown = entry.keys() - _CLUSTER_NEUTRAL.keys()
        if unknown:
            raise ValueError(f"clusters[{i}]: unknown key {sorted(unknown)[0]!r}")
        missing = _CLUSTER_NEUTRAL.keys() - entry.keys()
        if missing:
            raise ValueError(f"clusters[{i}]: missing key {sorted(missing)[0]!r}")
        # Cluster checks each field on its own, so a probe of the fields read
        # so far, the rest neutral, names the field it refuses; circular
        # variance 1 needs no concentration solve, so only the last probe,
        # the cluster itself, solves one
        fields = dict(_CLUSTER_NEUTRAL)
        for key in fields:
            fields[key] = _number(f"clusters[{i}].{key}", entry[key])
            try:
                cluster = Cluster(
                    fields["weight"], math.radians(fields["mean_deg"]), fields["circ_var"])
            except ValueError as exc:
                raise ValueError(f"clusters[{i}].{key}: {exc}") from None
        clusters.append(cluster)
    try:
        return ScatteringSpec.mixture(clusters)
    except ValueError as exc:
        # the weights are the one mixture rule left unchecked above
        raise ValueError(f"clusters.weight: {exc}") from None


def _unique_keys(pairs):
    # one pass: the first key seen a second time is the one named
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"key {key!r} is given twice")
        seen.add(key)
    return dict(pairs)


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from JSON text; omitted keys take defaults.

    An empty document yields the full default configuration.  This module
    refuses unknown keys and wrong JSON types, and each range is refused by
    its owner (wavenumber.mode_count, Cluster, ScatteringSpec or
    ExperimentConfig) in a ValueError that starts with the key's path, as
    clusters[i].weight.  lambda_m and d_m, which no record holds, are checked
    here, then unread: every statistic depends on L / lambda alone.
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

    if "lambda_m" in raw:
        lam = _number("lambda_m", raw["lambda_m"])
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lambda_m must be positive and finite, got {raw['lambda_m']!r}")
    if "d_m" in raw:
        d = _number("d_m", raw["d_m"])
        if not (math.isfinite(d) and d >= 0.0):
            raise ValueError(f"d_m must be non-negative and finite, got {d}")
    changes = {}
    for key in ("L_s_over_lambda", "L_r_over_lambda", "epsilon", "noise_var_dbw"):
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
    return ExperimentConfig(**changes)


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
