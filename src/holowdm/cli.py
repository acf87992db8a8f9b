"""Command-line front end: parse a JSON config, run experiments, emit CSV."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .harness import (
    MODEL_NAMES,
    ExperimentConfig,
    Table,
    run_capacity,
    run_dof,
    run_eigen_spectrum,
    run_psf_profile,
)
from .scattering import Cluster, ScatteringSpec
from .wavenumber import PhysicalConfig

__all__ = ["parse_config", "emit_csv", "main"]

_DEFAULTS = {
    "lambda_m": 0.01,
    "L_s_over_lambda": 128.0,
    "L_r_over_lambda": 128.0,
    "d_m": 0.0,
    "epsilon": 0.003,
    "noise_var_dbw": 0.0,
    "power_grid_dbw": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    "realizations": 500,
    "seed": 12345,
    "models": list(MODEL_NAMES),
    "clusters": [
        {"mean_deg": 30.0, "circ_var": 0.01, "weight": 0.5},
        {"mean_deg": 60.0, "circ_var": 0.005, "weight": 0.5},
    ],
}

_CLUSTER_KEYS = {"mean_deg", "circ_var", "weight"}

_EXPERIMENTS = (
    ("psf", run_psf_profile),
    ("eigs", run_eigen_spectrum),
    ("dof", run_dof),
    ("capacity", run_capacity),
)


def _number(key: str, value) -> float:
    # JSON true and false arrive as bools, which float() would take as 1 and 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _positive(key: str, value) -> float:
    v = _number(key, value)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{key} must be positive and finite, got {value!r}")
    return v


def _parse_clusters(raw) -> tuple[Cluster, ...]:
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
        clusters.append(Cluster.from_circular_variance(weight, math.radians(mean_deg), circ_var))
    total = math.fsum(c.weight for c in clusters)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"clusters.weight must sum to 1 within 1e-9, got {total}")
    return tuple(clusters)


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from JSON text; omitted keys take defaults.

    An empty document yields the full default configuration.  Unknown keys and
    out-of-range values raise ValueError naming the offending key.
    """
    if text.strip():
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
    else:
        raw = {}
    for key in raw:
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
    merged = {**_DEFAULTS, **raw}

    wavelength = _positive("lambda_m", merged["lambda_m"])
    L_s = _positive("L_s_over_lambda", merged["L_s_over_lambda"]) * wavelength
    L_r = _positive("L_r_over_lambda", merged["L_r_over_lambda"]) * wavelength
    d = _number("d_m", merged["d_m"])
    if not (math.isfinite(d) and d >= 0.0):
        raise ValueError(f"d_m must be non-negative, got {merged['d_m']!r}")

    epsilon = _number("epsilon", merged["epsilon"])
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    noise_var_dbw = _number("noise_var_dbw", merged["noise_var_dbw"])
    if not math.isfinite(noise_var_dbw):
        raise ValueError(f"noise_var_dbw must be finite, got {merged['noise_var_dbw']!r}")

    grid = merged["power_grid_dbw"]
    if not isinstance(grid, list) or not grid:
        raise ValueError("power_grid_dbw must be a non-empty list")
    power_grid = tuple(_number(f"power_grid_dbw[{i}]", p) for i, p in enumerate(grid))
    if not all(math.isfinite(p) for p in power_grid):
        raise ValueError("power_grid_dbw entries must be finite")

    realizations = _integer("realizations", merged["realizations"])
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    seed = _integer("seed", merged["seed"])
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")

    models = merged["models"]
    if not isinstance(models, list) or not models:
        raise ValueError("models must be a non-empty list")
    for name in models:
        if name not in MODEL_NAMES:
            raise ValueError(f"models: unknown model {name!r}; expected one of {MODEL_NAMES}")

    mixture = ScatteringSpec.mixture(_parse_clusters(merged["clusters"]))
    return ExperimentConfig(
        physical=PhysicalConfig(wavelength, L_s, L_r, d),
        scattering_s=mixture,
        scattering_r=mixture,
        models=tuple(models),
        epsilon=epsilon,
        power_grid_dbw=power_grid,
        realizations=realizations,
        seed=seed,
        noise_var_dbw=noise_var_dbw,
    )


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean cells are not part of any table schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # 17 significant digits round-trip doubles exactly, making re-runs
        # byte-comparable.
        return format(float(value), ".17g")
    return str(value)


def emit_csv(table: Table, path) -> None:
    """Write a table as RFC-4180-style CSV with LF line endings."""
    path = Path(path)
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(table.columns)
            for row in table.rows:
                writer.writerow([_format_cell(v) for v in row])
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holowdm",
        description="Synthesize wavenumber-domain holographic MIMO channels and run "
        "scattering, spectrum, degrees-of-freedom, and capacity experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [name for name, _ in _EXPERIMENTS] + ["all"]
    helps = {
        "psf": "angular power density table",
        "eigs": "receive-correlation eigenvalue table",
        "dof": "degrees-of-freedom table",
        "capacity": "ergodic capacity table",
        "all": "all experiments",
    }
    for name in names:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (omitted keys take defaults)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory for CSV files (default: current directory)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    text = ""
    if args.config is not None:
        if not args.config.is_file():
            print(f"holowdm: config file not found: {args.config}", file=sys.stderr)
            return 2
        text = args.config.read_text()
    try:
        cfg = parse_config(text)
    except ValueError as exc:
        print(f"holowdm: invalid config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        try:
            cfg = cfg.with_seed(args.seed)
        except ValueError as exc:
            print(f"holowdm: invalid seed: {exc}", file=sys.stderr)
            return 2

    selected = _EXPERIMENTS if args.command == "all" else tuple(
        (name, runner) for name, runner in _EXPERIMENTS if name == args.command
    )
    args.out.mkdir(parents=True, exist_ok=True)
    for name, runner in selected:
        try:
            table = runner(cfg)
            target = args.out / f"{name}.csv"
            emit_csv(table, target)
        except Exception as exc:
            print(f"holowdm: experiment {name!r} failed: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
