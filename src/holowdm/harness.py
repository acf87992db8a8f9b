"""Named, reproducible experiment pipelines producing in-memory tables.

The default configuration is the reference setup used throughout the capacity
and degrees-of-freedom studies: 128-wavelength lines, symmetric two-cluster
scattering at 30 and 60 degrees (circular variances 0.01 and 0.005, equal
weights), epsilon = 0.003, noise at 0 dBW, and 500 channel realizations.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import (
    CorrelationModel,
    build_iid_correlation,
    build_jakes_correlation,
    build_wdm_correlation,
    side_spectrum,
)
from .metrics import check_monte_carlo_args, dbw_to_watts, dof, ergodic_capacities
# bound here for bench/tracing.py, which wraps it by this name
from .metrics import ergodic_capacity  # noqa: F401
from .scattering import Cluster, ScatteringSpec, psf_density
from .wavenumber import VarianceProfile, mode_count, variance_profile

__all__ = [
    "MODEL_NAMES",
    "ExperimentConfig",
    "Table",
    "correlation_for",
    "run_psf_profile",
    "run_eigen_spectrum",
    "run_dof",
    "run_capacity",
]

# Canonical model order: the uncorrelated baseline, the half-wavelength
# sampled Jakes baseline, and the two wavenumber-multiplexed models.
MODEL_NAMES = ("iid", "jakes", "isotropic", "non_isotropic")

# Models with an angular scattering density (the others have none to plot,
# and their degrees of freedom are not defined by the prefix criterion).
_SCATTERING_MODELS = ("isotropic", "non_isotropic")

# Angles of the psf table, evenly spaced over [0, pi).
_PSF_GRID_POINTS = 1024


def _default_mixture() -> ScatteringSpec:
    return ScatteringSpec.mixture(
        (
            Cluster(0.5, math.radians(30.0), 0.01),
            Cluster(0.5, math.radians(60.0), 0.005),
        )
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment parameterization; defaults reproduce the reference setup.

    L_s_over_lambda / L_r_over_lambda are the source and receiver line lengths
    in wavelengths, each a whole number of at least 1 and not a bool
    (wavenumber.mode_count); a ValueError names the field, as it does for a
    bool or unrunnable power or noise (metrics.dbw_to_watts).  The
    Fourier-series channel model assumes electrically large lines, so a
    warning is emitted below 8 wavelengths.
    scattering_s / scattering_r describe the non-isotropic model (the
    isotropic model needs no parameters); they default to the same mixture on
    both sides, but asymmetric specs are allowed.
    """

    L_s_over_lambda: float = 128.0
    L_r_over_lambda: float = 128.0
    scattering_s: ScatteringSpec = field(default_factory=_default_mixture)
    scattering_r: ScatteringSpec = field(default_factory=_default_mixture)
    models: tuple[str, ...] = MODEL_NAMES
    epsilon: float = 0.003
    power_grid_dbw: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    realizations: int = 500
    seed: int = 12345
    noise_var_dbw: float = 0.0

    def __post_init__(self) -> None:
        for name in ("L_s_over_lambda", "L_r_over_lambda"):
            try:
                mode_count(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        if min(self.L_s_over_lambda, self.L_r_over_lambda) < 8.0:
            # name the first caller outside the generated __init__ and dataclasses
            frame, level = sys._getframe(1), 2
            while frame.f_code is ExperimentConfig.__init__.__code__ or (
                    frame.f_globals.get("__name__") == "dataclasses"):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                "aperture shorter than 8 wavelengths; the Fourier-series channel "
                "model degrades on electrically small lines",
                stacklevel=level,
            )
        if not self.models:
            raise ValueError("models must not be empty")
        for name in self.models:
            if name not in MODEL_NAMES:
                raise ValueError(f"models: unknown model {name!r}; expected one of {MODEL_NAMES}")
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"models must not repeat a model, got {self.models}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.power_grid_dbw:
            raise ValueError("power_grid_dbw must not be empty")
        for i, p in enumerate(self.power_grid_dbw):
            dbw_to_watts(f"power_grid_dbw[{i}]", p)
        check_monte_carlo_args(self.realizations, self.seed, "seed")
        dbw_to_watts("noise_var_dbw", self.noise_var_dbw)


@dataclass(frozen=True, eq=False)
class Table:
    """Named columns of equal length, each all floats, ints or strs; rows reads across."""

    columns: tuple[str, ...]
    data: tuple[Sequence, ...]

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*self.data, strict=True))


def _specs(cfg: ExperimentConfig, model: str) -> tuple[ScatteringSpec, ScatteringSpec]:
    """Source and receiver scattering of a scattering model."""
    if model == "isotropic":
        return (ScatteringSpec.isotropic(),) * 2
    return cfg.scattering_s, cfg.scattering_r


@lru_cache(maxsize=8)
def _shared_profile(L_over_lambda: float, spec: ScatteringSpec) -> VarianceProfile:
    """variance_profile, computed once per (aperture, scattering).

    The eigs, dof and capacity experiments all need the same profiles, and
    the two sides of a symmetric config are one; the cached variances are
    read-only because every caller shares them.  The aperture is whole
    (ExperimentConfig checks), so the one ValueError left is a cluster too
    narrow for the partition quadrature, which is refused naming clusters.
    """
    try:
        profile = variance_profile(L_over_lambda, spec)
    except ValueError as exc:
        raise ValueError(f"clusters: {exc}") from None
    profile.variances.flags.writeable = False
    return profile


def _profiles(cfg: ExperimentConfig, model: str) -> tuple[VarianceProfile, VarianceProfile]:
    spec_s, spec_r = _specs(cfg, model)
    return (
        _shared_profile(cfg.L_s_over_lambda, spec_s),
        _shared_profile(cfg.L_r_over_lambda, spec_r),
    )


def correlation_for(cfg: ExperimentConfig, model: str) -> CorrelationModel:
    """Correlation model backing one experiment model name."""
    counts = mode_count(cfg.L_s_over_lambda), mode_count(cfg.L_r_over_lambda)
    if model == "iid":
        return build_iid_correlation(*counts)
    if model == "jakes":
        return build_jakes_correlation(*counts)
    if model in _SCATTERING_MODELS:
        return build_wdm_correlation(*_profiles(cfg, model))
    raise ValueError(f"unknown model {model!r}")


def run_psf_profile(cfg: ExperimentConfig) -> Table:
    """Receiver-side angular power density on a uniform grid over [0, pi)."""
    thetas = np.linspace(0.0, math.pi, _PSF_GRID_POINTS, endpoint=False)
    angles, labels, values = [], [], []
    for model in cfg.models:
        if model in _SCATTERING_MODELS:
            angles += thetas.tolist()
            labels += [model] * thetas.size
            values += psf_density(_specs(cfg, model)[1], thetas).tolist()
    return Table(("theta_rad", "model", "psf_density"), (angles, labels, values))


def _receive_spectrum(corr: CorrelationModel) -> np.ndarray:
    """Eigenvalues of R_r sorted descending, divided by its trace.

    A Jakes R_r is solved as two half-size eigenproblems; the sum of its
    eigenvalues misses its trace n by an ulp or more at some n (32, say).
    """
    R_r = corr.R_r
    w = side_spectrum("R_r", R_r)
    return np.sort(w)[::-1] / float(w.sum() if R_r.ndim == 1 else np.trace(R_r))


def run_eigen_spectrum(cfg: ExperimentConfig) -> Table:
    """Trace-normalized receive-correlation eigenvalues, sorted descending."""
    indices, labels, values = [], [], []
    for model in cfg.models:
        # the model is a temporary: its matrices are freed before the next
        # model is built, and no square root is ever taken
        spectrum = _receive_spectrum(correlation_for(cfg, model)).tolist()
        indices += range(len(spectrum))
        labels += [model] * len(spectrum)
        values += spectrum
    return Table(("index", "model", "normalized_eigenvalue"), (indices, labels, values))


def run_dof(cfg: ExperimentConfig) -> Table:
    """Degrees of freedom of the scattering-defined models."""
    models = [model for model in cfg.models if model in _SCATTERING_MODELS]
    results = [dof(*_profiles(cfg, m), cfg.epsilon, m == "isotropic") for m in models]
    return Table(("model", "dof", "n_s_prime", "n_r_prime", "epsilon"), (
        models, [r.dof for r in results], [r.per_side[0] for r in results],
        [r.per_side[1] for r in results], [float(cfg.epsilon)] * len(results),
    ))


def run_capacity(cfg: ExperimentConfig) -> Table:
    """Ergodic water-filling capacity per model over the power grid.

    One Monte Carlo pass serves every model: each per-realization seed draws
    one W, which the Jakes and WDM models all scale, so their differences
    are purely structural; i.i.d. Rayleigh takes its gains from the
    bidiagonal model of metrics.ergodic_capacities, so it shares no W with
    them.  Each model's gains are water-filled over the whole power grid at
    once.  The models are built one at a time, and only their spectra are
    kept.  With more than one usable CPU (metrics.worker_count) and more
    than one realization, the realizations run on forked workers; every
    path holds numpy's OpenBLAS to one thread, so the table has the same
    bits for any BLAS thread setting or worker count.
    """
    results = ergodic_capacities(
        (correlation_for(cfg, model) for model in cfg.models),
        cfg.power_grid_dbw,
        dbw_to_watts("noise_var_dbw", cfg.noise_var_dbw),
        cfg.realizations,
        cfg.seed,
    )
    powers, labels, values = [], [], []
    for model, result in zip(cfg.models, results):
        powers += map(float, cfg.power_grid_dbw)
        labels += [model] * len(cfg.power_grid_dbw)
        values += result.capacity_bits.tolist()
    return Table(("p_dbw", "model", "capacity_bits_per_s_per_hz"), (powers, labels, values))
