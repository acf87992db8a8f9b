"""Wavenumber-domain holographic MIMO channels under NLoS scattering.

Synthesizes the angular-domain channel of parallel line apertures multiplexed
over Fourier (wavenumber) basis functions, characterizes its correlation
structure against half-wavelength-sampled Jakes and i.i.d. Rayleigh baselines,
and evaluates degrees of freedom and water-filling ergodic capacity.
"""

from .channel import (
    CorrelationModel,
    build_iid_correlation,
    build_jakes_correlation,
    build_wdm_correlation,
    draw_channel,
)
from .harness import (
    MODEL_NAMES,
    ExperimentConfig,
    Table,
    correlation_for,
    default_config,
    run_all,
    run_capacity,
    run_dof,
    run_eigen_spectrum,
    run_psf_profile,
)
from .metrics import (
    CapacityResult,
    DoFResult,
    dof,
    ergodic_capacity,
    hermitian_eigs,
    realization_seeds,
    waterfill,
)
from .scattering import (
    ISOTROPIC_DENSITY,
    Cluster,
    ScatteringSpec,
    acf,
    acf_quadrature,
    psd,
    psf_density,
)
from .specfun import (
    bessel_i0,
    bessel_i1,
    bessel_j0,
    bessel_ratio_i1_i0,
    solve_concentration,
)
from .wavenumber import (
    PhysicalConfig,
    VarianceProfile,
    WavenumberGrid,
    angular_partition,
    build_grid,
    dispersion,
    variance_profile,
)

__version__ = "0.1.0"
