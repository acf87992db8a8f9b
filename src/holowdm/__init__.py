"""Wavenumber-domain holographic MIMO channels under NLoS scattering.

Synthesizes the angular-domain channel of parallel line apertures multiplexed
over Fourier (wavenumber) basis functions, characterizes its correlation
structure against half-wavelength-sampled Jakes and i.i.d. Rayleigh baselines,
and evaluates degrees of freedom and water-filling ergodic capacity.

The package exports the names of the README's library example; every other
name is imported from its module.
"""

from .channel import build_wdm_correlation, draw_channel
from .harness import default_config
from .metrics import ergodic_capacity
from .scattering import Cluster, ScatteringSpec
from .wavenumber import PhysicalConfig, variance_profile

__version__ = "0.1.0"
