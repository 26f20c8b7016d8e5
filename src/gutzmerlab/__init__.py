"""gutzmerlab: Fourier analysis on the Heisenberg group at desk scale.

Central Fourier slices, twisted convolution, Laguerre spectral projections,
Plancherel/inversion checks, orbital integrals and the Gutzmer identity,
heat-kernel transforms, and Paley-Wiener band-limit detection, plus the flat
Euclidean motion-group analogue.
"""

__version__ = "0.1.0"

from .grids import QuadratureSpec
from .specfun import (
    LaguerreArg,
    laguerre,
    laguerre_phi,
    bessel_j_norm,
    hilb_compare,
)
from .heisenberg_core import (
    HeisPoint,
    ComplexPoint,
)
from .spectral import (
    GridFunction,
    SpectralData,
    BandLimit,
    partial_fourier_t,
    twisted_conv,
    analyze,
    plancherel_check,
    invert,
    invert_grid,
    synth_bandlimited,
)
from .complexification import (
    GrowthFit,
    RayPlan,
    orbital_direct,
    gutzmer_spectral,
    apply_D,
    pw_forward_check,
    detect_bandlimit,
)
from .heatlab import (
    gauss_bessel_check,
    heat_apply,
    heat_image_norm,
    twisted_heat_kernel,
    lemma63_check,
    thm35_forward,
    thm35_converse_tail,
)
from .euclid import (
    FlatFunction,
    flat_synth_bandlimited,
    flat_fourier,
    flat_gutzmer,
    flat_pw_check,
)
