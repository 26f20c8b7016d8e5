"""gutzmerlab: Fourier analysis on the Heisenberg group at desk scale.

Central Fourier slices, twisted convolution, Laguerre spectral projections,
Plancherel/inversion checks, orbital integrals and the Gutzmer identity,
heat-kernel transforms, and Paley-Wiener band-limit detection, plus the flat
Euclidean motion-group analogue.

Each public name loads its module on first access (PEP 562), so importing
the package alone loads no numpy; gutzmerlab.cli relies on that to set its
BLAS thread default before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "grids": ("QuadratureSpec",),
    "specfun": ("LaguerreArg", "laguerre", "laguerre_phi", "bessel_j_norm", "hilb_compare"),
    "heisenberg_core": ("HeisPoint", "ComplexPoint"),
    "spectral": ("GridFunction", "SpectralData", "BandLimit", "partial_fourier_t",
                 "twisted_conv", "analyze", "plancherel_check", "invert", "invert_grid",
                 "synth_bandlimited"),
    "growth": ("GrowthFit",),
    "complexification": ("RayPlan", "orbital_direct", "gutzmer_spectral", "apply_D",
                         "pw_forward_check", "detect_bandlimit"),
    "heatlab": ("gauss_bessel_check", "heat_apply", "heat_image_norm", "twisted_heat_kernel",
                "lemma63_check", "thm35_forward", "thm35_converse_tail"),
    "euclid": ("FlatFunction", "flat_synth_bandlimited", "flat_fourier", "flat_gutzmer",
               "flat_pw_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # not cached here, so the name always follows its module's binding
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
