"""Frozen normalization constants.

Each value was measured once against reference fixtures / quadrature at high
resolution and is asserted by the test suite; none is tuned at run time.
"""

from math import factorial

# Prefactor of the twisted heat kernel p_t^lambda.  Measured by requiring
# phi_k^lambda *_lambda p_t^lambda = e^{-(2k+n)|lambda| t} phi_k^lambda with
# unit constant (direct twisted-convolution quadrature, n=1 box); equals the
# approximate-identity normalization (4 pi)^{-n}.
def twisted_heat_prefactor(n: int) -> float:
    return (4.0 * 3.141592653589793) ** (-n)


# Ratio heat_image_norm / ||f||_2^2.  Measured constant across fixtures and
# t on the reference suite; equals j_{n-1}(0) = 1/(2^{n-1} (n-1)!) because
# the shift operator uses the raw (unnormalized) Bessel function.
def heat_image_c(n: int) -> float:
    return 1.0 / (2.0 ** (n - 1) * factorial(n - 1))


# Constant in the Laguerre/heat-kernel integral
#   integral phi_k^lam(iy,iv) p_t^lam(y,v) dy dv
#     = LEMMA63_C * binom(k+n-1, k) * e^{(2k+n)|lam| t}.
# Measured 1.0 for n = 1 and n = 2 (Gauss-Legendre radial quadrature,
# relative deviation < 1e-13 over the reference box).
LEMMA63_C = 1.0
