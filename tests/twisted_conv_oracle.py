"""Twisted convolution by direct O(N^4) quadrature: an oracle that shares no
code with the modal projection path of gutzmerlab.spectral, which the tests
check against it.  It lives with the tests, so the package carries no
quadrature it never runs.
"""

import numpy as np

from gutzmerlab.grids import SpectralError


def twisted_conv(F: np.ndarray, G: np.ndarray, lam: float, xgrid: np.ndarray,
                 ugrid: np.ndarray) -> np.ndarray:
    """(F *_lambda G)(z) = integral F(z-w) G(w) e^{(i lam/2) Im(z.wbar)} dw.

    Direct O(N^4) quadrature at n=1 (z = x+iu); the phase is
    e^{(i lam/2)(u x' - x u')}.  lam = 0 degenerates to ordinary convolution.
    Serves as the independent oracle for the modal projection path.
    """
    F = np.asarray(F, dtype=complex)
    G = np.asarray(G, dtype=complex)
    if F.ndim != 2 or G.ndim != 2:
        raise SpectralError("twisted_conv is implemented for n=1 fields")
    if F.shape != G.shape or F.shape != (xgrid.size, ugrid.size):
        raise SpectralError("grid mismatch in twisted_conv")
    if xgrid.size != ugrid.size or abs(xgrid[1] - xgrid[0] - (ugrid[1] - ugrid[0])) > 1e-14:
        raise SpectralError("x and u grids must match for the difference lattice")
    N = xgrid.size
    h = float(xgrid[1] - xgrid[0])
    c = N // 2
    Fpad = np.zeros((3 * N, 3 * N), dtype=complex)
    Fpad[N : 2 * N, N : 2 * N] = F
    P1 = np.exp(0.5j * lam * np.outer(ugrid, xgrid))    # P1[j, a] = e^{i lam u_j x_a / 2}
    P2 = np.exp(-0.5j * lam * np.outer(xgrid, ugrid))   # P2[i, b] = e^{-i lam x_i u_b / 2}
    out = np.empty((N, N), dtype=complex)
    s0, s1 = Fpad.strides
    for i in range(N):
        # TT[a, j, b] = Fpad[(i - a) + c + N, (j - b) + c + N]; anchored view,
        # negative strides stay inside Fpad for all valid (a, j, b)
        anchor = Fpad[i + c + N :, c + N :]
        TT = np.lib.stride_tricks.as_strided(
            anchor, shape=(N, N, N), strides=(-s0, s1, -s1), writeable=False
        )
        W = G * P2[i][None, :]
        E = np.einsum("ajb,ab->aj", TT, W)
        out[i] = np.einsum("ja,aj->j", P1, E)
    return out * h * h
