"""Points of H^n and of its complexification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GroupError(ValueError):
    pass


def _vec(x, n=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if n is not None and v.size != n:
        raise GroupError(f"dimension mismatch: expected n={n}, got {v.size}")
    return v


@dataclass(frozen=True)
class HeisPoint:
    """Point (x, u, t) of H^n = R^n x R^n x R."""

    x: np.ndarray
    u: np.ndarray
    t: float

    def __init__(self, x, u, t):
        x = _vec(x)
        u = _vec(u, x.size)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.isfinite(t)):
            raise GroupError("non-finite Heisenberg point")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "t", float(t))

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ComplexPoint:
    """Point (z, w, zeta) of C^n x C^n x C, stored as real/imag parts."""

    zr: np.ndarray
    zi: np.ndarray
    wr: np.ndarray
    wi: np.ndarray
    zeta_r: float
    zeta_i: float

    def __init__(self, zr, zi, wr, wi, zeta_r, zeta_i):
        zr = _vec(zr)
        zi = _vec(zi, zr.size)
        wr = _vec(wr, zr.size)
        wi = _vec(wi, zr.size)
        for a in (zr, zi, wr, wi, zeta_r, zeta_i):
            if not np.all(np.isfinite(a)):
                raise GroupError("non-finite complex point")
        object.__setattr__(self, "zr", zr)
        object.__setattr__(self, "zi", zi)
        object.__setattr__(self, "wr", wr)
        object.__setattr__(self, "wi", wi)
        object.__setattr__(self, "zeta_r", float(zeta_r))
        object.__setattr__(self, "zeta_i", float(zeta_i))

    @classmethod
    def purely_imaginary(cls, y, v, eta):
        y = _vec(y)
        return cls(np.zeros_like(y), y, np.zeros_like(y), _vec(v, y.size), 0.0, float(eta))

    @property
    def n(self) -> int:
        return self.zr.size

    @property
    def z(self) -> np.ndarray:
        return self.zr + 1j * self.zi

    @property
    def w(self) -> np.ndarray:
        return self.wr + 1j * self.wi

    @property
    def zeta(self) -> complex:
        return complex(self.zeta_r, self.zeta_i)

    @property
    def is_purely_imaginary(self) -> bool:
        tol = 1e-14
        return (
            np.all(np.abs(self.zr) <= tol)
            and np.all(np.abs(self.wr) <= tol)
            and abs(self.zeta_r) <= tol
        )
