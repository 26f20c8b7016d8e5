import dataclasses

import numpy as np
import pytest

from gutzmerlab.grids import QuadratureSpec
from gutzmerlab.hermite_modes import ModalSlice
from gutzmerlab.spectral import analyze, grid_planes, synth_bandlimited


def small_spec(**over):
    """Reduced resolution for unit tests (acceptance uses the defaults)."""
    kw = dict(nx=40, lx=10.0, nt=64, nodes_per_A=8, margin_nodes=2, kmax=8, beta_cap=24)
    kw.update(over)
    return QuadratureSpec(**kw)


@pytest.fixture(scope="session")
def fixture_small():
    spec = small_spec()
    f, sd = synth_bandlimited(1.0, 7.0, seed=11, spec=spec)
    return spec, f, sd


@pytest.fixture(scope="session")
def analyzed_small(fixture_small):
    spec, f, sd = fixture_small
    return analyze(f, sd.lgrid, spec.kmax, spec)


def rectangle(rows, mask):
    """basis_matrix rows (the pairs mask admits, in row-major order) scattered
    into the zero [*mask.shape, *points] rectangle, rows outside mask zero."""
    out = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
    out[mask] = rows
    return out


def level_cut(ms, k):
    """ms cut to its entries of level |beta| = k (a level-k projection's
    coefficients, as SpectralData.projections builds them); ms when k is None."""
    if k is None:
        return ms
    return ModalSlice(ms.lam, np.where(ms.levels() == k, ms.coef, 0))


def grid_stacks(n, xgrid, ugrid):
    """(zc, zm): [(nx,)*n + (nu,)*n, n] stacks of the per-axis coordinates
    z_j, conj z_j on the tensor grid, spectral.grid_planes broadcast over it
    (the scattered-point form of the grid, for ModalSlice.field)."""
    shape, axes = grid_planes(n, xgrid, ugrid)
    return tuple(np.stack([np.broadcast_to(ax[i], shape) for ax in axes], axis=-1)
                 for i in (0, 1))


def single_cell(sd, k0, j0, mass=1.7):
    """A copy of sd (dataclasses.replace) collapsed to one populated (k,
    lambda) cell: the level-k0 row of slice j0 ([1, 0.5i, 0, ...] where that
    row is empty), renormalized to norms2[k0, j0] = mass.  n = 1."""
    keep = sd.modal[j0].coef[k0].copy()
    if not np.any(keep):
        keep[:2] = [1.0, 0.5j]
    scale = 2 * np.pi / abs(sd.lam[j0])
    keep *= np.sqrt(mass / (scale * np.sum(np.abs(keep) ** 2)))
    modal = [dataclasses.replace(ms, coef=np.zeros_like(ms.coef)) for ms in sd.modal]
    modal[j0].coef[k0] = keep
    return dataclasses.replace(sd, modal=modal)


def scaled(sd, factor):
    """A copy of sd with every coefficient times factor: f -> factor f."""
    return dataclasses.replace(sd, modal=[dataclasses.replace(ms, coef=factor * ms.coef)
                                          for ms in sd.modal])


def planted(sd, k, j, mass):
    """A copy of sd with mass added to the cell norms2[k, j], through the
    level-k row of slice j: that row scaled, or, where it is empty, one
    entry set at a = 0.  n = 1."""
    coef = sd.modal[j].coef.copy()
    scale = 2 * np.pi / abs(sd.lam[j])
    old = scale * np.sum(np.abs(coef[k]) ** 2)
    if old > 0:
        coef[k] *= np.sqrt((old + mass) / old)
    else:
        coef[k, 0] = np.sqrt(mass / scale)
    modal = list(sd.modal)
    modal[j] = dataclasses.replace(modal[j], coef=coef)
    return dataclasses.replace(sd, modal=modal)
