import numpy as np
import pytest

from gutzmerlab.grids import QuadratureSpec
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


def grid_stacks(n, xgrid, ugrid):
    """(zc, zm): [(nx,)*n + (nu,)*n, n] stacks of the per-axis coordinates
    z_j, conj z_j on the tensor grid, spectral.grid_planes broadcast over it
    (the scattered-point form of the grid, for ModalSlice.field)."""
    shape, axes = grid_planes(n, xgrid, ugrid)
    return tuple(np.stack([np.broadcast_to(ax[i], shape) for ax in axes], axis=-1)
                 for i in (0, 1))
