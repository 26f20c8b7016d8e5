"""Binary containers for grid functions and spectral data.

GFN1 (grid function): magic b"GFN1", little-endian throughout.
    uint32 n, nx, nu, nt; float64 lx, lu, lt (half extents); uint8 schwartz;
    complex samples as interleaved float64 pairs, row-major, t fastest.

SPD1 (spectral data): magic b"SPD1".
    uint32 n, nlam, kmax+1, flags, nx, nu; float64 lx, lu, dl,
    A_requested, B_requested (zero when absent);
    float64 lambda[nlam], wmu[nlam]; float64 norms2 stored row-major [k, j],
    which readers require to match the blocks' proj_norms2 to 1e-12 of
    the largest entry;
    flags bit1: modal coefficient blocks follow as complex float64
    [nlam, kmax+1, acap+1] preceded by uint32 acap+1.  Writers set bit1
    only, and readers require it.  Bit0 once marked projection blocks ahead
    of the modal blocks; no writer produces them, and readers reject it, as
    they reject every other bit.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .grids import fft_grid as _fft_grid
from .hermite_modes import ModalSlice
from .spectral import BandLimit, GridFunction, LambdaGrid, SpectralData, SpectralError


# Largest nx, nu an SPD1 header may declare.  Without projection blocks the
# file holds no samples to check them against, yet the reader builds both grids.
SPD_GRID_CAP = 1 << 16


class ContainerError(ValueError):
    pass


def _require(ok, what: str) -> None:
    if not ok:
        raise ContainerError(what)


def write_gfn(path: str, f: GridFunction) -> None:
    """Write f as GFN1.  The samples go to the file from the array itself (a
    byte view of it, C order, little-endian complex128): no copy is made
    when they are already in that layout, as every GridFunction the package
    builds is."""
    if f.n != 1:
        raise ContainerError("GFN1 serialization supports n = 1")
    with open(path, "wb") as fh:
        fh.write(b"GFN1")
        fh.write(struct.pack("<IIII", f.n, f.xgrid.size, f.ugrid.size, f.tgrid.size))
        fh.write(struct.pack("<ddd", -f.xgrid[0], -f.ugrid[0], f.t_half_window))
        fh.write(struct.pack("<B", 1 if f.schwartz else 0))
        fh.write(memoryview(np.ascontiguousarray(f.samples, dtype="<c16")).cast("B"))


def read_gfn(path: str) -> GridFunction:
    """Read a GFN1 file.  The samples are read straight into the one array
    the GridFunction keeps and checked for finiteness one row of the first
    grid axis at a time, so the reader holds them once.  A header that
    promises more samples than the file holds is refused before the array
    is allocated, and a read that comes up short is refused too."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"GFN1":
            raise ContainerError(f"bad magic {magic!r}; not a GFN1 file")
        head = fh.read(41)
        if len(head) != 41:
            raise ContainerError("GFN1 file ends inside its header")
        n, nx, nu, nt = struct.unpack("<IIII", head[:16])
        lx, lu, lt = struct.unpack("<ddd", head[16:40])
        schwartz = head[40]
        if n != 1 or min(nx, nu, nt) < 2:
            raise ContainerError(f"GFN1 header declares unusable sizes n={n}, nx={nx}, "
                                 f"nu={nu}, nt={nt}")
        _require(all(np.isfinite(v) and v > 0 for v in (lx, lu, lt)),
                 f"GFN1 extents must be finite and positive (lx={lx}, lu={lu}, lt={lt})")
        count = nx ** n * nu ** n * nt
        if os.fstat(fh.fileno()).st_size < 45 + count * 16:
            raise ContainerError("GFN1 file ends inside its samples")
        samples = np.empty((nx,) * n + (nu,) * n + (nt,), dtype="<c16")
        _require(fh.readinto(memoryview(samples).cast("B")) == count * 16,
                 "GFN1 file ends inside its samples")
    for row in samples:
        _require(np.isfinite(row).all(), "GFN1 samples hold a non-finite value")
    return GridFunction(n, _fft_grid(nx, lx), _fft_grid(nu, lu), _fft_grid(nt, lt),
                        samples, schwartz=bool(schwartz))


FLAG_MODAL = 2


def write_spd(path: str, sd: SpectralData) -> None:
    if sd.n != 1:
        raise ContainerError("SPD1 serialization supports n = 1")
    nlam = sd.lam.size
    kk = sd.kmax + 1
    nx, nu = sd.xgrid.size, sd.ugrid.size
    req = sd.requested_band
    with open(path, "wb") as fh:
        fh.write(b"SPD1")
        fh.write(struct.pack("<IIIIII", sd.n, nlam, kk, FLAG_MODAL, nx, nu))
        fh.write(struct.pack("<ddddd", -sd.xgrid[0], -sd.ugrid[0], sd.lgrid.dl,
                             req.A if req else 0.0, req.B if req else 0.0))
        fh.write(np.ascontiguousarray(sd.lam, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(sd.wmu, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(sd.norms2, dtype="<f8").tobytes())
        acap = max(ms.coef.shape[1] for ms in sd.modal)
        fh.write(struct.pack("<I", acap))
        for ms in sd.modal:
            block = np.zeros((kk, acap), dtype="<c16")
            block[:, : ms.coef.shape[1]] = ms.coef
            fh.write(block.tobytes())


def read_spd(path: str) -> SpectralData:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != b"SPD1":
            raise ContainerError(f"bad magic {magic!r}; not an SPD1 file")
        head = fh.read(64)
        if len(head) != 64:
            raise ContainerError("SPD1 file ends inside its header")
        n, nlam, kk, flags, nx, nu = struct.unpack("<IIIIII", head[:24])
        lx, lu, dl, areq, breq = struct.unpack("<ddddd", head[24:])
        if n != 1 or min(nlam, kk) < 1 or min(nx, nu) < 2 or max(nx, nu) > SPD_GRID_CAP:
            raise ContainerError(f"SPD1 header declares unusable sizes n={n}, nlam={nlam}, "
                                 f"kmax+1={kk}, nx={nx}, nu={nu}")
        if not flags & FLAG_MODAL:
            raise ContainerError("SPD1 file carries no modal coefficient blocks")
        if flags & 1:
            raise ContainerError("SPD1 flags bit 0 (legacy projection blocks) is not supported")
        if flags & ~FLAG_MODAL:
            raise ContainerError(f"SPD1 flags {flags:#x} set bits this reader does not know "
                                 f"({flags & ~FLAG_MODAL:#x})")
        _require(all(np.isfinite(v) and v > 0 for v in (lx, lu, dl)),
                 f"SPD1 extents must be finite and positive (lx={lx}, lu={lu}, dl={dl})")
        _require(np.isfinite(areq) and np.isfinite(breq),
                 f"SPD1 requested band must be finite (A={areq}, B={breq})")
        # check every declared size against the file before reading or
        # allocating anything
        tables = (2 + kk) * nlam * 8
        if size < 68 + tables:
            raise ContainerError("SPD1 file ends inside its lambda / wmu / norms2 tables")
        if size < 68 + tables + 4:
            raise ContainerError("SPD1 file ends before its modal coefficient blocks")
        lam = np.frombuffer(fh.read(nlam * 8), dtype="<f8").astype(float)
        wmu = np.frombuffer(fh.read(nlam * 8), dtype="<f8").astype(float)
        norms2 = np.frombuffer(fh.read(kk * nlam * 8), dtype="<f8").reshape(kk, nlam).astype(float)
        _require(np.all(np.isfinite(lam)) and np.all(lam != 0) and np.all(np.diff(lam) > 0),
                 "SPD1 lambda nodes must be finite, nonzero and strictly increasing")
        for name, table in (("wmu", wmu), ("norms2", norms2)):
            _require(np.all(np.isfinite(table) & (table >= 0)),
                     f"SPD1 {name} table holds a negative or non-finite value")
        (acap,) = struct.unpack("<I", fh.read(4))
        if size < 68 + tables + 4 + nlam * kk * acap * 16:
            raise ContainerError("SPD1 file ends inside its modal coefficient blocks")
        modal = []
        for j in range(nlam):
            raw = np.frombuffer(fh.read(kk * acap * 16), dtype="<c16")
            _require(np.all(np.isfinite(raw)), f"SPD1 modal block {j} holds a non-finite value")
            modal.append(ModalSlice(float(lam[j]), raw.reshape(kk, acap).astype(complex)))
    # norms2 is derived data: it must be what the blocks give
    derived = np.stack([ms.proj_norms2(kk - 1) for ms in modal], axis=1)
    _require(np.max(np.abs(derived - norms2)) <= 1e-12 * np.max(derived),
             "SPD1 norms2 table disagrees with its modal coefficient blocks")
    sd = SpectralData(
        n=n, lgrid=LambdaGrid(lam, dl, wmu), kmax=kk - 1,
        xgrid=_fft_grid(nx, lx), ugrid=_fft_grid(nu, lu), norms2=norms2, modal=modal,
        tail=np.zeros(nlam),
        requested_band=BandLimit(areq, breq) if areq > 0 and breq > 0 else None,
    )
    try:
        sd.band = sd.achieved_band()
    except SpectralError:
        sd.band = None
    return sd
