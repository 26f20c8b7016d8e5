import json
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_spec
from gutzmerlab import containers
from gutzmerlab.cli import _positive_half, main
from gutzmerlab.grids import QuadratureSpec
from gutzmerlab.spectral import synth_bandlimited


def spd1_bytes(sd, flags):
    """An SPD1 file laid out by hand: projection blocks when flags bit 0 is
    set, modal blocks when bit 1 is."""
    kk, nlam = sd.norms2.shape
    req = sd.requested_band
    out = [b"SPD1",
           struct.pack("<IIIIII", sd.n, nlam, kk, flags, sd.xgrid.size, sd.ugrid.size),
           struct.pack("<ddddd", -sd.xgrid[0], -sd.ugrid[0], sd.lgrid.dl, req.A, req.B),
           sd.lam.astype("<f8").tobytes(), sd.wmu.astype("<f8").tobytes(),
           sd.norms2.astype("<f8").tobytes()]
    if flags & 1:
        out += [np.asarray(pk, dtype="<c16").tobytes() for pk in sd.projections]
    if flags & 2:
        out.append(struct.pack("<I", sd.modal[0].coef.shape[1]))
        out += [np.asarray(ms.coef, dtype="<c16").tobytes() for ms in sd.modal]
    return b"".join(out)


# (file, byte offset from (nlam, kmax+1), float64 written there) of each bad
# value; SPD1 tables start at byte 68, GFN1 samples at byte 45
BAD_VALUES = {
    "spd-lam0-nan": ("spd", lambda nl, kk: 68, np.nan),
    "spd-lam0-zero": ("spd", lambda nl, kk: 68, 0.0),
    "spd-lam-unsorted": ("spd", lambda nl, kk: 76, -1e3),
    "spd-lam-inf": ("spd", lambda nl, kk: 68 + 8 * (nl - 1), np.inf),
    "spd-wmu-nan": ("spd", lambda nl, kk: 68 + 8 * nl, np.nan),
    "spd-wmu-negative": ("spd", lambda nl, kk: 68 + 8 * nl, -1.0),
    "spd-norms2-negative": ("spd", lambda nl, kk: 68 + 16 * nl, -5.0),
    "spd-norms2-inf": ("spd", lambda nl, kk: 68 + 16 * nl, np.inf),
    "spd-modal-nan": ("spd", lambda nl, kk: 72 + 8 * (2 + kk) * nl, np.nan),
    "spd-lx-nan": ("spd", lambda nl, kk: 28, np.nan),
    "spd-lu-negative": ("spd", lambda nl, kk: 36, -10.0),
    "spd-dl-zero": ("spd", lambda nl, kk: 44, 0.0),
    "gfn-lx-nan": ("gfn", lambda nl, kk: 20, np.nan),
    "gfn-lu-inf": ("gfn", lambda nl, kk: 28, np.inf),
    "gfn-lt-zero": ("gfn", lambda nl, kk: 36, 0.0),
    "gfn-sample-nan": ("gfn", lambda nl, kk: 45 + 16 * 7, np.nan),
}


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fix")
    spec = small_spec()
    f, sd = synth_bandlimited(1.0, 7.0, seed=11, spec=spec)
    containers.write_gfn(str(d / "fx.gfn"), f)
    containers.write_spd(str(d / "fx.spd"), sd)
    return d, spec, f, sd


class TestContainers:
    def test_gfn_round_trip(self, fixture_files):
        d, spec, f, sd = fixture_files
        f2 = containers.read_gfn(str(d / "fx.gfn"))
        assert np.array_equal(f2.samples, f.samples)
        assert np.allclose(f2.xgrid, f.xgrid)
        assert np.allclose(f2.tgrid, f.tgrid)
        assert f2.schwartz == f.schwartz

    def test_spd_round_trip(self, fixture_files):
        d, spec, f, sd = fixture_files
        sd2 = containers.read_spd(str(d / "fx.spd"))
        assert np.array_equal(sd2.norms2, sd.norms2)
        assert np.array_equal(sd2.lam, sd.lam)
        assert np.array_equal(sd2.wmu, sd.wmu)
        p1, p2 = sd.projections, sd2.projections
        for j in range(sd.lam.size):
            assert np.array_equal(p2[j], p1[j])
            assert np.array_equal(sd2.modal[j].coef[:, : sd.modal[j].coef.shape[1]],
                                  sd.modal[j].coef)
        assert sd2.requested_band.A == sd.requested_band.A
        assert sd2.band.B == pytest.approx(sd.band.B)

    def test_spd_writes_modal_blocks_only(self, fixture_files):
        d, spec, f, sd = fixture_files
        assert (d / "fx.spd").read_bytes() == spd1_bytes(sd, flags=2)

    def test_spd_with_projection_blocks_reads(self, fixture_files, tmp_path):
        # flags 3: projection blocks ahead of the modal blocks, which older
        # writers produced; the reader skips them
        d, spec, f, sd = fixture_files
        path = tmp_path / "both.spd"
        path.write_bytes(spd1_bytes(sd, flags=3))
        sd2 = containers.read_spd(str(path))
        assert np.array_equal(sd2.norms2, sd.norms2)
        for ms2, ms in zip(sd2.modal, sd.modal):
            assert np.array_equal(ms2.coef, ms.coef)

    def test_spd_truncated_in_projection_blocks_rejected(self, fixture_files, tmp_path):
        d, spec, f, sd = fixture_files
        path = tmp_path / "cut.spd"
        path.write_bytes(spd1_bytes(sd, flags=3)[:200000])
        with pytest.raises(containers.ContainerError, match="ends before"):
            containers.read_spd(str(path))

    def test_spd_without_modal_blocks_rejected(self, fixture_files, tmp_path):
        d, spec, f, sd = fixture_files
        path = tmp_path / "proj.spd"
        path.write_bytes(spd1_bytes(sd, flags=1))
        with pytest.raises(containers.ContainerError, match="modal"):
            containers.read_spd(str(path))

    def test_spd_header_cut_short_rejected(self, tmp_path):
        path = tmp_path / "short.spd"
        path.write_bytes(b"SPD1\xff\xff\xff\xff")
        with pytest.raises(containers.ContainerError, match="header"):
            containers.read_spd(str(path))

    @pytest.mark.parametrize("cut", [68 + 4, 68 + 8 * 40, -20])
    def test_spd_truncated_in_tables_rejected(self, fixture_files, tmp_path, cut):
        # cut inside lam, inside norms2, and inside the modal blocks
        d, spec, f, sd = fixture_files
        data = spd1_bytes(sd, flags=2)
        path = tmp_path / "cut.spd"
        path.write_bytes(data[:cut])
        with pytest.raises(containers.ContainerError, match="ends inside"):
            containers.read_spd(str(path))

    def test_spd_absurd_sizes_rejected_before_allocation(self, fixture_files, tmp_path):
        d, spec, f, sd = fixture_files
        data = bytearray(spd1_bytes(sd, flags=2))
        data[8:12] = struct.pack("<I", 2 ** 31)  # nlam
        path = tmp_path / "huge.spd"
        path.write_bytes(bytes(data))
        with pytest.raises(containers.ContainerError, match="ends inside"):
            containers.read_spd(str(path))
        data[4:8] = struct.pack("<I", 0)  # n
        path.write_bytes(bytes(data))
        with pytest.raises(containers.ContainerError, match="sizes"):
            containers.read_spd(str(path))

    @pytest.mark.parametrize("at", [20, 24], ids=["nx", "nu"])
    def test_spd_absurd_grid_rejected(self, fixture_files, tmp_path, at):
        # no samples are stored to check nx, nu against, so a flipped high
        # bit (24 -> 2**31 + 24) would otherwise build a 16 GiB grid
        d, spec, f, sd = fixture_files
        data = bytearray(spd1_bytes(sd, flags=2))
        data[at : at + 4] = struct.pack("<I", 2 ** 31 + 24)
        path = tmp_path / "wide.spd"
        path.write_bytes(bytes(data))
        with pytest.raises(containers.ContainerError, match="sizes"):
            containers.read_spd(str(path))

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_values_exit_2(self, fixture_files, tmp_path, capsys, case):
        d, spec, f, sd = fixture_files
        ext, offset, value = BAD_VALUES[case]
        for e in ("gfn", "spd"):
            (tmp_path / f"x.{e}").write_bytes((d / f"fx.{e}").read_bytes())
        path = tmp_path / f"x.{ext}"
        data = bytearray(path.read_bytes())
        at = offset(sd.lam.size, sd.kmax + 1)
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        reader = containers.read_spd if ext == "spd" else containers.read_gfn
        with pytest.raises(containers.ContainerError):
            reader(str(path))
        runs = [["verify", "gutzmer", "-i", str(tmp_path / "x")]]
        if ext == "spd":
            runs.append(["detect", "-i", str(path)])
        for argv in runs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert ext.upper() in err and "Traceback" not in err

    def test_gfn_truncated_rejected(self, fixture_files, tmp_path):
        d, spec, f, sd = fixture_files
        data = (d / "fx.gfn").read_bytes()
        path = tmp_path / "cut.gfn"
        for cut in (10, len(data) - 16):
            path.write_bytes(data[:cut])
            with pytest.raises(containers.ContainerError, match="ends inside"):
                containers.read_gfn(str(path))

    def test_spd_supports_downstream_ops(self, fixture_files):
        from gutzmerlab.complexification import gutzmer_spectral, orbital_direct
        from gutzmerlab.heisenberg_core import ComplexPoint

        d, spec, f, sd = fixture_files
        sd2 = containers.read_spd(str(d / "fx.spd"))
        p = ComplexPoint.purely_imaginary([0.3], [0.2], 0.4)
        assert gutzmer_spectral(sd2, p) == pytest.approx(gutzmer_spectral(sd, p), rel=1e-12)
        assert orbital_direct(sd2, p, spec) == pytest.approx(
            orbital_direct(sd, p, spec), rel=1e-12)

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.gfn"
        bad.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(containers.ContainerError, match="magic"):
            containers.read_gfn(str(bad))
        with pytest.raises(containers.ContainerError, match="magic"):
            containers.read_spd(str(bad))

    def test_byte_identical_determinism(self, tmp_path):
        spec = small_spec()
        for tag in ("a", "b"):
            f, sd = synth_bandlimited(0.75, 4.0, seed=99, spec=spec)
            containers.write_spd(str(tmp_path / f"{tag}.spd"), sd)
            containers.write_gfn(str(tmp_path / f"{tag}.gfn"), f)
        assert (tmp_path / "a.spd").read_bytes() == (tmp_path / "b.spd").read_bytes()
        assert (tmp_path / "a.gfn").read_bytes() == (tmp_path / "b.gfn").read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        spec = small_spec()
        for seed in (1, 2):
            _, sd = synth_bandlimited(0.75, 4.0, seed=seed, spec=spec)
            containers.write_spd(str(tmp_path / f"s{seed}.spd"), sd)
        assert (tmp_path / "s1.spd").read_bytes() != (tmp_path / "s2.spd").read_bytes()


class TestCLI:
    def run_cli(self, *args):
        return main(list(args))

    def test_synth_writes_files(self, tmp_path):
        out = str(tmp_path / "t")
        code = self.run_cli("synth", "--A", "0.75", "--B", "4", "--seed", "5",
                            "--grid", "40", "--kmax", "8", "-o", out)
        assert code == 0
        assert (tmp_path / "t.gfn").exists() and (tmp_path / "t.spd").exists()

    def test_synth_requires_output(self):
        assert self.run_cli("synth", "--A", "1") == 2

    def test_synth_invalid_band(self, tmp_path):
        code = self.run_cli("synth", "--A", "50", "-o", str(tmp_path / "x"))
        assert code == 2

    def test_detect_missing_input(self):
        assert self.run_cli("detect", "-i", "/nonexistent/f.spd") == 2

    def test_detect_without_modal_blocks_exits_2(self, fixture_files, tmp_path, capsys):
        d, spec, f, sd = fixture_files
        path = tmp_path / "proj.spd"
        path.write_bytes(spd1_bytes(sd, flags=1))
        assert self.run_cli("detect", "-i", str(path)) == 2
        err = capsys.readouterr().err
        assert "modal" in err and "Traceback" not in err

    @pytest.mark.parametrize("data", [b"SPD1\xff\xff\xff\xff", b"SPD1" + b"\x00" * 30])
    def test_detect_malformed_spd_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "bad.spd"
        path.write_bytes(data)
        assert self.run_cli("detect", "-i", str(path)) == 2
        err = capsys.readouterr().err
        assert "SPD1" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--grid", "--kmax", "--lambda-grid", "--n"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_sizes_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "g"
        assert self.run_cli("synth", flag, value, "-o", str(out)) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_positive_half_zeroes_negative_lambda(self, fixture_files):
        d, spec, f, sd = fixture_files
        norms2 = sd.norms2.copy()
        coefs = [ms.coef.copy() for ms in sd.modal]
        half = _positive_half(sd)
        for ms, lv in zip(half.modal, half.lam):
            if lv < 0:
                assert not np.any(ms.coef)
        assert np.array_equal(half.norms2,
                              np.stack([ms.proj_norms2() for ms in half.modal], axis=1))
        assert np.array_equal(sd.norms2, norms2)
        for ms, c in zip(sd.modal, coefs):
            assert np.array_equal(ms.coef, c)

    def test_detect_report(self, fixture_files, tmp_path):
        d, spec, f, sd = fixture_files
        out = str(tmp_path / "rep.json")
        code = self.run_cli("detect", "-i", str(d / "fx.spd"), "-o", out)
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["verdict"] == "ok"
        assert abs(doc["A_hat"] - sd.band.A) <= 0.05 * sd.band.A
        assert abs(doc["B_hat"] - sd.band.B) <= 0.05 * sd.band.B
        assert doc["tail_test"]["bounded"]

    def test_verify_unknown_suite(self):
        assert self.run_cli("verify", "nosuch") == 2

    def test_verify_gauss_bessel_passes(self, tmp_path, capsys):
        code = self.run_cli("verify", "gauss-bessel", "-o", str(tmp_path / "r.csv"))
        assert code == 0
        rows = open(tmp_path / "r.csv").read().strip().splitlines()
        assert rows[0] == "name,params,lhs,rhs,relerr,pass"
        assert all(r.endswith("pass") for r in rows[1:])

    def test_verify_unachievable_tolerance_fails(self, tmp_path):
        code = self.run_cli("verify", "euclid", "--tol", "1e-14",
                            "-o", str(tmp_path / "r.csv"))
        assert code == 1

    def test_verify_euclid_passes(self, tmp_path):
        assert self.run_cli("verify", "euclid", "-o", str(tmp_path / "r.csv")) == 0

    def test_euclid_csv_shape(self, tmp_path):
        out = str(tmp_path / "rows.csv")
        code = self.run_cli("euclid", "-o", out)
        assert code == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "y,lhs,rhs,relerr"
        assert len(rows) == 4
        fit = json.loads(open(out + ".fit.json").read())
        assert fit["verdict"] == "ok"

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "gutzmerlab.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode in (0, 2)
        assert "synth" in out.stdout


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """A small valid SPD1 / GFN1 pair (7.8 kB / 148 kB) for the fuzzers."""
    d = tmp_path_factory.mktemp("fuzz")
    spec = QuadratureSpec(nx=24, lx=8.0, nt=16, nodes_per_A=4, margin_nodes=1, kmax=4,
                          beta_cap=8)
    f, sd = synth_bandlimited(1.0, 3.0, seed=1, spec=spec)
    containers.write_gfn(str(d / "ok.gfn"), f)
    containers.write_spd(str(d / "ok.spd"), sd)
    return d


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """data cut short, or with 1-4 bits flipped (half of them in the first 512 bytes,
    where the headers and the SPD1 tables live)."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    bits = st.integers(0, 8 * min(len(data), 512) - 1) | st.integers(0, 8 * len(data) - 1)
    for bit in draw(st.lists(bits, min_size=1, max_size=4)):
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


FUZZ = settings(max_examples=60, deadline=None)


@FUZZ
@given(data=st.data())
def test_fuzz_read_spd_and_detect(tiny_files, data):
    path = tiny_files / "fuzz.spd"
    path.write_bytes(data.draw(damaged((tiny_files / "ok.spd").read_bytes())))
    try:
        containers.read_spd(str(path))
    except containers.ContainerError:
        pass
    # an exception escaping main would be a traceback for the user
    assert main(["detect", "-i", str(path), "-o", str(tiny_files / "fuzz.json")]) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_fuzz_read_gfn(tiny_files, data):
    path = tiny_files / "fuzz.gfn"
    path.write_bytes(data.draw(damaged((tiny_files / "ok.gfn").read_bytes())))
    try:
        containers.read_gfn(str(path))
    except containers.ContainerError:
        pass


def test_thread_count_env(monkeypatch):
    from gutzmerlab.grids import thread_count

    monkeypatch.delenv("GUTZMERLAB_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("GUTZMERLAB_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("GUTZMERLAB_THREADS", "junk")
    assert thread_count() == 1
