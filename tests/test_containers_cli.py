import json
import os
import struct
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_spec
from gutzmerlab import containers
from gutzmerlab.cli import COMMANDS, SUITES, _positive_half, build_parser, main
from gutzmerlab.grids import QuadratureSpec, fft_grid
from gutzmerlab.spectral import GridFunction, SpectralError, synth_bandlimited


def spd1_bytes(sd, flags, norms2=None):
    """An SPD1 file laid out by hand: projection blocks when flags bit 0 is
    set, modal blocks when bit 1 is; the norms2 table given, or sd's."""
    norms2 = sd.norms2 if norms2 is None else norms2
    kk, nlam = norms2.shape
    req = sd.requested_band
    out = [b"SPD1",
           struct.pack("<IIIIII", sd.n, nlam, kk, flags, sd.xgrid.size, sd.ugrid.size),
           struct.pack("<ddddd", -sd.xgrid[0], -sd.ugrid[0], sd.lgrid.dl, req.A, req.B),
           sd.lam.astype("<f8").tobytes(), sd.wmu.astype("<f8").tobytes(),
           norms2.astype("<f8").tobytes()]
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
    "spd-requested-A-nan": ("spd", lambda nl, kk: 52, np.nan),
    "spd-requested-B-inf": ("spd", lambda nl, kk: 60, np.inf),
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
        assert sd2.achieved_band().B == pytest.approx(sd.achieved_band().B)

    def test_spd_writes_modal_blocks_only(self, fixture_files):
        d, spec, f, sd = fixture_files
        assert (d / "fx.spd").read_bytes() == spd1_bytes(sd, flags=2)

    def test_spd_with_projection_blocks_rejected(self, fixture_files, tmp_path, capsys):
        # flags 3: legacy projection blocks ahead of the modal blocks
        d, spec, f, sd = fixture_files
        path = tmp_path / "both.spd"
        path.write_bytes(spd1_bytes(sd, flags=3))
        with pytest.raises(containers.ContainerError, match="bit 0"):
            containers.read_spd(str(path))
        assert main(["detect", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bit 0" in err and "Traceback" not in err

    def test_spd_with_unknown_flag_bits_rejected(self, fixture_files, tmp_path, capsys):
        # flags 0x10e: the modal bit 1 with bits 2, 3 and 8, which no writer sets
        d, spec, f, sd = fixture_files
        data = bytearray((d / "fx.spd").read_bytes())
        assert struct.unpack("<I", data[16:20]) == (2,)
        data[16:20] = struct.pack("<I", 0x10e)
        path = tmp_path / "flags.spd"
        path.write_bytes(bytes(data))
        with pytest.raises(containers.ContainerError, match="0x10c"):
            containers.read_spd(str(path))
        assert main(["detect", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert "flags" in err and "Traceback" not in err

    def test_spd_norms2_disagreeing_with_blocks_exits_2(self, fixture_files, tmp_path, capsys):
        # the heaviest cell zeroed in the table alone, its blocks untouched
        d, spec, f, sd = fixture_files
        norms2 = sd.norms2.copy()
        norms2[np.unravel_index(np.argmax(norms2), norms2.shape)] = 0.0
        (tmp_path / "x.gfn").write_bytes((d / "fx.gfn").read_bytes())
        (tmp_path / "x.spd").write_bytes(spd1_bytes(sd, flags=2, norms2=norms2))
        with pytest.raises(containers.ContainerError, match="norms2"):
            containers.read_spd(str(tmp_path / "x.spd"))
        x = str(tmp_path / "x")
        for argv in (["verify", "gutzmer", "-i", x], ["verify", "heat-image", "-i", x],
                     ["detect", "-i", x + ".spd"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "norms2" in err and "Traceback" not in err

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

    def test_gfn_samples_are_the_array_bytes(self, fixture_files):
        d, spec, f, sd = fixture_files
        data = (d / "fx.gfn").read_bytes()
        assert data[45:] == np.ascontiguousarray(f.samples, "<c16").tobytes()

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_gfn_truncated_in_samples_exits_2(self, fixture_files, tmp_path, capsys, at):
        d, spec, f, sd = fixture_files
        data = (d / "fx.gfn").read_bytes()
        cut = {"first": 45 + 9, "middle": 45 + 16 * (f.samples.size // 2) + 3,
               "last": len(data) - 1}[at]
        (tmp_path / "x.gfn").write_bytes(data[:cut])
        (tmp_path / "x.spd").write_bytes((d / "fx.spd").read_bytes())
        assert main(["verify", "gutzmer", "-i", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "GFN1 file ends inside its samples" in err and "Traceback" not in err

    def test_gfn_short_read_rejected(self, fixture_files, tmp_path, monkeypatch):
        # a size check that passes, then a read that comes up short (a file
        # that shrinks between the two, say)
        d, spec, f, sd = fixture_files
        monkeypatch.setattr(containers, "os", SimpleNamespace(
            fstat=lambda fd: SimpleNamespace(st_size=1 << 40)))
        path = tmp_path / "short.gfn"
        path.write_bytes((d / "fx.gfn").read_bytes()[:-16])
        with pytest.raises(containers.ContainerError, match="ends inside its samples"):
            containers.read_gfn(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_gfn_non_finite_sample_rejected(self, fixture_files, tmp_path, at, value):
        # the real part of the first sample, the imaginary part of a middle
        # one, the imaginary part of the last
        d, spec, f, sd = fixture_files
        data = bytearray((d / "fx.gfn").read_bytes())
        offset = {"first": 45, "middle": 45 + 16 * (f.samples.size // 2) + 8,
                  "last": len(data) - 8}[at]
        data[offset: offset + 8] = struct.pack("<d", value)
        path = tmp_path / "x.gfn"
        path.write_bytes(bytes(data))
        with pytest.raises(containers.ContainerError, match="non-finite"):
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


class TestSamplesHeldOnce:
    """The GFN1 writer and reader hold the samples once: tracemalloc peaks
    above each call's entry, at n = 1, nx 96, nt 96 (14 MB of samples)."""

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        shape = (96, 96, 96)
        xg, tg = fft_grid(96, 10.0), fft_grid(96, 5.0)
        f = GridFunction(1, xg, xg, tg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return f, tmp_path_factory.mktemp("big") / "big.gfn"

    @staticmethod
    def peak_above_entry(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_makes_no_copy(self, big):
        f, path = big
        _, peak = self.peak_above_entry(lambda: containers.write_gfn(str(path), f))
        assert peak <= 0.1 * f.samples.nbytes

    def test_read_holds_the_samples_once(self, big):
        f, path = big
        containers.write_gfn(str(path), f)
        g, peak = self.peak_above_entry(lambda: containers.read_gfn(str(path)))
        assert np.array_equal(g.samples, f.samples)
        assert peak <= 1.1 * f.samples.nbytes


# every CLI flag but synth's --tune-grid
ALL_FLAGS = ("--n", "--A", "--B", "--seed", "--tol", "--grid", "--kmax", "--lambda-grid",
             "-i", "-o")
SYNTH_FLAGS = {"--A", "--B", "--seed", "--n", "--grid", "--kmax", "--lambda-grid"}
# argv head of each command and suite -> the flags it reads
READS = {
    ("synth",): SYNTH_FLAGS | {"-o"},
    ("detect",): {"-i", "-o"},
    ("euclid",): {"--seed", "--tol", "-o"},
    ("verify", "plancherel"): SYNTH_FLAGS | {"--tol", "-o"},
    ("verify", "inversion"): SYNTH_FLAGS | {"--tol", "-o"},
    ("verify", "gutzmer"): SYNTH_FLAGS | {"--tol", "-i", "-o"},
    ("verify", "heat-image"): SYNTH_FLAGS | {"--tol", "-i", "-o"},
    ("verify", "gauss-bessel"): {"--tol", "-o"},
    ("verify", "lemma63"): {"--tol", "-o"},
    ("verify", "thm35"): SYNTH_FLAGS | {"-i", "-o"},
    ("verify", "euclid"): {"--seed", "--tol", "-o"},
}
UNREAD = [(cmd, flag) for cmd, reads in READS.items() for flag in ALL_FLAGS
          if flag not in reads]
READ = [(cmd, flag) for cmd, reads in READS.items() for flag in ALL_FLAGS if flag in reads]


def flag_argv(cmd, flag, d):
    """argv of cmd with its required flags and `flag` set, every path inside d."""
    value = {"-i": str(d / "fx"), "-o": str(d / "out"), "--lambda-grid": "11",
             "--tol": "1e-3"}.get(flag, "2")
    required = {"synth": ["-o", str(d / "out")], "detect": ["-i", str(d / "fx.spd")]}
    head = required.get(cmd[0], [])
    return [*cmd, *([] if flag in head else head), flag, value]


# argv head of every COMMANDS and SUITES row
ROWS = [(c,) for c in COMMANDS] + [("verify", s) for s in SUITES]


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

    def test_heat_image_nan_row_fails(self, monkeypatch, capsys):
        # nan at the last t only, as an overflow gives it: the spread must
        # not skip it
        from gutzmerlab import heatlab

        real = heatlab.heat_image_norm
        monkeypatch.setattr(heatlab, "heat_image_norm",
                            lambda sd, t: float("nan") if t == 0.4 else real(sd, t))
        assert self.run_cli("verify", "heat-image", "--grid", "24", "--kmax", "4") == 1
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows and all(r.endswith(",FAIL") for r in rows)

    @pytest.mark.parametrize("argv", [["synth", "-o", "x"], ["verify", "plancherel"]])
    def test_memory_error_exits_2(self, monkeypatch, tmp_path, capsys, argv):
        # a failed allocation is reported in one line, as a configuration
        # error is; nothing large is allocated here
        from gutzmerlab import spectral

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.00 GiB for an array")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(spectral, "synth_bandlimited", refuse)
        assert self.run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 6.00 GiB for an array\n"
        assert not list(tmp_path.iterdir())

    def test_commands_call_the_owning_modules(self, monkeypatch, fixture_files, tmp_path):
        # a command reads the function from the module that defines it when it
        # runs, so a patch there (as bench/tracer.py makes) sees the call
        from gutzmerlab import complexification, spectral

        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(spectral, "synth_bandlimited")
        spy(complexification, "detect_bandlimit")
        d, spec, f, sd = fixture_files
        assert self.run_cli("synth", "--grid", "24", "--kmax", "4", "-o", str(tmp_path / "fx")) == 0
        assert self.run_cli("detect", "-i", str(d / "fx.spd"), "-o", str(tmp_path / "r.json")) == 0
        assert calls == ["synth_bandlimited", "detect_bandlimit"]

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

    @pytest.mark.parametrize("argv", [["synth", "--seed", "-1"],
                                      ["verify", "plancherel", "--seed", "-1"],
                                      ["verify", "euclid", "--seed", "-1"],
                                      ["synth", "--lambda-grid", "7"],
                                      ["synth", "--lambda-grid", "10"],
                                      ["verify", "thm35", "--lambda-grid", "10"]])
    def test_bad_seed_or_lambda_count_exits_2(self, tmp_path, capsys, argv):
        # refused by the parser, which names the flag
        assert self.run_cli(*argv, "-o", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be" in err
        assert "configuration error" not in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value", [("--seed", "0"), ("--lambda-grid", "9"),
                                            ("--lambda-grid", "11")])
    def test_seed_and_lambda_count_bounds_parse(self, flag, value):
        args = build_parser().parse_args(["synth", flag, value, "-o", "x"])
        assert getattr(args, flag[2:].replace("-", "_")) == int(value)

    @pytest.mark.parametrize("argv", [["synth", "--B", "inf"], ["synth", "--A", "nan"],
                                      ["verify", "plancherel", "--A", "nan"],
                                      ["verify", "plancherel", "--B", "inf"]])
    def test_non_finite_band_exits_2(self, tmp_path, capsys, argv):
        assert self.run_cli(*argv, "-o", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "must be positive" in err
        assert "configuration error" not in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["synth"], ["verify", "plancherel"],
                                      ["verify", "inversion"], ["verify", "gutzmer"],
                                      ["verify", "heat-image"], ["verify", "thm35"]])
    def test_band_beyond_grid_exits_2(self, tmp_path, capsys, argv):
        # the grid-resolution check of synth_bandlimited reaches every command
        # that synthesizes a fixture
        assert self.run_cli(*argv, "--A", "50", "-o", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "A larger than the grid can resolve" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["synth", "--A", "1e-300"], ["verify", "thm35", "--A", "1e-9"]])
    def test_band_inside_the_puncture_exits_2(self, tmp_path, capsys, argv):
        # every lambda node below LAM_MIN: refused by name, not by numpy
        assert self.run_cli(*argv, "-o", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: A = ") and "LAM_MIN" in err
        assert "zero-size" not in err and "Traceback" not in err
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
        bl = sd.achieved_band()
        assert abs(doc["A_hat"] - bl.A) <= 0.05 * bl.A
        assert abs(doc["B_hat"] - bl.B) <= 0.05 * bl.B
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

    @pytest.mark.parametrize("cmd", [("verify", "gauss-bessel"), ("verify", "lemma63"),
                                     ("euclid",)])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, cmd, tol):
        code = self.run_cli(*cmd, "--tol", tol, "-o", str(tmp_path / "r.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_zero_tolerance_accepted(self, tmp_path):
        assert build_parser().parse_args(["verify", "gauss-bessel", "--tol", "0"]).tol == 0.0
        code = self.run_cli("verify", "gauss-bessel", "--tol", "0", "-o", str(tmp_path / "r.csv"))
        assert code in (0, 1)
        assert len(open(tmp_path / "r.csv").read().strip().splitlines()) == 25

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

    @pytest.mark.parametrize("cmd", ROWS, ids=" ".join)
    def test_help_for_every_table_row(self, capsys, cmd):
        assert self.run_cli(*cmd, "--help") == 0
        assert "usage: gutzmerlab " + " ".join(cmd) in capsys.readouterr().out

    @pytest.mark.parametrize("cmd,flag", UNREAD, ids=[f"{' '.join(c)} {f}" for c, f in UNREAD])
    def test_unread_flag_exits_2(self, tmp_path, monkeypatch, capsys, cmd, flag):
        monkeypatch.chdir(tmp_path)
        assert self.run_cli(*flag_argv(cmd, flag, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("cmd,flag", READ, ids=[f"{' '.join(c)} {f}" for c, f in READ])
    def test_read_flag_parses(self, tmp_path, cmd, flag):
        args = build_parser().parse_args(flag_argv(cmd, flag, tmp_path))
        dest = {"-i": "input", "-o": "output"}.get(flag, flag[2:].replace("-", "_"))
        assert getattr(args, dest) is not None

    def test_synth_never_imports_numpy_ma(self, tmp_path):
        # numpy.ma costs a cold CLI process about 14 ms to import, and no
        # step of synth needs it (np.unique, for one, imports it);
        # numpy.polynomial costs about 0.9 MiB, and only the tests'
        # Gauss-Hermite oracle reads it; --help loads no numpy at all
        for argv in (["synth", "--A", "1", "--B", "9", "--tune-grid", "-o", str(tmp_path / "fx")],
                     ["--help"]):
            out = subprocess.run([sys.executable, "-X", "importtime", "-m", "gutzmerlab.cli",
                                  *argv], capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                        if line.startswith("import time:")]
            numpy_modules = [m for m in imported if m.split(".")[0] == "numpy"]
            if argv == ["--help"]:
                assert not numpy_modules
                continue
            assert "gutzmerlab.spectral" in imported
            assert not [m for m in numpy_modules if m.split(".")[1:2] in (["ma"], ["polynomial"])]

    @pytest.mark.parametrize("argv", [["verify", "gauss-bessel"], ["verify", "lemma63"],
                                      ["euclid"]], ids=["gauss-bessel", "lemma63", "euclid"])
    def test_closed_form_and_flat_steps_load_no_transform(self, tmp_path, argv):
        # the closed-form heat identities and the flat model need growth,
        # specfun and grids: no module of the H^n transform loads
        out = subprocess.run([sys.executable, "-X", "importtime", "-m", "gutzmerlab.cli",
                              *argv, "-o", str(tmp_path / "out")], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "gutzmerlab.growth" in imported
        transform = {"spectral", "hermite_modes", "heisenberg_core", "complexification"}
        assert not imported & {f"gutzmerlab.{m}" for m in transform}

    def test_parsing_loads_no_numerics(self):
        # --help, usage errors and flag checks answer from the standard library
        argvs = [["--help"], *([*row, "--help"] for row in ROWS), ["verify"],
                 ["detect", "-i", "fx.spd", "--seed", "1"], ["synth", "--A", "1"],
                 ["synth", "--seed", "-1", "-o", "fx"],
                 ["synth", "--lambda-grid", "10", "-o", "fx"]]
        got = run_child("import contextlib, io, json, sys\nfrom gutzmerlab.cli import main\n"
                        "report = []\n"
                        f"for argv in {argvs!r}:\n"
                        "    with contextlib.redirect_stdout(io.StringIO()), "
                        "contextlib.redirect_stderr(io.StringIO()):\n"
                        "        code = main(argv)\n"
                        "    report.append([code, sorted(m for m in sys.modules if\n"
                        "        m.split('.')[0] in ('numpy', 'gutzmerlab'))])\n"
                        "print(json.dumps(report))\n")
        loaded = ["gutzmerlab", "gutzmerlab.cli"]
        assert got == [[0 if "--help" in argv else 2, loaded] for argv in argvs]

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "gutzmerlab.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "synth" in out.stdout


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# how each entry path loads the CLI: `-m gutzmerlab.cli` (runpy imports the
# package first, as -m does), the console script, and a caller that loaded
# numpy before the CLI
ENTRIES = {
    "module": "import runpy, sys\nsys.argv = ['gutzmerlab', '--help']\ntry:\n"
              "    runpy.run_module('gutzmerlab.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n    assert exc.code == 0\n",
    "console": "from gutzmerlab.cli import main\n",
    "numpy first": "import numpy\nfrom gutzmerlab.cli import main\n",
}


def run_child(code: str, **thread_vars) -> dict:
    """The JSON object that `code` prints last, run in a fresh interpreter whose
    environment sets exactly `thread_vars` of THREAD_VARS."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", code], env={**env, **thread_vars},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


class TestProcessStart:
    REPORT = f"import json, os\nprint(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))\n"

    def test_package_import_loads_no_numpy(self):
        got = run_child("import json, os, sys\nimport gutzmerlab\n"
                        "report = {'numpy': 'numpy' in sys.modules,\n"
                        f"          'vars': [os.environ.get(v) for v in {THREAD_VARS!r}]}}\n"
                        "import gutzmerlab.spectral\n"
                        "report['same'] = gutzmerlab.analyze is gutzmerlab.spectral.analyze\n"
                        "report['unlisted'] = sorted(set(gutzmerlab.__all__) - set(dir(gutzmerlab)))\n"
                        "print(json.dumps(report))\n")
        assert got == {"numpy": False, "vars": [None, None, None], "same": True, "unlisted": []}

    @pytest.mark.parametrize("entry", ["module", "console"])
    def test_cli_starts_one_blas_thread(self, entry):
        got = run_child(ENTRIES[entry] + self.REPORT)
        assert got == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                       "OMP_NUM_THREADS": None}

    @pytest.mark.parametrize("entry, var", [(e, v) for e in ENTRIES for v in THREAD_VARS]
                             + [("numpy first", None)])
    def test_cli_keeps_the_callers_threads(self, entry, var):
        # any one variable set, or numpy loaded before the CLI, is the caller's choice
        set_vars = {} if var is None else {var: "3"}
        got = run_child(ENTRIES[entry] + self.REPORT, **set_vars)
        assert got == {v: set_vars.get(v) for v in THREAD_VARS}

    def test_thread_count_does_not_change_the_files(self, tmp_path):
        # fixtures are pinned byte for byte, whatever pool OpenBLAS starts
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        outputs = []
        for threads in ("1", "2"):
            fx = str(tmp_path / f"fx{threads}")
            for argv in (["synth", "--A", "1", "--B", "9", "--tune-grid", "--seed", "5", "-o", fx],
                         ["detect", "-i", fx + ".spd", "-o", fx + ".json"]):
                out = subprocess.run([sys.executable, "-m", "gutzmerlab.cli", *argv],
                                     env={**env, "OPENBLAS_NUM_THREADS": threads},
                                     capture_output=True, text=True)
                assert out.returncode == 0, out.stderr
            outputs.append([(tmp_path / f"fx{threads}{ext}").read_bytes()
                            for ext in (".gfn", ".spd", ".json")])
        assert outputs[0] == outputs[1]


POOL_CHILD = """
import json, os, time
import numpy as np
from gutzmerlab import spectral
from gutzmerlab.grids import QuadratureSpec, fft_grid
from gutzmerlab.hermite_modes import ModalSliceND, multiindices_upto


def helper_cpu():
    # user + system CPU seconds of every thread but the main one
    total = 0
    for task in os.listdir('/proc/self/task'):
        if int(task) != os.getpid():
            with open(f'/proc/self/task/{task}/stat') as fh:
                fields = fh.read().rsplit(')', 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total / os.sysconf('SC_CLK_TCK')


threads = len(os.listdir('/proc/self/task'))
time.sleep(0.3)      # the pool's threads spin for a while after they start, too
before = helper_cpu()
spec = QuadratureSpec()
f, sd = spectral.synth_bandlimited(1.0, 9.0, 5, spec=spec)
spectral.invert_grid(spectral.analyze(f, sd.lgrid, spec.kmax, spec), f.tgrid)
# the benchmark's n = 2 spec: a field on its tensor grid, then analyze
spec2 = QuadratureSpec(n=2, nx=16, lx=7.5, nt=24, nodes_per_A=2, margin_nodes=1, kmax=2,
                       beta_cap=3, fit_tol=1e-6)
lgrid = spectral.LambdaGrid.build(spec2, 1.0)
x = fft_grid(spec2.nx, spec2.lx)
z = np.stack(np.broadcast_arrays(x[:, None, None, None] + 1j * x[None, None, :, None],
                                 x[None, :, None, None] + 1j * x[None, None, None, :]), axis=-1)
modes = [(a, b) for b in multiindices_upto(2, 1) for a in multiindices_upto(2, 2)]
lam = lgrid.lam[0]
field = ModalSliceND(lam, 2, modes, np.ones(len(modes))).field(z, np.conj(z))
tg = fft_grid(spec2.nt, lgrid.t_half_window)
g = spectral.GridFunction(2, x, x, tg, field[..., None] * np.exp(-1j * lam * tg))
spectral.analyze(g, lgrid, spec2.kmax, spec2)
time.sleep(0.3)      # a woken helper thread spins on for about 0.13 s
print(json.dumps({'threads': threads, 'helper_s': helper_cpu() - before}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_desk_products_leave_the_blas_pool_asleep():
    # synth, analyze and invert_grid at the desk spec, then an n = 2 field and
    # analyze, under OpenBLAS's default pool: every product stays under its
    # single-thread size, so the pool's helper threads burn no CPU (one wake
    # costs them 0.13 s or more)
    got = run_child(POOL_CHILD)
    if got["threads"] == 1:
        pytest.skip("OpenBLAS started one thread: there is no pool to wake")
    assert got["helper_s"] < 0.05


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


@FUZZ
@given(data=st.data())
def test_fuzz_norms2_table_against_the_blocks(tiny_files, data):
    # one cell of the table rewritten: within 1e-12 of the largest entry it
    # reads back as what the blocks give, further away it is refused, and
    # detect exits 2
    sd = containers.read_spd(str(tiny_files / "ok.spd"))
    top = float(np.max(sd.norms2))
    k = data.draw(st.integers(0, sd.kmax))
    j = data.draw(st.integers(0, sd.lam.size - 1))
    near = sd.norms2[k, j] + top * data.draw(st.floats(-1e-12, 1e-12))
    value = data.draw(st.floats(0.0, 2.0 * top) | st.just(max(near, 0.0)) | st.just(0.0))
    norms2 = sd.norms2.copy()
    norms2[k, j] = value
    path = tiny_files / "norms2.spd"
    path.write_bytes(spd1_bytes(sd, flags=2, norms2=norms2))
    if abs(value - sd.norms2[k, j]) <= 1e-12 * top:
        assert np.array_equal(containers.read_spd(str(path)).norms2, sd.norms2)
        return
    with pytest.raises(containers.ContainerError, match="norms2"):
        containers.read_spd(str(path))
    assert main(["detect", "-i", str(path), "-o", str(tiny_files / "norms2.json")]) == 2


@settings(max_examples=20, deadline=None)
@given(A=st.floats(0.3, 1.6), B=st.floats(0.2, 12.0), seed=st.integers(0, 2 ** 32 - 1),
       tune=st.booleans())
def test_every_synth_spd_reads(tiny_files, A, B, seed, tune):
    spec = QuadratureSpec(nx=24, lx=8.0, nt=16, nodes_per_A=4, margin_nodes=1, kmax=4,
                          beta_cap=8)
    try:
        _, sd = synth_bandlimited(A, B, seed=seed, spec=spec, tune_grid=tune)
    except SpectralError:
        return
    path = tiny_files / "synth.spd"
    containers.write_spd(str(path), sd)
    assert np.array_equal(containers.read_spd(str(path)).norms2, sd.norms2)
