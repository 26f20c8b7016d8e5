"""The benchmark's workloads: inputs made from the seed, one op each, its checks.

Every op returns an OpResult whose `checks` map a check name to whether it
passed (at the acceptance tolerances in TOL) and whose `checksum` lists the
values a faster path must reproduce exactly.  An op fails when any check
fails or when it raises; run.py counts those failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "cli_launcher.py"
WORK = ROOT / ".bench_work"

# calls go through the module attributes, so the tracer's wrappers see them
from gutzmerlab import complexification, hermite_modes, spectral  # noqa: E402
from gutzmerlab.grids import QuadratureSpec, fft_grid  # noqa: E402
from gutzmerlab.heisenberg_core import ComplexPoint  # noqa: E402
from gutzmerlab.spectral import GridFunction, LambdaGrid  # noqa: E402

# acceptance tolerances (README "Install and test"; tests/test_acceptance.py,
# tests/test_spectral.py::TestAnalyzeN2)
TOL = {
    "plancherel_n1": 1e-4,
    "inversion_n1": 1e-4,
    "plancherel_n2": 1e-7,
    "gutzmer_relerr": 1e-3,
    "detect_band": 0.05,
}
N1_BAND = (1.0, 9.0)
N2_SPEC = dict(n=2, nx=16, lx=7.5, nt=24, nodes_per_A=2, margin_nodes=1, kmax=2,
               beta_cap=3, fit_tol=1e-6)
ORBITAL_BOX = (1.5, 1.0)          # sqrt(y^2 + v^2) <= 1.5, |eta| <= 1
CLI_BANDS = ((1.0, 9.0), (0.5, 2.0))
STEP_TIMEOUT_S = 150.0

# op indices outside the measured range 0, 1, 2, ...
WARMUP = 1_000_000                # + k for the k-th set-up in a run
FIXTURE = 2_000_000


def rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def draw_seed(seed: int, index: int) -> int:
    return int(rng(seed, index).integers(2 ** 31 - 1))


@dataclass
class OpResult:
    checks: dict                      # check name -> passed
    checksum: list                    # values a faster path must reproduce
    bytes_written: int = 0
    steps: list = field(default_factory=list)   # cli_chain: (name, wall_s, exit code, spans file)



# ---------------------------------------------------------------------------
# analysis: the real-point projection path, n = 1 and n = 2
# ---------------------------------------------------------------------------

def n2_grid(spec: QuadratureSpec):
    """Tensor grid of the independent complex coordinates, shape (nx,)*4 + (2,)."""
    xg = fft_grid(spec.nx, spec.lx)
    shape = (spec.nx,) * 4
    axes = []
    for ax in range(2):
        sx, su = [1] * 4, [1] * 4
        sx[ax] = su[2 + ax] = spec.nx
        axes.append(xg.reshape(sx) + 1j * xg.reshape(su) + np.zeros(shape))
    return xg, np.stack(axes, axis=-1)


def n2_fixture(r: np.random.Generator, spec: QuadratureSpec) -> GridFunction:
    """n = 2 grid function with random coefficients on every admissible mode.

    The admissible set is the one analyze projects onto (levels up to the
    populable level, free indices up to acap_for_k, pair_fits on both).
    Coefficients are tapered by e^{-(|alpha|+|beta|)}: this 16^4 grid resolves
    the outer modes' norms only to ~3e-7, so equal weights would sit on the
    quadrature floor of the 1e-7 Plancherel tolerance.
    """
    lgrid = LambdaGrid.build(spec, 1.0)
    xg, zc = n2_grid(spec)
    tg = fft_grid(spec.nt, lgrid.t_half_window)
    samples = np.zeros(zc.shape[:-1] + (spec.nt,), dtype=complex)
    for j, lv in enumerate(lgrid.lam):
        modes = []
        for kb in range(min(spec.kmax, spec.max_radial_level(lv)) + 1):
            acap = max(spec.acap_for_k(kb, lv, spec.beta_cap), 0)
            for beta in hermite_modes.multiindices(2, kb):
                modes += [(alpha, beta) for alpha in hermite_modes.multiindices_upto(2, acap)
                          if spec.pair_fits(sum(alpha), kb, lv)]
        if not modes:
            continue
        degree = np.array([sum(a) + sum(b) for a, b in modes])
        coef = (r.standard_normal(len(modes)) + 1j * r.standard_normal(len(modes))) * np.exp(-degree)
        fld = hermite_modes.ModalSliceND(lv, 2, modes, coef).field(zc, np.conj(zc))
        scale = (2.0 * np.pi / abs(lv)) ** 2
        samples += (lgrid.wmu[j] * scale * fld)[..., None] * np.exp(-1j * lv * tg)
    return GridFunction(2, xg, xg, tg, samples, schwartz=True)


def analysis_inputs(seed: int, index: int, n2_spec: QuadratureSpec):
    """(n = 1 synthesis seed, n = 2 grid function) of op `index`."""
    r = rng(seed, index)
    return int(r.integers(2 ** 31 - 1)), n2_fixture(r, n2_spec)


def interior_relerr(f: GridFunction, f_back: GridFunction) -> float:
    N = f.xgrid.size
    sl = (slice(N // 4, 3 * N // 4),) * 2 + (slice(None),)
    num = float(np.max(np.abs(f_back.samples[sl] - f.samples[sl])))
    return num / float(np.max(np.abs(f.samples[sl])))


class Analysis:
    def __init__(self, seed: int, spec: QuadratureSpec | None = None,
                 n2_spec: QuadratureSpec | None = None):
        self.seed = seed
        self.spec = spec or QuadratureSpec()
        self.n2_spec = n2_spec or QuadratureSpec(**N2_SPEC)

    def specs(self) -> dict:
        return {"n1": self.spec, "n2": self.n2_spec}

    def setup(self, k: int = 0) -> None:
        self.op(WARMUP + k)

    def op(self, index: int) -> OpResult:
        spec, spec2 = self.spec, self.n2_spec
        n1_seed, f2 = analysis_inputs(self.seed, index, spec2)
        f, sd = spectral.synth_bandlimited(*N1_BAND, n1_seed, spec=spec)
        sd1 = spectral.analyze(f, sd.lgrid, spec.kmax, spec)
        rel1 = spectral.plancherel_check(f, sd1)[2]
        rel_inv = interior_relerr(f, spectral.invert_grid(sd1, f.tgrid))
        sd2 = spectral.analyze(f2, LambdaGrid.build(spec2, 1.0), spec2.kmax, spec2)
        rel2 = spectral.plancherel_check(f2, sd2)[2]
        checks = {"plancherel_n1": rel1 <= TOL["plancherel_n1"],
                  "inversion_n1": rel_inv <= TOL["inversion_n1"],
                  "plancherel_n2": rel2 <= TOL["plancherel_n2"]}
        return OpResult(checks, [float(np.sum(sd1.norms2)), float(np.sum(sd2.norms2))])


# ---------------------------------------------------------------------------
# gutzmer_orbital: the complexified-point evaluators on one desk fixture
# ---------------------------------------------------------------------------

def orbital_point(seed: int, index: int) -> tuple:
    """(y, v, eta) uniform in the disc sqrt(y^2+v^2) <= 1.5 times |eta| <= 1."""
    r = rng(seed, index)
    rmax, emax = ORBITAL_BOX
    rad = rmax * np.sqrt(r.random())
    ang = 2.0 * np.pi * r.random()
    eta = emax * (2.0 * r.random() - 1.0)
    return float(rad * np.cos(ang)), float(rad * np.sin(ang)), float(eta)


class GutzmerOrbital:
    def __init__(self, seed: int, spec: QuadratureSpec | None = None):
        self.seed = seed
        self.spec = spec or QuadratureSpec()
        self.sd = None

    def specs(self) -> dict:
        return {"fixture": self.spec}

    def setup(self, k: int = 0) -> None:
        _, self.sd = spectral.synth_bandlimited(*N1_BAND, draw_seed(self.seed, FIXTURE), spec=self.spec)
        self.op(WARMUP + k)

    def op(self, index: int) -> OpResult:
        y, v, eta = orbital_point(self.seed, index)
        p = ComplexPoint.purely_imaginary([y], [v], eta)
        direct = complexification.orbital_direct(self.sd, p, self.spec)
        value = complexification.gutzmer_spectral(self.sd, p)
        rel = abs(direct - value) / abs(value)
        return OpResult({"gutzmer_relerr": rel <= TOL["gutzmer_relerr"]}, [value, direct])


# ---------------------------------------------------------------------------
# cli_chain: one user session, each step a fresh CLI process
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GUTZMERLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def wait_exit(proc: subprocess.Popen, timeout: float) -> bool:
    """Block until `proc` exits (True) or `timeout` passes (False).

    Popen.wait(timeout) polls with sleeps of up to 50 ms, which would add to
    every measured step; a pidfd wakes up when the child exits.
    """
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        try:
            proc.wait(timeout)
            return True
        except subprocess.TimeoutExpired:
            return False
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


def run_child(cmd: list) -> tuple:
    """(exit code or None on timeout, wall seconds) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    exited = wait_exit(proc, STEP_TIMEOUT_S)
    if not exited:
        proc.kill()
    rc = proc.wait()
    return (rc if exited else None), time.perf_counter() - t0


def cli_command(argv: list, spans_path: Path | None = None, memory: bool = False) -> list:
    """The untraced CLI, or the traced launcher writing spans to `spans_path`."""
    if spans_path is None:
        return [sys.executable, "-m", "gutzmerlab.cli", *argv]
    return [sys.executable, str(LAUNCHER), *(["--memory"] if memory else []),
            str(spans_path), "--", *argv]


def chain_inputs(seed: int, index: int) -> tuple:
    """(A, B, synth seed) of chain `index`; (A, B) alternates between the bands."""
    A, B = CLI_BANDS[index % 2]
    return A, B, draw_seed(seed, index)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_all_pass(path: Path) -> bool:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return False
    return bool(rows) and all(r["pass"] == "pass" for r in rows)


class CliChain:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def specs(self) -> dict:
        return {"cli_default": QuadratureSpec()}

    def setup_probe(self) -> float:
        """Wall time of one `gutzmerlab --help` process (its set-up cost)."""
        rc, wall = run_child(cli_command(["--help"]))
        if rc != 0:
            raise RuntimeError(f"gutzmerlab --help exited with {rc}")
        return wall

    def op(self, index: int, span_dir: Path | None = None, memory: bool = False) -> OpResult:
        """One chain; with `span_dir` every step runs under the tracing launcher."""
        A, B, s = chain_inputs(self.seed, index)
        d = self.workdir / "chain"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        fx = str(d / "fx")
        commands = [("synth", ["synth", "--A", str(A), "--B", str(B), "--tune-grid",
                               "--seed", str(s), "-o", fx])]
        for suite, needs_fixture in (("heat-image", True), ("thm35", True),
                                     ("gauss-bessel", False), ("lemma63", False),
                                     ("euclid", False)):
            argv = ["verify", suite] + (["-i", fx] if needs_fixture else [])
            commands.append((suite, argv + ["-o", str(d / f"{suite}.csv")]))
        commands.append(("detect", ["detect", "-i", fx + ".spd", "-o", str(d / "report.json")]))

        checks, steps = {}, []
        for k, (name, argv) in enumerate(commands):
            spans = None
            if span_dir is not None:
                spans = span_dir / f"{index}-{k}-{name}{'-memory' if memory else ''}.json"
            rc, wall = run_child(cli_command(argv, spans, memory))
            steps.append((name, wall, rc, spans))
            checks[f"{name}.exit"] = rc == 0
            if name not in ("synth", "detect"):
                checks[f"{name}.rows"] = csv_all_pass(d / f"{name}.csv")
        try:
            report = json.loads((d / "report.json").read_text())
            a_hat, b_hat = float(report["A_hat"]), float(report["B_hat"])
        except (OSError, ValueError, KeyError, TypeError):
            a_hat = b_hat = float("nan")
        checks["detect.band"] = bool(abs(a_hat - A) <= TOL["detect_band"] * A
                                     and abs(b_hat - B) <= TOL["detect_band"] * B)
        hashes = [sha256(Path(fx + ext)) if Path(fx + ext).exists() else ""
                  for ext in (".gfn", ".spd")]
        written = sum(p.stat().st_size for p in d.iterdir())
        shutil.rmtree(d, ignore_errors=True)
        return OpResult(checks, [a_hat, b_hat] + hashes, written, steps)


WORKLOADS = {"analysis": Analysis, "gutzmer_orbital": GutzmerOrbital, "cli_chain": CliChain}
