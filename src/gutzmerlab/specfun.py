"""Stable special-function evaluation: Hermite, Laguerre, normalized Bessel.

All evaluators work on the weighted / normalized functions directly (never on
bare orthogonal polynomials followed by normalization), so they stay finite
far past the degrees where naive evaluation overflows:

* ``hermite_fn_1d`` uses the three-term recurrence on the L2-normalized
  Hermite functions h_m(x) = H_m(x) e^{-x^2/2} / sqrt(2^m m! sqrt(pi)).
* ``laguerre`` runs the upward Laguerre recurrence (complex arguments OK).
* ``bessel_j_norm`` evaluates j_nu(s) = s^{-nu} J_nu(s) through its entire
  power series in s^2, which on the imaginary axis is a positive-term
  modified-Bessel series (no cancellation, growth ~ e^{|s|}).
* ``log_bessel_j_imag`` sums that positive series in log space, so
  log j_nu(it) stays finite for every finite t.
"""

from __future__ import annotations

from math import comb, gamma, lgamma, log

import numpy as np

HERMITE_DEGREE_CAP = 120
LAGUERRE_DEGREE_CAP = 512


class SpecfunError(ValueError):
    pass


def hermite_fn_1d(m: int, x):
    """Normalized 1-D Hermite function h_m(x), stable weighted recurrence."""
    if m < 0:
        raise SpecfunError("Hermite degree must be >= 0")
    if m > HERMITE_DEGREE_CAP:
        raise SpecfunError(f"degree cap exceeded: Hermite degree {m} > {HERMITE_DEGREE_CAP}")
    x = np.asarray(x)
    h0 = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if m == 0:
        return h0
    h1 = np.sqrt(2.0) * x * h0
    hm1, hm = h0, h1
    for k in range(1, m):
        hp = np.sqrt(2.0 / (k + 1.0)) * x * hm - np.sqrt(k / (k + 1.0)) * hm1
        hm1, hm = hm, hp
    return hm


def laguerre(k: int, order: int, s):
    """Laguerre polynomial L_k^order(s): the last row of laguerre_all."""
    if k < 0 or order < 0:
        raise SpecfunError("Laguerre indices must be non-negative")
    return laguerre_all(k, order, s)[k]


def laguerre_all(kmax: int, order, s, out=None, tops=None):
    """L_m^order(s) for m = 0..kmax stacked on a new leading axis.

    order may be an integer array of s's shape (or broadcasting to it): one
    recurrence then runs every order at once.  out, if given, receives the
    rows: a [kmax+1, *s.shape] array of any strides, so a table can take
    them in its own layout.  tops, if given, holds a non-increasing degree
    for each entry i of the first axis of s (order spans that axis too):
    entry i leaves the recurrence past degree tops[i], and out[m, i] is not
    written for m > tops[i]."""
    if kmax > LAGUERRE_DEGREE_CAP:
        raise SpecfunError(f"degree cap exceeded: Laguerre k {kmax} > {LAGUERRE_DEGREE_CAP}")
    s = np.asarray(s)
    if out is None:
        out = np.empty((kmax + 1,) + s.shape, dtype=s.dtype if s.dtype.kind == "c" else float)
    if tops is not None:
        tops, order = np.asarray(tops), np.asarray(order)
    rows, o, x = out, order, s
    for m in range(kmax + 1):
        if tops is not None:
            live = np.count_nonzero(tops >= m)
            rows, o, x = out[:, :live], order[:live], s[:live]
        if m == 0:
            rows[0] = 1.0
        elif m == 1:
            rows[1] = 1.0 + o - x
        else:
            k = m - 1
            rows[m] = ((2.0 * k + o + 1.0 - x) * rows[k] - (k + o) * rows[k - 1]) / (k + 1.0)
    return out


def laguerre_sums(mtop: int, order: int, s, W):
    """sum_m W[i, m] L_m^order(s), m = 0..mtop, for each weight vector W[i].

    Runs the laguerre_all recurrence keeping only two rows, one scratch row
    and one running sum per vector, all updated in place.  Every sum starts
    at its m = 0 weight (L_0 = 1), added to all sums at once, and from m = 1
    on takes W[i, m] L_m one vector at a time, zero weights skipped.  The
    real scalings act on the float view of the row: numpy's complex-by-real
    division is not correctly rounded (1 ulp off at most), the float view's
    is.  W is [nvec, >= mtop+1]; returns [nvec, *s.shape].
    """
    if mtop > LAGUERRE_DEGREE_CAP:
        raise SpecfunError(f"degree cap exceeded: Laguerre k {mtop} > {LAGUERRE_DEGREE_CAP}")
    s = np.asarray(s)
    W = np.asarray(W)
    rdt = np.dtype(complex if s.dtype.kind == "c" else float)
    out = np.zeros((W.shape[0], s.size), dtype=np.result_type(rdt, W.dtype))
    result = out.reshape((W.shape[0],) + s.shape)
    if mtop < 0 or out.size == 0:
        return result
    s = s.reshape(-1)
    scratch = np.empty(s.shape, dtype=rdt)
    term = scratch if out.dtype == rdt else np.empty(s.shape, dtype=out.dtype)

    def accumulate(m, row):
        for acc, w in zip(out, W[:, m]):
            if w != 0:
                np.multiply(row, w, out=term)
                acc += term

    out += W[:, :1]
    if mtop == 0:
        return result
    prev = np.ones(s.shape, dtype=rdt)
    cur = np.subtract(1.0 + order, s, dtype=rdt)
    accumulate(1, cur)
    for m in range(1, mtop):
        np.subtract(2.0 * m + order + 1.0, s, out=scratch)
        scratch *= cur
        flat = prev.view(float)
        flat *= m + order
        np.subtract(scratch, prev, out=prev)
        flat /= m + 1.0
        prev, cur = cur, prev
        accumulate(m + 1, cur)
    return result


def laguerre_phi(k: int, order: int, rho, lam: float):
    """phi_k^lambda at generalized squared radius rho:

        L_k^{order}( |lambda| rho / 2 ) e^{ -|lambda| rho / 4 }

    order is the Laguerre type n-1 for ambient dimension n.  For a real point
    (x,u), rho = |x|^2 + |u|^2; for the complexified point (2iy, 2iv),
    rho = -4 (|y|^2 + |v|^2); complex in general.  The |lambda| in the
    exponent makes the family an eigenfamily of the twisted Laplacian and
    keeps Plancherel and inversion mutually consistent.
    """
    if lam == 0:
        raise SpecfunError("zero central parameter")
    al = abs(lam)
    val = laguerre(k, order, 0.5 * al * rho) * np.exp(-0.25 * al * rho)
    if np.asarray(rho).dtype.kind != "c":
        return np.real(val)
    return val


def bessel_j_norm(order: int, s):
    """Normalized Bessel j_nu(s) = s^{-nu} J_nu(s), entire in s^2.

    The removable singularity at s = 0 takes the series value 1/(2^nu nu!).
    On the imaginary axis s = it the series has positive terms and equals
    t^{-nu} I_nu(t): real, positive, increasing, growth ~ e^{|t|}.
    """
    if order < 0:
        raise SpecfunError("Bessel order must be >= 0")
    return _bessel_j_norm_real_order(float(order), s)


def _bessel_j_norm_real_order(nu: float, s):
    """Series evaluation of s^{-nu} J_nu(s); nu real >= 0, s complex array."""
    s = np.asarray(s)
    scalar = s.ndim == 0
    w = -np.atleast_1d(s).astype(complex) ** 2 / 4.0  # series variable
    term = np.full(w.shape, 1.0 / (2.0 ** nu * gamma(nu + 1.0)), dtype=complex)
    total = term.copy()
    for m in range(1, 600):
        term = term * w / (m * (nu + m))
        total += term
        if np.max(np.abs(term)) <= 1e-18 * max(np.max(np.abs(total)), 1e-300):
            break
    out = total
    # real where the series is manifestly real (real or purely imaginary s)
    s1 = np.atleast_1d(s)
    if s1.dtype.kind != "c" or np.all(np.abs(s1.real) < 1e-300):
        out = np.real(out)
    return out[0] if scalar else out


def log_sum_exp(x):
    """log sum e^x over the last axis.

    The largest term is taken out of the sum, so a remainder far below it
    keeps its precision (log1p).  A row whose terms are all -inf gives -inf.
    """
    x = np.asarray(x, dtype=float)
    top = np.argmax(x, axis=-1)[..., None]
    mx = np.take_along_axis(x, top, -1)
    rest = np.exp(x - np.where(np.isfinite(mx), mx, 0.0))
    np.put_along_axis(rest, top, 0.0, -1)
    return mx[..., 0] + np.log1p(np.sum(rest, axis=-1))


def log_bessel_j_imag(order: int, t):
    """log j_nu(it) = log(t^{-nu} I_nu(t)) for real t >= 0, nu = order.

    The positive series sum_m (t/2)^{2m} / (2^nu m! (m+nu)!) is summed in log
    space.  Its terms peak near m = t/2 with a width of about sqrt(t/2), so
    the series stops 7 widths past the peak of the largest t, where the rest
    is below double precision.  The work grows linearly with that t.
    """
    t = np.asarray(t, dtype=float)
    if order < 0 or not np.all(np.isfinite(t) & (t >= 0.0)):
        raise SpecfunError("log_bessel_j_imag needs order >= 0 and finite t >= 0")
    flat = t.reshape(-1, 1)
    half = 0.5 * float(np.max(flat, initial=0.0))
    m = np.arange(int(half + 7.0 * np.sqrt(half)) + 30)
    log_fact = np.array([lgamma(k + 1.0) for k in range(m.size + order)])    # log k!
    log_den = order * log(2.0) + log_fact[:m.size] + log_fact[order:]
    terms = np.empty((flat.size, m.size))
    terms[:, 0] = -log_den[0]
    with np.errstate(divide="ignore"):
        terms[:, 1:] = m[1:] * 2.0 * np.log(0.5 * flat) - log_den[1:]    # -inf at t = 0
    return log_sum_exp(terms).reshape(t.shape)


def jhat_imag(nu: float, s):
    """j_nu(i s) normalized to 1 at 0 (positive modified-Bessel series).

    With nu = n/2 - 1 this is the rotation average of e^{-2 xi . R y} over
    SO(n) at |xi||y| = s/2 (I_0(s) for n = 2)."""
    raw = np.real(_bessel_j_norm_real_order(nu, 1j * np.asarray(s, dtype=float)))
    return raw * (2.0 ** nu * gamma(nu + 1.0))


def hilb_compare(k: int, lam: float, r: float, n: int = 1) -> float:
    """Relative gap between phi_k^lambda(2iy,2iv) and its Bessel surrogate.

    Compares the Laguerre value at |(y,v)| = r with
    C_k j_{n-1}(2i sqrt((2k+n)|lam|) r), where C_k makes the two sides agree
    at r = 0 (C_k = binom(k+n-1, k) / j_{n-1}(0); at n = 1 this is exactly
    the binomial since j_0(0) = 1).  Diagnostic only.
    """
    if lam == 0:
        raise SpecfunError("zero central parameter")
    if r < 0:
        raise SpecfunError("radius must be >= 0")
    al = abs(lam)
    phi = laguerre_phi(k, n - 1, -4.0 * r * r, lam)
    j0val = bessel_j_norm(n - 1, 0.0)
    ck = comb(k + n - 1, k) / j0val
    jval = ck * np.real(bessel_j_norm(n - 1, 2j * np.sqrt((2 * k + n) * al) * r))
    return float(abs(phi - jval) / abs(phi))


def binom_weight(k: int, n: int) -> float:
    """k!(n-1)!/(k+n-1)!: the reciprocal multiplicity of the k-th fan level."""
    return 1.0 / comb(k + n - 1, k)
