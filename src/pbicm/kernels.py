"""Hot numeric kernels: the sub-channel law, the Gaussian demapper and the Gallager sums."""
from __future__ import annotations

import numpy as np


def numba_enabled() -> bool:
    return False  # kept for callers that record the kernel path; the kernels are numpy only


def warmup() -> None:
    """No-op, kept for callers written when the kernels were compiled on first use."""


# ---------------------------------------------------------------------------
# The sub-channel law of every channel, read by the demapper and the quadrature:
# log W_s(y_k | b) = log mean_{j in sets[s,b]} p(y_k | x_j) from (m, N) log rows,
# -|y_k - h_k x_j|^2 / n0 - log(pi n0) (Gaussian) or log W(y_k | x_j) (Dmc).
# ---------------------------------------------------------------------------


def log_mean(a: np.ndarray, axis: int) -> np.ndarray:
    """log(mean(exp(a))) along ``axis``, shifted by the maximum for stability; -inf on a line that is all -inf."""
    peak = a.max(axis=axis, keepdims=True)
    peak[peak == -np.inf] = 0.0  # an all -inf line would shift to -inf - -inf = NaN
    with np.errstate(divide="ignore"):
        return np.squeeze(peak, axis) + np.log(np.exp(a - peak).mean(axis=axis))


def log_densities(y, h, symbols, n0) -> np.ndarray:
    """(m, N) log densities of outputs ``y`` given each symbol, in real arithmetic.

    Row b is log p(y_k | h_k symbols[b]) for circularly symmetric complex
    Gaussian noise of total variance n0.  ``h`` may be None (no fading).
    """
    y = np.asarray(y, dtype=complex).ravel()
    sr, si = symbols.real[:, None], symbols.imag[:, None]
    if h is None:
        xr, xi = sr, si
    else:
        h = np.asarray(h, dtype=complex).ravel()
        xr, xi = h.real * sr - h.imag * si, h.real * si + h.imag * sr
    dr, di = y.real - xr, y.imag - xi
    return -(dr * dr + di * di) * (1.0 / n0) - np.log(np.pi * n0)


def log_subchannel(log_rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(L, 2, N) log W_s(y|b) from (m, N) log rows; ``sets[s, b]``: labels with bit s = b.

    One level at a time: one (L, 2, m/2, N) gather is ~107 MB for QAM64 at N = 35,000.
    """
    out = np.empty((sets.shape[0], 2, log_rows.shape[1]))
    for s in range(sets.shape[0]):
        out[s] = log_mean(log_rows[sets[s]], 1)
    return out


def llr_batch(y, h, symbols, n0, sets, llr_max) -> np.ndarray:
    """Per-bit-position LLRs for a batch of received samples.

    ``sets[s, b]`` lists the label integers whose bit s equals b.  ``h`` may
    be None (no fading).  Returns an (L, N) float array in natural-log units.
    """
    ls = log_subchannel(log_densities(y, h, symbols, n0), sets)
    return np.clip(ls[:, 0] - ls[:, 1], -llr_max, llr_max)


# ---------------------------------------------------------------------------
# Gallager integrand sums over a weighted output grid.  ``q = 1/(1+rho)``;
# the binary form computes sum_k w_k * (0.5 e^{q ld0_k} + 0.5 e^{q ld1_k})^{1/q},
# the m-ary form averages rows of a log-density matrix.
# ---------------------------------------------------------------------------


def e0_binary_integral(ld0, ld1, w, rho) -> float:
    """Gallager integrand sum for a binary channel snapshot (equals 2**-E0)."""
    q = 1.0 / (1.0 + rho)
    t = 0.5 * np.exp(q * ld0) + 0.5 * np.exp(q * ld1)
    return float(np.dot(w, t ** (1.0 / q)))


def e0_mary_integral(logd, w, rho) -> float:
    """Gallager integrand sum for an m-ary equiprobable channel snapshot."""
    q = 1.0 / (1.0 + rho)
    # accumulate row by row (the order mean(axis=0) adds in): an (m, K)
    # temporary per call is large enough for malloc to map and fault it in
    # anew on every call
    t = np.exp(q * logd[0])
    for row in logd[1:]:
        t += np.exp(q * row)
    return float(np.dot(w, (t / logd.shape[0]) ** (1.0 / q)))
