"""Hot numeric kernels: the sub-channel law, the Gaussian demapper and the Gallager sums."""
from __future__ import annotations

import numpy as np


# Entries per (labels, outputs) array that the demapper and the quadrature
# work on at once: on a 2-core x86 VM, blocks of this size ran about twice
# as fast as 35k-sample or 16-state ones, which spill out of the caches.
BLOCK_ENTRIES = 1 << 15


def numba_enabled() -> bool:
    return False  # kept for callers that record the kernel path; the kernels are numpy only


def warmup() -> None:
    """No-op, kept for callers written when the kernels were compiled on first use."""


# ---------------------------------------------------------------------------
# The sub-channel law of every channel, read by the demapper and the quadrature:
# log W_s(y_k | b) = log mean_{j in sets[s,b]} p(y_k | x_j) from (m, N) log rows,
# -|y_k - h_k x_j|^2 / n0 - (d/2) log(pi n0) on a d-dimensional constellation
# axis (Gaussian) or log W(y_k | x_j) (Dmc).
# ---------------------------------------------------------------------------


def log_mean(a: np.ndarray, axis: int) -> np.ndarray:
    """log(mean(exp(a))) along ``axis``, shifted by the maximum for stability; -inf on a line that is all -inf."""
    peak = a.max(axis=axis, keepdims=True)
    peak[peak == -np.inf] = 0.0  # an all -inf line would shift to -inf - -inf = NaN
    t = a - peak
    np.exp(t, out=t)  # in place: a second temporary of the input's size costs more than the exp
    m = t.mean(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        np.log(m, out=m)  # in place, as is the shift back: along a short axis m is nearly as large as the input
    m += peak
    return np.squeeze(m, axis)


def log_densities(y, h, points, n0) -> np.ndarray:
    """(M, ...) log densities of real outputs ``y`` (..., d) given each of ``points`` (M, d).

    Entry b is log p(y | h points[b]) for Gaussian noise of variance n0/2
    per real coordinate: -|y - h x_b|^2 / n0 - (d/2) ln(pi n0).  ``h`` is
    a real gain broadcast against the outputs' shape, or None for unit gain.
    """
    lead = (-1,) + (1,) * (y.ndim - 1)
    for r in range(points.shape[1]):
        x = points[:, r].reshape(lead)
        dr = y[..., r] - (x if h is None else x * h)
        dr *= dr  # in place, as below: fresh temporaries of this size cost more than the arithmetic
        if r == 0:
            acc = dr
        else:
            acc += dr
    np.negative(acc, out=acc)
    acc *= 1.0 / n0
    acc -= 0.5 * points.shape[1] * np.log(np.pi * n0)
    return acc


def log_subchannel(log_rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(L, 2, N) log W_s(y|b) from (m, N) log rows; ``sets[s, b]``: labels with bit s = b.

    One level at a time: one (L, 2, m/2, N) gather is ~107 MB for QAM64 at N = 35,000.
    """
    out = np.empty((sets.shape[0], 2, log_rows.shape[1]))
    for s in range(sets.shape[0]):
        out[s] = log_mean(log_rows[sets[s]], 1)
    return out


def llr_batch(y, h, points, n0, sets, llr_max) -> np.ndarray:
    """Per-bit-position LLRs of one constellation axis for a batch of outputs.

    ``y`` holds the axis coordinates of the outputs (N, d), ``h`` the real
    gain of each output (N,) or None, ``points`` the axis points (M, d) and
    ``sets[s, b]`` the axis labels whose bit s equals b.  Returns an
    (L, N) float array in natural-log units, L the axis bit count.
    """
    out = np.empty((sets.shape[0], len(y)))
    step = max(1, BLOCK_ENTRIES // len(points))
    for a in range(0, len(y), step):
        k = slice(a, a + step)
        ls = log_subchannel(log_densities(y[k], None if h is None else h[k], points, n0), sets)
        np.clip(ls[:, 0] - ls[:, 1], -llr_max, llr_max, out=out[:, k])
    return out


# ---------------------------------------------------------------------------
# Gallager integrand sums over output sets grouped by channel state:
# sum_k (mean_x e^{q logd[x, k]})^{1/q} with q = 1/(1+rho) over the rows x
# of an equiprobable input.  A binary sub-channel is the two-row case.
# Each returns one sum per state; the caller weighs the outputs.
# ---------------------------------------------------------------------------


def e0_binary_integral(ld0, ld1, starts, rho):
    """Two-row ``e0_mary_integral``; no library code calls it, ``perfbench/tracing.py`` wraps it."""
    return e0_mary_integral(np.stack([ld0, ld1]), starts, rho)


def e0_mary_integral(logd, starts, rho):
    """Gallager integrand sums of an m-ary equiprobable input: logd (m, ..., N), outputs grouped by state.

    The group of state f starts at output ``starts[f]``; returns (..., F).
    """
    q = 1.0 / (1.0 + rho)
    # accumulate row by row (the order mean(axis=0) adds in): an (m, ..., N)
    # temporary per call is large enough for malloc to map and fault it in
    # anew on every call
    t = np.exp(q * logd[0])
    for row in logd[1:]:
        t += np.exp(q * row)
    t /= logd.shape[0]
    t **= 1.0 / q
    return np.add.reduceat(t, starts, axis=-1)
