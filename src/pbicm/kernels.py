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


# A set whose mean, relative to its output's peak over all labels, is below
# this may have lost precision to underflow; it is summed again on its own.
_SHARED_SHIFT_FLOOR = 2.0**-900
# Shifted log densities are raised to this before the exponential: numpy's exp
# of an argument whose result is subnormal (-745 to -708) took ~100x as long as
# of -700 on a 2-core x86 VM, and one below that ~15x.  A raised term adds at
# most e^-700 < 2^-1009 to its set's mean, under 2^-109 of any mean kept above
# the floor; a mean below it is summed again anyway.
_SHIFTED_MIN = -700.0


def log_subchannel(log_rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(L, 2, N) log W_s(y|b) from (m, N) log rows; ``sets[s, b]``: labels with bit s = b.

    Each output's rows are shifted by its peak over all labels and
    exponentiated once, so a label costs one exponential, not one per level;
    each set is then summed by row adds in a fixed order, which no block
    size changes.  Where a set's mean is below ``_SHARED_SHIFT_FLOOR`` times
    the peak's density, its terms may have underflowed: those entries are
    recomputed by ``log_mean`` of the set alone, which also keeps an all
    -inf set -inf.
    """
    L, _, half = sets.shape
    if half == 1:  # one bit, whose sets are [0] and [1]: the law is the rows themselves, a view, and log_mean's value
        return log_rows.reshape(1, 2, -1)
    flat = sets.reshape(2 * L, half)
    peak = log_rows.max(axis=0)
    peak[peak == -np.inf] = 0.0  # an all -inf output would shift to -inf - -inf = NaN
    e = log_rows - peak
    np.maximum(e, _SHIFTED_MIN, out=e)
    np.exp(e, out=e)
    s = e[flat[:, 0]]
    for c in range(1, half):
        s += e[flat[:, c]]
    s *= 1.0 / half  # exact: a set holds a power of two labels
    low = s < _SHARED_SHIFT_FLOOR
    with np.errstate(divide="ignore"):  # a zero sum is one of the entries replaced below
        np.log(s, out=s)
    s += peak
    if low.any():  # far cheaper than nonzero on a mask that is all False, the common case
        sets_low, k = np.nonzero(low)
        # (half, count) terms gathered by flat index: take returns them C-contiguous, so
        # log_mean reduces them row by row, the order it sums one set's rows in
        s[sets_low, k] = log_mean(np.take(log_rows, flat[sets_low].T * log_rows.shape[1] + k), 0)
    return s.reshape(L, 2, -1)


def llr_batch(y, h, points, n0, sets, llr_max) -> np.ndarray:
    """Per-bit-position LLRs of one constellation axis for a batch of outputs.

    ``y`` holds the axis coordinates of the outputs (N, d), ``h`` the real
    gain of each output (N,) or None, ``points`` the axis points (M, d) and
    ``sets[s, b]`` the axis labels whose bit s equals b.  Returns an
    (L, N) float array in natural-log units, L the axis bit count.
    """
    out = np.empty((sets.shape[0], len(y)))
    # near-equal blocks of about BLOCK_ENTRIES distances, with no short last block, which
    # costs nearly what a full one does: 35,000 QAM64 outputs demapped 5,460 at a time
    # took 4.9 ms in blocks of 4,096 and 1,364, and 4.5 ms in one block each
    blocks = max(1, round(len(y) * len(points) / BLOCK_ENTRIES))
    step = max(1, -(-len(y) // blocks))
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
    # row by row, in a fixed order, keeps E0 bit-stable: np.exp(q * logd).mean(0)
    # changed 8 of 900 E0 integrals over a grid of channels, all on Dmc bases
    # of 8 to 64 labels, by up to 2e-14 relative
    t = np.exp(q * logd[0])
    for row in logd[1:]:
        t += np.exp(q * row)
    t /= logd.shape[0]
    t **= 1.0 / q
    return np.add.reduceat(t, starts, axis=-1)
