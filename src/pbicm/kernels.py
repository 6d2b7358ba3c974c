"""Hot numeric kernels: the LLR demapper and the Gallager integrand sums."""
from __future__ import annotations

import numpy as np


def numba_enabled() -> bool:
    return False  # kept for callers that record the kernel path; the kernels are numpy only


def warmup() -> None:
    """No-op, kept for callers written when the kernels were compiled on first use."""


# ---------------------------------------------------------------------------
# LLR demapping: out[s, k] = log sum_{j in sets[s,0]} exp(e_jk)
#                          - log sum_{j in sets[s,1]} exp(e_jk)
# with e_jk = -|y_k - h_k x_j|^2 / n0, clamped to +-llr_max (natural log).
# ---------------------------------------------------------------------------


def _logsumexp_cols(e):
    m = e.max(axis=1)
    return m + np.log(np.exp(e - m[:, None]).sum(axis=1))


def llr_batch(y, h, symbols, n0, sets, llr_max) -> np.ndarray:
    """Per-bit-position LLRs for a batch of received samples.

    ``sets[s, b]`` lists the label integers whose bit s equals b.  ``h`` may
    be None (no fading).  Returns an (L, N) float array in natural-log units.
    """
    y = np.asarray(y, dtype=complex).ravel()
    h = np.ones(y.size) + 0j if h is None else np.asarray(h, dtype=complex).ravel()
    sr, si = symbols.real, symbols.imag
    dr = y.real[:, None] - (h.real[:, None] * sr[None, :] - h.imag[:, None] * si[None, :])
    di = y.imag[:, None] - (h.real[:, None] * si[None, :] + h.imag[:, None] * sr[None, :])
    e = -(dr * dr + di * di) * (1.0 / n0)  # (N, M)
    out = np.empty((sets.shape[0], y.size))
    for s in range(sets.shape[0]):
        a0 = _logsumexp_cols(e[:, sets[s, 0]])
        a1 = _logsumexp_cols(e[:, sets[s, 1]])
        out[s] = np.clip(a0 - a1, -llr_max, llr_max)
    return out


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
