"""Reduction of (base channel, labeling) pairs to weighted output grids.

Every information quantity in this package is an expectation over channel
outputs, and every channel is reduced the same way.  Each label j gets a
"block" of outputs whose weights make node sums expectations given j was
sent; importance weights turn the m blocks side by side into plain sums over
outputs.  A Dmc block is exact: the outputs row j can produce, weighted by
W(y|x_j).  A Gaussian block is the Gauss-Hermite grid around symbol j.
Either way one sum, ``kernels.log_subchannel``, turns every label's log
density at the block's outputs into the sub-channel laws.
Rayleigh-with-CSI adds an outer trapezoid rule in u = ln|h|^2 (density
e^(u - e^u), so equally spaced nodes on a fixed window converge
exponentially at every SNR); the fading phase folds out exactly (rotating y
and h together leaves every conditional quantity unchanged because the noise
is circularly symmetric), so each node is a channel state with symbols
scaled by |h|.  The other channels have one unit state.

Moments are reduced block by block (``moment_table``, gated by node
doubling; a Dmc is exact).  E0 needs whole-grid sums for many rho values, so
it works on stored "snapshots" (``get_ensemble``): per channel state, the
blocks' log-density rows per label, sub-channel log densities, integration
weights and a probability weight.  Both results, and the per-rho E0
integrals, are kept in one bounded cache keyed by (channel, constellation).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import kernels
from .channel import Awgn, ChannelModel, Dmc, RayleighCsi
from .constellation import Constellation, int_to_bits
from .subchannel import dmc_log_rows, label_sets

GH_NODES = 32  # Gauss-Hermite nodes per real dimension
GL_NODES = 64  # trapezoid nodes in ln|h|^2
CONVERGENCE_TOL = 1e-4  # node-doubling acceptance gate
_MAX_DOUBLINGS = 3  # escalation cap before giving up

LN2 = np.log(2.0)


class QuadratureConvergenceError(RuntimeError):
    """Raised when doubling the quadrature nodes moves a result beyond tolerance."""


@dataclass
class Snapshot:
    weight: float
    int_w: np.ndarray  # (K,) weights turning node sums into output integrals
    log_sub: np.ndarray  # (L, 2, K) log sub-channel densities
    log_mary: np.ndarray  # (m, K) log base densities by label


@dataclass
class Ensemble:
    cons: Constellation
    snapshots: list[Snapshot]

    @property
    def L(self) -> int:
        return self.cons.L


def _fading_nodes(base: ChannelModel, gl: int) -> tuple[np.ndarray, np.ndarray]:
    """|h| and probability weight of each channel state (one unit state unless the base is Rayleigh)."""
    if not isinstance(base, RayleighCsi):
        return np.ones(1), np.ones(1)
    # trapezoid rule in u = ln|h|^2: the density of u under |h|^2 ~ Exp(1) is e^(u - e^u)
    u = np.linspace(-40.0, 4.0, gl)
    w = np.exp(u - np.exp(u))
    return np.exp(u / 2), w / w.sum()


@lru_cache(maxsize=8)
def _hermite_rule(gh: int) -> tuple[np.ndarray, np.ndarray]:
    """2-D Gauss-Hermite rule for CN(0, 1): complex offsets and weights summing to 1."""
    t, w = hermgauss(gh)
    wk = (w[:, None] * w[None, :]).ravel() / np.pi
    rule = (t[:, None] + 1j * t[None, :]).ravel(), wk / wk.sum()
    for a in rule:
        a.setflags(write=False)  # shared by every caller through the cache
    return rule


def _symbol_block(base: ChannelModel, cons: Constellation, scale: float, j: int, gh: int):
    """Label j's block: the outputs it can produce, with log densities there.

    Returns ``(log_rows, log_sub, log_pbar, wk)``: ``log_rows[b]`` is
    log p(y | label b) (m, K), ``log_sub`` the sub-channel log densities
    (L, 2, K), ``log_pbar`` the log uniform-input output density (K,), and
    ``wk`` the plain weights under which node sums are expectations given
    label j was sent.  A Gaussian block is the Hermite grid around
    ``scale * symbols[j]``; a Dmc block is exact: the outputs that row j can
    produce, weighted by W(y | j).
    """
    if isinstance(base, Dmc):
        log_rows = dmc_log_rows(base, cons)
        ys = np.flatnonzero(log_rows[j] > -np.inf)
        log_rows, wk = log_rows[:, ys], base.matrix[cons.labels[j], ys]
    else:
        sym = scale * cons.symbols
        dz, wk = _hermite_rule(gh)
        log_rows = kernels.log_densities(sym[j] + np.sqrt(base.n0) * dz, None, sym, base.n0)
    return log_rows, kernels.log_subchannel(log_rows, label_sets(cons.L)), kernels.log_mean(log_rows, 0), wk


def _snapshot(base: ChannelModel, cons: Constellation, scale: float, gh: int, weight: float) -> Snapshot:
    """The m label blocks side by side, with importance weights wk * pi_j / W(y|x_j).

    Block j takes the share pi_j = sqrt W(y|x_j) / sum_k sqrt W(y|x_k) of
    each output (none where W(y|x_j) = 0).  Shares in proportion to
    W(y|x_j) switch labels twice as sharply between symbols, where a
    Hermite block has few nodes: QPSK AWGN 10 dB E0(1) was 1.3e-4 off, now
    2e-6.  The weights integrate the output density to exactly 1: E0(0) = 0.
    """
    m = cons.m
    # block sizes are known up front, so the blocks are written in place
    sizes = np.count_nonzero(dmc_log_rows(base, cons) > -np.inf, axis=1) if isinstance(base, Dmc) else [gh * gh] * m
    ends = np.cumsum([0, *sizes])
    log_rows = np.empty((m, ends[-1]))
    log_sub = np.empty((cons.L, 2, ends[-1]))
    log_pbar = np.empty(ends[-1])
    log_w = np.empty(ends[-1])
    for j in range(m):
        blk = slice(ends[j], ends[j + 1])
        log_rows[:, blk], log_sub[..., blk], log_pbar[blk], wk = _symbol_block(base, cons, scale, j, gh)
        half = 0.5 * log_rows[:, blk]
        log_w[blk] = np.log(wk / m) - half[j] - kernels.log_mean(half, 0)
    int_w = np.exp(log_w)
    int_w /= int_w @ np.exp(log_pbar)
    return Snapshot(weight, int_w, log_sub, log_rows)


def iter_snapshots(base: ChannelModel, cons: Constellation) -> Iterator[Snapshot]:
    """Yield the snapshots of (base, cons) one channel state at a time."""
    for scale, w in zip(*_fading_nodes(base, GL_NODES)):
        yield _snapshot(base, cons, scale, GH_NODES, float(w))


# ---------------------------------------------------------------------------
# Streaming information-density moments (first and second, bits) with a
# node-doubling convergence gate for continuous channels.
# ---------------------------------------------------------------------------


def _moment_pass(base: ChannelModel, cons: Constellation, gh: int, gl: int):
    """Moments from one pass over every channel state, one label block at a time.

    Expectations conditioned on label j are summed on j's own block with
    plain weights (the conditional law is the block's weight function, so
    the integrand is just the information density); this is far tighter than
    the importance-weighted union grid, and streaming blocks keeps memory at
    m x gh^2 regardless of node escalation.
    """
    m, L = cons.m, cons.L
    arangeL = np.arange(L)
    lab_bits = int_to_bits(np.arange(m), L)  # (m, L)
    m1, m2, cm = np.zeros(L), np.zeros(L), np.zeros(2)
    for scale, w in zip(*_fading_nodes(base, gl)):
        weight = float(w)
        for j in range(m):
            log_rows, log_sub, log_pbar, wk = _symbol_block(base, cons, scale, j, gh)
            isel = (log_sub[arangeL, lab_bits[j]] - log_pbar) / LN2  # i of the bit values sent
            io = (log_rows[j] - log_pbar) / LN2  # i of the label sent
            m1 += weight * (isel @ wk) / m
            m2 += weight * ((isel * isel) @ wk) / m
            cm += weight * np.array([io @ wk, (io * io) @ wk]) / m
    return m1, m2, cm


_MOMENT_NAMES = ("sub-channel capacities", "sub-channel second moments", "full-input moments")


def _finite_pass(base: ChannelModel, cons: Constellation, gh: int, gl: int):
    res = _moment_pass(base, cons, gh, gl)
    for name, v in zip(_MOMENT_NAMES, res):
        if not np.all(np.isfinite(v)):
            # more nodes cannot repair a rule that already yields NaN or inf
            raise QuadratureConvergenceError(f"{name} are not finite at gh={gh}, gl={gl} nodes")
    return res


def moment_table(base: ChannelModel, cons: Constellation, *, gh: int = GH_NODES, gl: int = GL_NODES):
    """Sub-channel and full-input information moments, from one pass per node count.

    Returns ``(m1, m2, cm)`` where ``m1[s-1]`` is the sub-channel capacity
    C(W_s) in bits, ``m2[s-1]`` the second moment of its information
    density, and ``cm = (E[i], E[i^2])`` for the full equiprobable input.
    Continuous channels are gated by node doubling: starting from the base
    node counts, all counts double until two successive passes agree within
    ``CONVERGENCE_TOL`` (the finer result is returned), with at most
    ``_MAX_DOUBLINGS`` escalations.  ``QuadratureConvergenceError`` is
    raised when the escalations run out, or at the first pass whose result
    is not finite.
    """
    res = _finite_pass(base, cons, gh, gl)
    if isinstance(base, Dmc):
        return res
    for _ in range(_MAX_DOUBLINGS):
        gh, gl = 2 * gh, 2 * gl
        fine = _finite_pass(base, cons, gh, gl)
        worst = max(float(np.max(np.abs(a - b))) for a, b in zip(res, fine))
        res = fine
        if worst <= CONVERGENCE_TOL:
            return res
    raise QuadratureConvergenceError(
        f"node-doubling check failed at gh={gh}, gl={gl}: max shift {worst:.3e} > {CONVERGENCE_TOL:g}"
    )


# ---------------------------------------------------------------------------
# One bounded cache per (channel, constellation) pair.
# ---------------------------------------------------------------------------


@dataclass
class CacheEntry:
    """Everything computed for one (channel, constellation) pair."""

    moments: tuple | None = None  # gated moment_table result
    ensemble: Ensemble | None = None
    sub_e0: dict[float, np.ndarray] = field(default_factory=dict)  # rho -> 2**-E0_s(rho), all s
    mary_e0: dict[float, float] = field(default_factory=dict)  # rho -> 2**-E0(rho), full input


_CACHE: dict[tuple, CacheEntry] = {}
_CACHE_MAX = 8


def _channel_key(base: ChannelModel) -> tuple:
    if isinstance(base, Dmc):
        return ("dmc", base.matrix.shape, base.matrix.tobytes())
    if isinstance(base, Awgn):
        return ("awgn", base.n0)
    return ("ray", base.n0)


def _cons_key(cons: Constellation) -> tuple:
    return (cons.name, cons.L, cons.points.tobytes(), cons.labels.tobytes())


def cache_entry(base: ChannelModel, cons: Constellation) -> CacheEntry:
    """The cache entry of (base, cons), created on a miss; least recently used goes first."""
    key = (_channel_key(base), _cons_key(cons))
    entry = _CACHE.pop(key, None)
    if entry is None:
        entry = CacheEntry()
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = entry
    return entry


def get_ensemble(base: ChannelModel, cons: Constellation) -> Ensemble:
    """Stored snapshot collection for (base, cons), built once per cache entry."""
    entry = cache_entry(base, cons)
    if entry.ensemble is None:
        entry.ensemble = Ensemble(cons, list(iter_snapshots(base, cons)))
    return entry.ensemble
