"""Reduction of (base channel, labeling) pairs to weighted output grids.

Every information quantity in this package is an expectation (or integral)
over channel outputs.  For a Dmc the output alphabet is finite and exact.
For AWGN each conditioning symbol gets its own Gauss-Hermite grid (a
"Hermite block"): node sums under the plain weights are expectations given
that symbol was sent, and importance weights turn the m blocks side by side
into plain dy-integrals.  Rayleigh-with-CSI adds an outer Gauss-Laguerre
expectation over the fading power |h|^2; the fading phase is folded out
exactly (rotating y and h together leaves every conditional quantity
unchanged because the noise is circularly symmetric), so each Laguerre node
is an AWGN-like view with symbols scaled by |h|.

Moments are reduced block by block (``moment_table``, gated by node
doubling).  E0 needs whole-grid sums for many rho values, so it works on
stored "snapshots" (``get_ensemble``): per fading node, the blocks'
log-density rows per label, sub-channel log densities, integration weights
and a probability weight.  Both results, and the per-rho E0 integrals, are
kept in one bounded cache keyed by (channel, constellation).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss

from . import kernels
from .channel import Awgn, ChannelModel, Dmc
from .constellation import Constellation, int_to_bits
from .subchannel import label_sets, subchannel_matrix

GH_NODES = 32  # Gauss-Hermite nodes per real dimension
GL_NODES = 64  # Gauss-Laguerre nodes on |h|^2
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


def _dmc_snapshot(base: Dmc, cons: Constellation) -> Snapshot:
    with np.errstate(divide="ignore"):
        return Snapshot(
            1.0, np.ones(base.ny), np.log(subchannel_matrix(base, cons)), np.log(base.matrix[cons.labels])
        )


def _fading_nodes(base: ChannelModel, gl: int) -> tuple[np.ndarray, np.ndarray]:
    """|h| and probability weight of each fading node (one unit node for AWGN)."""
    if isinstance(base, Awgn):
        return np.ones(1), np.ones(1)
    t, w = laggauss(gl)
    return np.sqrt(t), w / w.sum()  # E over |h|^2 ~ Exp(1)


@lru_cache(maxsize=8)
def _hermite_rule(gh: int) -> tuple[np.ndarray, np.ndarray]:
    """2-D Gauss-Hermite rule for CN(0, 1): complex offsets and weights summing to 1."""
    t, w = hermgauss(gh)
    wk = (w[:, None] * w[None, :]).ravel() / np.pi
    rule = (t[:, None] + 1j * t[None, :]).ravel(), wk / wk.sum()
    for a in rule:
        a.setflags(write=False)  # shared by every caller through the cache
    return rule


def _symbol_block(sym: np.ndarray, j: int, n0: float, gh: int):
    """Symbol j's Hermite block: log densities on the grid around ``sym[j]``.

    Returns ``(log_rows, log_sub, log_pbar, wk)``: ``log_rows[b]`` is
    log p(y | sym[b]) (m, K), ``log_sub`` the sub-channel log densities
    (L, 2, K), ``log_pbar`` the log uniform-input output density (K,), and
    ``wk`` the plain weights under which node sums are expectations given
    sym[j] was sent.
    """
    dz, wk = _hermite_rule(gh)
    log_rows = kernels.log_densities(sym[j] + np.sqrt(n0) * dz, None, sym, n0)
    sets = label_sets(int(np.log2(sym.size)))
    return log_rows, kernels.log_subchannel(log_rows, sets), kernels.log_mean(log_rows, 0), wk


def _awgn_snapshot(sym: np.ndarray, n0: float, gh: int, weight: float) -> Snapshot:
    """The m Hermite blocks side by side, with importance weights wk / (m * pbar)."""
    m, K = sym.size, gh * gh
    log_rows = np.empty((m, m * K))
    log_sub = np.empty((int(np.log2(m)), 2, m * K))
    log_pbar = np.empty(m * K)
    for j in range(m):
        blk = slice(j * K, (j + 1) * K)
        log_rows[:, blk], log_sub[..., blk], log_pbar[blk], wk = _symbol_block(sym, j, n0, gh)
    int_w = np.exp(np.log(np.tile(wk, m) / m) - log_pbar)
    return Snapshot(weight, int_w, log_sub, log_rows)


def iter_snapshots(base: ChannelModel, cons: Constellation) -> Iterator[Snapshot]:
    """Yield the conditional-channel snapshots of (base, cons) one at a time."""
    if isinstance(base, Dmc):
        yield _dmc_snapshot(base, cons)
        return
    for scale, w in zip(*_fading_nodes(base, GL_NODES)):
        yield _awgn_snapshot(scale * cons.symbols, base.n0, GH_NODES, float(w))


# ---------------------------------------------------------------------------
# Streaming information-density moments (first and second, bits) with a
# node-doubling convergence gate for continuous channels.
# ---------------------------------------------------------------------------


def _snapshot_moments(snap: Snapshot):
    """(m1, m2, cm) of one finite-output snapshot, bits."""
    log_pbar = kernels.log_mean(snap.log_mary, 0)
    m = snap.log_mary.shape[0]
    out = []
    # information densities of the sub-channels (conditioning bit has mass
    # 1/2) and of the full input (conditioning label has mass 1/m)
    for ld, share, axes in ((snap.log_sub, 0.5, (1, 2)), (snap.log_mary, 1.0 / m, None)):
        d = np.exp(ld)
        with np.errstate(invalid="ignore"):
            i = np.where(d > 0, (ld - log_pbar) / LN2, 0.0)
        mass = d * snap.int_w * share
        out.append(((mass * i).sum(axis=axes), (mass * i * i).sum(axis=axes)))
    (m1, m2), cm = out
    return m1, m2, np.array(cm)


def _awgn_moment_pass(sym: np.ndarray, n0: float, gh: int, weight: float, m1, m2, cm) -> None:
    """Accumulate moments for one AWGN view, one Hermite block at a time.

    Expectations conditioned on symbol j are integrated on j's own grid with
    plain weights (the conditional density is the grid's weight function, so
    the integrand is just the information density); this is far tighter than
    the importance-weighted union grid, and streaming blocks keeps memory at
    m x gh^2 regardless of node escalation.
    """
    m = sym.size
    L = int(np.log2(m))
    arangeL = np.arange(L)
    lab_bits = int_to_bits(np.arange(m), L)  # (m, L)
    for j in range(m):
        log_rows, log_sub, log_pbar, wk = _symbol_block(sym, j, n0, gh)
        isel = (log_sub[arangeL, lab_bits[j]] - log_pbar) / LN2  # i of the bit values sent
        io = (log_rows[j] - log_pbar) / LN2  # i of the symbol sent
        m1 += weight * (isel @ wk) / m
        m2 += weight * ((isel * isel) @ wk) / m
        cm += weight * np.array([io @ wk, (io * io) @ wk]) / m


def _moment_pass(base: ChannelModel, cons: Constellation, gh: int, gl: int):
    if isinstance(base, Dmc):
        return _snapshot_moments(_dmc_snapshot(base, cons))
    m1, m2, cm = np.zeros(cons.L), np.zeros(cons.L), np.zeros(2)
    for scale, w in zip(*_fading_nodes(base, gl)):
        _awgn_moment_pass(scale * cons.symbols, base.n0, gh, float(w), m1, m2, cm)
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
