"""Reduction of (base channel, labeling) pairs to weighted output grids.

Every information quantity in this package is an expectation over channel
outputs, and every channel is reduced the same way, one independent axis of
the constellation at a time (``constellation.Axis``).  Given the channel
state, complex noise has independent real and imaginary parts, so when a
constellation's real part carries some label bits and its imaginary part the
rest, each bit's sub-channel law is the law of its axis alone and the axes
of one label are independent: BPSK, QPSK, QAM16 and QAM64 run as 1-D PAM
axes with real noise of variance n0/2.  PSK8 does not split and runs as one
2-D axis, and a Dmc base, whose law is given per label, is one exact-block
axis over all bits.

On an axis, each label j gets a "block" of outputs whose weights make node
sums expectations given j was sent; importance weights turn the blocks side
by side into plain sums over outputs.  A Dmc block is exact: the outputs
row j can produce, weighted by W(y|x_j).  A Gaussian block is the d-fold
tensor Gauss-Hermite grid around point j of a d-dimensional axis.  Either
way one sum, ``kernels.log_subchannel``, turns every label's log density at
the block's outputs into the sub-channel laws.  Rayleigh-with-CSI adds an
outer trapezoid rule in u = ln|h|^2 (density e^(u - e^u), so equally spaced
nodes on a fixed window converge exponentially at every SNR); the fading
phase folds out exactly (rotating y and h together leaves every conditional
quantity unchanged because the noise is circularly symmetric), so each node
is a channel state with the points scaled by |h|.  The states are an array
axis of every block.  The other channels have one unit state.

The axes are combined inside each channel state: a sub-channel's moments and
E0 come from its axis, by the same sums as the axis's full input (a
sub-channel is a two-row channel, W_s(y|0) and W_s(y|1)); the full-input
information density is the sum of the axes' (E[i] adds, and E[i^2] =
sum_a E[i_a^2] + 2 sum_{a<b} E[i_a] E[i_b]), and its 2**-E0 is the product
of the axes' Gallager integrals.

One walk over an axis's label blocks (``_label_blocks``: runs of channel
states, the labels inside each run) feeds both reductions.  Moments are
reduced block by block (``moment_table``: one gate loop that starts at
``GH_NODES``/``GL_NODES`` and doubles both counts; a Dmc is exact).  E0
needs whole-grid sums for many rho values, so it works on stored
"snapshots" (``get_ensemble``, at ``GH_NODES``/``GL_NODES``): per axis and
channel state, the blocks' log-density rows per label, sub-channel log
densities, integration weights and a probability weight; an ensemble also
keeps its per-rho E0 integrals.  Channels and constellations are values, so
``functools.lru_cache`` keys the ensembles (here) and the gated moments
(``infotheory._moments``) by the pair itself, 8 pairs each.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import kernels
from .channel import ChannelModel, Dmc, RayleighCsi
from .constellation import Axis, Constellation, int_to_bits
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
    """One axis's label blocks side by side, in every channel state."""

    bits: tuple[int, ...]  # the label bit positions the axis carries
    weight: np.ndarray  # (F,) probability weight of each channel state
    int_w: np.ndarray  # (F, K) weights turning node sums into output integrals
    log_sub: np.ndarray  # (La, 2, F, K) log sub-channel densities of the axis bits
    log_mary: np.ndarray  # (ma, F, K) log axis densities by axis label


@dataclass
class Ensemble:
    cons: Constellation
    snapshots: list[Snapshot]  # one per axis
    sub_e0: dict[float, np.ndarray] = field(default_factory=dict)  # rho -> 2**-E0_s(rho), all s
    mary_e0: dict[float, float] = field(default_factory=dict)  # rho -> 2**-E0(rho), full input

    @property
    def L(self) -> int:
        return self.cons.L

    def sub_integrals(self, rho: float) -> np.ndarray:
        """2**-E0_s(rho) for every sub-channel, computed once per rho."""
        v = self.sub_e0.get(rho)
        if v is None:
            v = np.zeros(self.L)
            for snap in self.snapshots:  # one two-row Gallager sum serves all the axis's bits
                g = kernels.e0_mary_integral(snap.log_sub.swapaxes(0, 1), snap.int_w, rho)  # (La, F)
                v[list(snap.bits)] = g @ snap.weight
            self.sub_e0[rho] = v
        return v

    def mary_integral(self, rho: float) -> float:
        """2**-E0(rho) of the full equiprobable input, computed once per rho."""
        v = self.mary_e0.get(rho)
        if v is None:
            g = 1.0  # the axes are independent given the state: their integrals multiply
            for snap in self.snapshots:
                g = g * kernels.e0_mary_integral(snap.log_mary, snap.int_w, rho)
            v = float(g @ self.snapshots[0].weight)
            self.mary_e0[rho] = v
        return v


def _fading_nodes(base: ChannelModel, gl: int) -> tuple[np.ndarray, np.ndarray]:
    """|h| and probability weight of each channel state (one unit state unless the base is Rayleigh)."""
    if not isinstance(base, RayleighCsi):
        return np.ones(1), np.ones(1)
    # trapezoid rule in u = ln|h|^2: the density of u under |h|^2 ~ Exp(1) is e^(u - e^u)
    u = np.linspace(-40.0, 4.0, gl)
    w = np.exp(u - np.exp(u))
    return np.exp(u / 2), w / w.sum()


@lru_cache(maxsize=8)
def _hermite_rule(gh: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """d-fold tensor Gauss-Hermite rule for N(0, 1/2) per coordinate: offsets (gh**d, d) and weights summing to 1."""
    t, w = hermgauss(gh)
    wk = w
    for _ in range(d - 1):
        wk = (wk[:, None] * w[None, :]).ravel()
    wk = wk / np.pi ** (d / 2)
    rule = np.stack(np.meshgrid(*[t] * d, indexing="ij"), axis=-1).reshape(-1, d), wk / wk.sum()
    for a in rule:
        a.setflags(write=False)  # shared by every caller through the cache
    return rule


def _axes(base: ChannelModel, cons: Constellation) -> tuple[Axis, ...]:
    """The axes the pipeline runs on: the constellation's, or for a Dmc one exact-block axis over all bits."""
    if isinstance(base, Dmc):
        return (Axis(tuple(range(cons.L)), (), np.empty((cons.m, 0))),)
    return cons.axes


def _block_sizes(base: ChannelModel, cons: Constellation, axis: Axis, gh: int) -> np.ndarray:
    """Outputs per label block: the outputs a Dmc row can produce, or the Hermite grid size."""
    if isinstance(base, Dmc):
        return np.count_nonzero(dmc_log_rows(base, cons) > -np.inf, axis=1)
    return np.full(len(axis.points), gh ** len(axis.dims))


def _symbol_block(base: ChannelModel, cons: Constellation, axis: Axis, scale: np.ndarray, j: int, gh: int):
    """Axis label j's block in the channel states ``scale`` (F,): the outputs it can produce, with log densities there.

    Returns ``(log_rows, log_sub, log_pbar, wk)``: ``log_rows[b]`` is
    log p(y | axis label b) (ma, F, K), ``log_sub`` the sub-channel log
    densities of the axis bits (La, 2, F, K), ``log_pbar`` the log
    uniform-input output density (F, K), and ``wk`` the plain weights under
    which node sums are expectations given label j was sent.  A Gaussian
    block is the Hermite grid around ``scale * points[j]``; a Dmc block
    (one unit state) is exact: the outputs that row j can produce, weighted
    by W(y | j).
    """
    if isinstance(base, Dmc):
        log_rows = dmc_log_rows(base, cons)
        ys = np.flatnonzero(log_rows[j] > -np.inf)
        log_rows, wk = log_rows[:, None, ys], base.matrix[cons.labels[j], ys]
    else:
        pts = axis.points
        dz, wk = _hermite_rule(gh, pts.shape[1])
        y = scale[:, None, None] * pts[j] + np.sqrt(base.n0) * dz  # (F, K, d)
        log_rows = kernels.log_densities(y, scale[:, None], pts, base.n0)
    ma, F, K = log_rows.shape
    log_sub = kernels.log_subchannel(log_rows.reshape(ma, -1), label_sets(axis.L)).reshape(axis.L, 2, F, K)
    return log_rows, log_sub, kernels.log_mean(log_rows, 0), wk


def _label_blocks(base: ChannelModel, cons: Constellation, axis: Axis, scale: np.ndarray, gh: int) -> Iterator:
    """Yield ``(st, j, *_symbol_block(...))``: runs ``st`` of channel states whose label blocks hold about
    ``kernels.BLOCK_ENTRIES`` entries (at least one state), and every label j inside each run."""
    ma = len(axis.points)
    step = max(1, kernels.BLOCK_ENTRIES // (ma * int(_block_sizes(base, cons, axis, gh).max())))
    for a in range(0, len(scale), step):
        st = slice(a, a + step)
        for j in range(ma):
            yield (st, j, *_symbol_block(base, cons, axis, scale[st], j, gh))


def _snapshot(
    base: ChannelModel, cons: Constellation, axis: Axis, scale: np.ndarray, gh: int, weight: np.ndarray
) -> Snapshot:
    """The axis's label blocks side by side, with importance weights wk * pi_j / W(y|x_j).

    Block j takes the share pi_j = sqrt W(y|x_j) / sum_k sqrt W(y|x_k) of
    each output (none where W(y|x_j) = 0).  Shares in proportion to
    W(y|x_j) switch labels twice as sharply between symbols, where a
    Hermite block has few nodes: QPSK AWGN 10 dB E0(1) was 1.3e-4 off, now
    2e-6.  In each state the weights integrate the output density to
    exactly 1: E0(0) = 0.
    """
    ma, F = len(axis.points), len(scale)
    # block sizes are known up front, so the blocks are written in place
    sizes = _block_sizes(base, cons, axis, gh)
    ends = np.cumsum([0, *sizes])
    log_rows = np.empty((ma, F, ends[-1]))
    log_sub = np.empty((axis.L, 2, F, ends[-1]))
    log_pbar = np.empty((F, ends[-1]))
    log_w = np.empty((F, ends[-1]))
    for st, j, rows, sub, pbar, wk in _label_blocks(base, cons, axis, scale, gh):
        blk = slice(ends[j], ends[j + 1])
        log_rows[:, st, blk], log_sub[:, :, st, blk], log_pbar[st, blk] = rows, sub, pbar
        half = 0.5 * log_rows[:, st, blk]  # not rows: a Dmc's is label-fastest, so log_mean would sum in another order
        log_w[st, blk] = np.log(wk / ma) - half[j] - kernels.log_mean(half, 0)
        del rows, sub, pbar  # copied in: free them before the next block is built
    int_w = np.exp(log_w)
    int_w /= kernels.row_dot(int_w, np.exp(log_pbar))[:, None]
    return Snapshot(axis.bits, weight, int_w, log_sub, log_rows)


@lru_cache(maxsize=8)
def get_ensemble(base: ChannelModel, cons: Constellation) -> Ensemble:
    """Stored snapshots of (base, cons), one per axis at ``GH_NODES``/``GL_NODES``; the 8 latest are kept."""
    scale, w = _fading_nodes(base, GL_NODES)
    return Ensemble(cons, [_snapshot(base, cons, axis, scale, GH_NODES, w) for axis in _axes(base, cons)])


# ---------------------------------------------------------------------------
# Streaming information-density moments (first and second, bits) with a
# node-doubling convergence gate for continuous channels.
# ---------------------------------------------------------------------------


def _moment_pass(base: ChannelModel, cons: Constellation, gh: int, gl: int):
    """Moments from one pass over every axis, one label block of many channel states at a time.

    Expectations conditioned on label j are summed on j's own block with
    plain weights (the conditional law is the block's weight function, so
    the integrand is just the information density); this is far tighter than
    the importance-weighted union grid, and streaming blocks keeps memory
    near ``kernels.BLOCK_ENTRIES`` regardless of node escalation.  Within a state
    the full-input density is the sum of the axes' densities.
    """
    scale, w = _fading_nodes(base, gl)
    F = len(scale)
    m1, m2, cm = np.zeros(cons.L), np.zeros(cons.L), np.zeros(2)
    means, cross = [], np.zeros(F)  # per state: E[i_a] of each axis so far, sum_{a<b} E[i_a] E[i_b]
    for axis in _axes(base, cons):
        ma, La = len(axis.points), axis.L
        arange = np.arange(La)
        lab_bits = int_to_bits(np.arange(ma), La)  # (ma, La)
        # per state, summed over labels: E[i], E[i^2] of each axis bit sent
        # (a two-row sub-channel), then of the axis label sent (the ma-row axis channel)
        mom = np.zeros((F, 2, La + 1))
        for st, j, log_rows, log_sub, log_pbar, wk in _label_blocks(base, cons, axis, scale, gh):
            sent = np.concatenate([log_sub[arange, lab_bits[j]], log_rows[j][None]])  # (La+1, F', K)
            # in place: a fresh block-sized temporary per label costs more than the arithmetic
            sent -= log_pbar
            sent /= LN2
            i = np.moveaxis(sent, 1, 0)
            mom[st, 0] += i @ wk
            i *= i
            mom[st, 1] += i @ wk
        mom /= ma  # equiprobable labels
        tot = (w @ mom.reshape(F, -1)).reshape(2, La + 1)
        m1[list(axis.bits)], m2[list(axis.bits)] = tot[:, :La]
        cm += tot[:, La]
        e = mom[:, 0, La]
        for e_b in means:
            cross += e * e_b
        means.append(e)
    cm[1] += 2.0 * (w @ cross)
    return m1, m2, cm


_MOMENT_NAMES = ("sub-channel capacities", "sub-channel second moments", "full-input moments")


def moment_table(base: ChannelModel, cons: Constellation):
    """Sub-channel and full-input information moments, from one pass per node count.

    Returns ``(m1, m2, cm)`` where ``m1[s-1]`` is the sub-channel capacity
    C(W_s) in bits, ``m2[s-1]`` the second moment of its information
    density, and ``cm = (E[i], E[i^2])`` for the full equiprobable input.
    Continuous channels are gated by node doubling: starting from
    ``GH_NODES``/``GL_NODES``, all counts double until two successive passes
    agree within ``CONVERGENCE_TOL`` (the finer result is returned), with at
    most ``_MAX_DOUBLINGS`` escalations.  ``QuadratureConvergenceError`` is
    raised when the escalations run out, or at the first pass whose result
    is not finite.
    """
    res = None
    for k in range(_MAX_DOUBLINGS + 1):
        gh, gl = GH_NODES << k, GL_NODES << k
        fine = _moment_pass(base, cons, gh, gl)
        for name, v in zip(_MOMENT_NAMES, fine):
            if not np.all(np.isfinite(v)):
                # more nodes cannot repair a rule that already yields NaN or inf
                raise QuadratureConvergenceError(f"{name} are not finite at gh={gh}, gl={gl} nodes")
        if isinstance(base, Dmc):
            return fine  # exact: one pass
        if res is not None:
            worst = max(float(np.max(np.abs(a - b))) for a, b in zip(res, fine))
            if worst <= CONVERGENCE_TOL:
                return fine
        res = fine
    raise QuadratureConvergenceError(
        f"node-doubling check failed at gh={gh}, gl={gl}: max shift {worst:.3e} > {CONVERGENCE_TOL:g}"
    )
