"""Reduction of (base channel, labeling) pairs to weighted output sets.

Every information quantity in this package is an expectation over channel
outputs, and every channel is reduced the same way, one independent axis of
the constellation at a time (``constellation.Axis``).  Given the channel
state, complex noise has independent real and imaginary parts, so when a
constellation's real part carries some label bits and its imaginary part the
rest, each bit's sub-channel law is the law of its axis alone and the axes
of one label are independent: BPSK, QPSK, QAM16 and QAM64 run as 1-D PAM
axes with real noise of variance n0/2.  PSK8 does not split and runs as one
2-D axis, and a Dmc base, whose law is given per label, is one axis over all
bits.  An axis's law is fixed by its points, whatever bits it carries: the I
and Q axes of QPSK, QAM16 and QAM64 are one PAM channel, so the pipeline
walks each distinct axis once and hands its numbers to every copy
(``_axes``).

An axis is one set of outputs with plain weights, so that every integral
over outputs is a weighted sum.  A Dmc axis is its output alphabet with unit
weights, less the outputs no label can produce: the sums are exact.  A
Gaussian axis is the lattice of step delta*sigma on every real coordinate
(sigma**2 = n0/2), anchored at the origin, kept where some scaled point is
within R*sigma in every coordinate; each kept output weighs
(delta*sigma)**d.  The trapezoid rule converges exponentially in delta for
these analytic integrands (Trefethen & Weideman, SIAM Review 2014).  The
mask radius R(rho), with R**2 = 2 (rho ln m + ln 1e12), loses at most a
1e-12 share of a Gallager integral at rho: its integrand, the power mean of
the W_j(y) of order 1/(1+rho), is at most the output density, which has an
e**(-R**2/2) tail past the mask, and the integral is at least m**-rho
(Gallager 1968, section 5.6).  Since the mask is per coordinate and the
lattice is a product, a product constellation's plane lattice is exactly the
product of its axes' lattices.

Rayleigh-with-CSI adds an outer trapezoid rule in u = ln|h|^2 (density
e^(u - e^u), so equally spaced nodes on the fixed window [-40, 4] converge
exponentially at every SNR); the fading phase folds out exactly (rotating y
and h together leaves every conditional quantity unchanged because the noise
is circularly symmetric), so each node is a channel state with the points
scaled by |h|.  The moment pass folds the nodes below a floor u0(n0)
(``_fading_floor``) into one zero-gain state, which moves a capacity by at
most 2e-9; E0, which the deep fades rule at large rho, keeps them all.  The
other channels have one unit state.  ``_outputs`` walks an axis's outputs
in runs of channel states, each run's outputs grouped by state; one sum,
``kernels.log_subchannel``, turns every label's log density there into the
sub-channel laws, and ``_per_state`` joins the runs' sums by state.

The axes are combined inside each channel state: a sub-channel's moments and
E0 come from its axis, by the same sums as the axis's full input (a
sub-channel is a two-row channel, W_s(y|0) and W_s(y|1)); the full-input
information density is the sum of the axes', so its E[i] adds across the
axes, and its 2**-E0 is the product of the axes' Gallager integrals, a
distinct axis counting once per copy.

The moment pass reads the walk at R(0), twice (``moment_table``): at
``LATTICE_STEP``/``GL_NODES``, then at half the step with twice the fading
nodes; a Dmc's outputs depend on neither, so its two passes are the same.
It takes the moments of the deficit log2(k) - i of each k-row channel,
which is near 0 where i is near its cap, and returns the capacities and
dispersions the callers read.  E0 needs whole sums for many rho values:
``get_ensemble`` stores the walk at R(1), which serves every rho <= 1, and
streams the walk at R(rho) for a larger rho.  An ensemble keeps its per-rho
E0 integrals.  Channels and constellations are values, so ``lru_cache``
keys the ensembles (here) and the gated moments (``infotheory._moments``)
by the pair itself, 8 pairs each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import kernels
from .channel import ChannelModel, Dmc, RayleighCsi
from .constellation import Axis, Constellation
from .subchannel import dmc_log_rows, label_sets

LATTICE_STEP = 0.5  # output lattice step, in noise standard deviations sigma = sqrt(n0/2)
GL_NODES = 64  # trapezoid nodes in ln|h|^2
CONVERGENCE_TOL = 1e-4  # the largest shift the two moment passes may show
DEFICIT_SLOPE = 2.0  # K: each moment of a state of gain |h| is within K |h|^2 / n0 of the zero-gain state's
FLOOR_BUDGET = 1e-5 * CONVERGENCE_TOL  # eps: the integral bound on what the fading floor moves a moment

LN2 = np.log(2.0)


class QuadratureConvergenceError(RuntimeError):
    """Raised when a moment pass is not finite, or the two passes disagree beyond tolerance."""


class Run(NamedTuple):
    """A distinct axis's outputs in a run of consecutive channel states, grouped by state; they serve each copy."""

    starts: np.ndarray  # (F',) index of each state's first output
    cell: float  # the weight of every output
    log_rows: np.ndarray  # (ma, N) log densities by axis label
    log_sub: np.ndarray  # (La, 2, N) log sub-channel densities of the axis bits


def _radius(m: int, rho: float) -> float:
    """Mask radius R(rho) in units of sigma: the mask loses at most a 1e-12 share of a Gallager integral at rho."""
    return math.sqrt(2.0 * (rho * math.log(m) + math.log(1e12)))


def _fading_nodes(base: ChannelModel, gl: int) -> tuple[np.ndarray, np.ndarray]:
    """|h| and probability weight of each channel state (one unit state unless the base is Rayleigh)."""
    if not isinstance(base, RayleighCsi):
        return np.ones(1), np.ones(1)
    # trapezoid rule in u = ln|h|^2: the density of u under |h|^2 ~ Exp(1) is e^(u - e^u)
    u = np.linspace(-40.0, 4.0, gl)
    w = np.exp(u - np.exp(u))
    return np.exp(u / 2), w / w.sum()


def _fading_floor(n0: float) -> float:
    """The floor u0 in u = ln|h|^2 below which the moment pass folds the channel states into one zero-gain state.

    Each moment the pass sums (E[d] and E[d^2] of each bit, E[d] of the
    labels) is within K |h|^2 / n0 of its value at |h| = 0 (K =
    ``DEFICIT_SLOPE``; the capacity part alone is
    I <= log2(1 + |h|^2 / n0) <= log2(e) |h|^2 / n0).  Since
    e^(u - e^u) <= e^u, the integral of that bound below u0 is
    K e^(2 u0) / (2 n0), which this u0 sets to eps = ``FLOOR_BUDGET``;
    the trapezoid sum with node spacing 0.7 or less is under twice the
    integral, so the folded states move each of those moments by at most
    2 eps, a capacity by at most 2 eps and a dispersion by at most 6 eps.
    A floor below the fading window's end folds nothing.
    """
    return 0.5 * math.log(2.0 * FLOOR_BUDGET * n0 / DEFICIT_SLOPE)


def _axes(base: ChannelModel, cons: Constellation) -> list[tuple[Axis, np.ndarray]]:
    """The distinct axes the pipeline walks, each with the (k, La) bit positions of the k axes that share its points.

    An axis's law is fixed by its points: ``bits`` and ``dims`` only place it
    in the label and the plane, and every real coordinate has the same noise
    and fading gain.  So the axes with equal points (shape and bytes), the I
    and Q axes of QPSK and square QAM, are one walk whose numbers serve each
    copy; any other axis is a group of one.  A Dmc is one axis over all bits.
    """
    if isinstance(base, Dmc):
        return [(Axis(tuple(range(cons.L)), (), np.empty((cons.m, 0))), np.arange(cons.L)[None])]
    groups: dict[tuple, tuple[Axis, list[tuple[int, ...]]]] = {}
    for axis in cons.axes:
        groups.setdefault((axis.points.shape, axis.points.tobytes()), (axis, []))[1].append(axis.bits)
    return [(axis, np.array(bits)) for axis, bits in groups.values()]


def _outputs(
    base: ChannelModel, cons: Constellation, axis: Axis, scale: np.ndarray, step: float, radius: float
) -> Iterator[Run]:
    """The axis's outputs in the channel states ``scale`` (F,), in runs of about ``kernels.BLOCK_ENTRIES`` entries.

    A Dmc has one run of one unit state: the outputs some label can produce.
    A Gaussian axis has the lattice of step ``step`` sigma kept within
    ``radius`` sigma of some scaled point, per coordinate.  Each point
    contributes the lattice nodes of its box that no earlier point's box
    holds, so a state's outputs are its points' boxes in label order.  The
    test holds every node of every box against every box, per coordinate:
    (F', ma, G, ma, d) booleans, which size a run.
    """
    sets = label_sets(axis.L)
    if isinstance(base, Dmc):
        rows = dmc_log_rows(base, cons)
        rows = rows[:, (rows > -np.inf).any(axis=0)]
        yield Run(np.zeros(1, dtype=np.intp), 1.0, rows, kernels.log_subchannel(rows, sets))
        return
    pts = axis.points
    ma, d = pts.shape
    cell = step * math.sqrt(base.n0 / 2)  # the lattice step in output units
    grid = np.indices((int(2 * radius / step) + 1,) * d).reshape(d, -1).T  # (G, d) lattice offsets in a box
    run = max(1, kernels.BLOCK_ENTRIES // (ma * ma * len(grid) * d))
    for a in range(0, len(scale), run):
        st = slice(a, a + run)
        c = scale[st, None, None] * pts / cell  # (F', ma, d) points in lattice units
        lo, hi = np.ceil(c - radius / step), np.floor(c + radius / step)  # each point's box of lattice indices
        nodes = lo[:, :, None, None] + grid[:, None]  # (F', ma, G, 1, d) the nodes of each point's box
        inside = ((lo[:, None, None] <= nodes) & (nodes <= hi[:, None, None])).all(-1)  # (F', ma, G, ma)
        keep = (inside.argmax(-1) == np.arange(ma)[:, None]) & inside.any(-1)  # the first box holding the node
        f, j, g = np.nonzero(keep)
        counts = np.bincount(f, minlength=len(c))
        log_rows = kernels.log_densities(nodes[f, j, g, 0] * cell, scale[st][f], pts, base.n0)
        yield Run(np.cumsum(counts) - counts, cell**d, log_rows, kernels.log_subchannel(log_rows, sets))


def _per_state(runs: Iterable[Run], sums: Callable[[Run], np.ndarray]) -> np.ndarray:
    """(..., F): each run's ``sums`` (..., F') over its states' outputs, times its cell, joined in state order."""
    return np.concatenate([run.cell * sums(run) for run in runs], axis=-1)


@dataclass
class Ensemble:
    """The E0 integrals of (base, cons): stored outputs within R(1) per distinct axis, streamed ones beyond rho = 1."""

    base: ChannelModel
    cons: Constellation
    scale: np.ndarray  # (F,) |h| of each channel state
    weight: np.ndarray  # (F,) probability weight of each channel state
    stored: list[tuple[np.ndarray, list[Run]]]  # per distinct axis (``_axes``), its copies' bits and runs within R(1)
    sub_e0: dict[float, np.ndarray] = field(default_factory=dict)  # rho -> 2**-E0_s(rho), all s
    mary_e0: dict[float, float] = field(default_factory=dict)  # rho -> 2**-E0(rho), full input

    def _axis_runs(self, rho: float) -> Iterable[tuple[np.ndarray, Iterable[Run]]]:
        """Each distinct axis's copies' bits with its outputs within R(rho): stored up to rho = 1, else streamed."""
        if rho <= 1.0:
            return self.stored
        r, axes = _radius(self.cons.m, rho), _axes(self.base, self.cons)
        return ((bits, _outputs(self.base, self.cons, axis, self.scale, LATTICE_STEP, r)) for axis, bits in axes)

    def sub_integrals(self, rho: float) -> np.ndarray:
        """2**-E0_s(rho) for every sub-channel, computed once per rho."""
        v = self.sub_e0.get(rho)
        if v is None:
            v = np.zeros(self.cons.L)
            for bits, runs in self._axis_runs(rho):  # one two-row Gallager sum serves every copy's bits
                g = _per_state(runs, lambda run: kernels.e0_mary_integral(run.log_sub.swapaxes(0, 1), run.starts, rho))
                v[bits] = g @ self.weight
            self.sub_e0[rho] = v
        return v

    def mary_integral(self, rho: float) -> float:
        """2**-E0(rho) of the full equiprobable input, computed once per rho."""
        v = self.mary_e0.get(rho)
        if v is None:
            g = 1.0  # the axes are independent given the state: their integrals multiply
            for bits, runs in self._axis_runs(rho):
                axis_g = _per_state(runs, lambda run: kernels.e0_mary_integral(run.log_rows, run.starts, rho))
                for _ in bits:
                    g = g * axis_g
            self.mary_e0[rho] = v = float(g @ self.weight)
        return v


@lru_cache(maxsize=8)
def get_ensemble(base: ChannelModel, cons: Constellation) -> Ensemble:
    """The E0 ensemble of (base, cons) at ``LATTICE_STEP``/``GL_NODES``; the 8 latest are kept."""
    scale, w = _fading_nodes(base, GL_NODES)
    r = _radius(cons.m, 1.0)
    stored = [(bits, list(_outputs(base, cons, axis, scale, LATTICE_STEP, r))) for axis, bits in _axes(base, cons)]
    return Ensemble(base, cons, scale, w, stored)


# ---------------------------------------------------------------------------
# Information-density moments (first and second, bits) with a two-pass gate.
# ---------------------------------------------------------------------------


def _deficit_sums(run: Run) -> np.ndarray:
    """(2 La + 1, F') per state of ``run``: the sums of E[d] and E[d^2] of each axis bit, then of E[d] of the label."""
    La = len(run.log_sub)
    d = np.concatenate([run.log_sub.reshape(2 * La, -1), run.log_rows])
    p = np.exp(d)
    np.subtract(np.logaddexp(run.log_sub[0, 0], run.log_sub[0, 1]) - LN2, d, out=d)  # log pbar - log W
    d /= LN2
    d[: 2 * La] += 1.0  # log2(2) - i of the bit rows
    d[2 * La :] += La  # log2(ma) - i of the label rows
    np.maximum(d, 0.0, out=d)
    np.copyto(d, 0.0, where=p == 0.0)  # a Dmc row that cannot produce y adds nothing (W log W -> 0)
    p *= d  # W d
    bit = p[: 2 * La]
    e1 = 0.5 * (bit[0::2] + bit[1::2])
    bit *= d[: 2 * La]  # W d^2 of the bit rows
    law = np.concatenate([e1, 0.5 * (bit[0::2] + bit[1::2]), p[2 * La :].mean(0)[None]])
    return np.add.reduceat(law, run.starts, axis=1)


def _moment_pass(base: ChannelModel, cons: Constellation, step: float, gl: int):
    """``moment_table``'s result from one pass over each distinct axis's outputs within R(0), a run of states at a time.

    On an axis, a channel of k equiprobable rows W_r has the information
    density i_r = log2(W_r / pbar), pbar the mean of any bit's two laws, and
    its deficit d_r = log2(k) - i_r = log2(sum_r' W_r' / W_r) >= 0.  E[d] is
    sum_j w_j (1/k) sum_r W_r(y_j) d_r(y_j), the capacity is log2(k) - E[d],
    and the variance of i is that of d.  The rows are the two laws of each
    axis bit (k = 2), whose E[d^2] the pass also takes, and the axis labels
    (k = ma); the full input's deficit is the sum of the axes'.  Near
    capacity d is near 0, so its moments keep the precision that those of
    i lose to cancellation near log2(k), and with a deficit that rounds
    below 0 read as 0, no capacity exceeds log2(k).

    On Rayleigh the states below ``_fading_floor`` are folded into one state
    of gain 0 that carries their summed weight.  Its outputs carry no
    information (i = 0, d = log2(k)), the limit the folded states approach,
    and it costs one box of outputs.
    """
    scale, w = _fading_nodes(base, gl)
    if isinstance(base, RayleighCsi):
        keep = scale >= math.exp(_fading_floor(base.n0) / 2)
        scale, w = np.append(scale[keep], 0.0), np.append(w[keep], w[~keep].sum())
    c, v, cm = np.zeros(cons.L), np.zeros(cons.L), np.full(1, float(cons.L))
    for axis, bits in _axes(base, cons):
        tot = _per_state(_outputs(base, cons, axis, scale, step, _radius(cons.m, 0.0)), _deficit_sums) @ w
        mean_d, mean_d2, label_d = np.split(tot, [axis.L, 2 * axis.L])
        c[bits], v[bits] = 1.0 - mean_d, mean_d2 - mean_d * mean_d
        for _ in bits:  # each copy of the axis adds its deficit to the label's
            cm -= label_d
    return c, v, cm


_MOMENT_NAMES = ("sub-channel capacities", "sub-channel dispersions", "full-input capacity")


def moment_table(base: ChannelModel, cons: Constellation):
    """Sub-channel capacities and dispersions and the full-input capacity, from two passes.

    Returns ``(c, v, cm)`` where ``c[s-1]`` is the sub-channel capacity
    C(W_s) in bits, ``v[s-1]`` the variance of its information density
    (bits^2), and ``cm = [C]`` for the full equiprobable input.  Each comes
    from the deficits of ``_moment_pass``, so ``c <= 1`` and ``cm <= L``.
    It takes a pass at ``LATTICE_STEP``/``GL_NODES`` and one at half the
    step with twice the fading nodes (a Dmc's two are the same exact sums),
    and returns the second if no quantity moved by more than
    ``CONVERGENCE_TOL``; else ``QuadratureConvergenceError`` names the one
    that moved most.  It is also raised at the first pass that is not
    finite.  On Rayleigh both passes fold the fading nodes below
    ``_fading_floor(n0)`` into one zero-gain state, which moves each
    capacity by at most 2e-9 and each dispersion by at most 6e-9.
    """
    res = []
    for step, gl in (LATTICE_STEP, GL_NODES), (LATTICE_STEP / 2, 2 * GL_NODES):
        res.append(_moment_pass(base, cons, step, gl))
        for name, v in zip(_MOMENT_NAMES, res[-1]):
            if not np.all(np.isfinite(v)):  # a finer pass cannot repair one that yields NaN or inf
                raise QuadratureConvergenceError(f"not finite: {name} at step={step:g}, gl={gl}")
    shift, name = max((float(np.max(np.abs(a - b))), name) for a, b, name in zip(*res, _MOMENT_NAMES))
    if shift > CONVERGENCE_TOL:
        raise QuadratureConvergenceError(
            f"{name} moved {shift:.3e} between step={LATTICE_STEP:g}, gl={GL_NODES} and"
            f" step={step:g}, gl={gl} (tolerance {CONVERGENCE_TOL:g})"
        )
    return res[1]
