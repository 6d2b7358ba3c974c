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

The moment gate reads two passes off one walk at R(0) (``moment_table``):
the walk is at half ``LATTICE_STEP`` with 2 ``GL_NODES`` - 1 fading nodes,
and its nodes of even index are the walk at ``LATTICE_STEP``/``GL_NODES``;
a Dmc's outputs depend on neither, so its two passes are the same.  It
takes the moments of the deficit log2(k) - i of each k-row channel, which
is near 0 where i is near its cap, and returns the capacities and
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
    """Raised when a moment pass is not finite, or the two passes disagree beyond tolerance.

    It carries the gate's record: ``quantity`` names the quantity, ``shift``
    is the largest move between the passes (nan when a pass is not finite),
    and ``coarse`` and ``fine`` are the two passes' (step, gl).
    """

    def __init__(self, message: str, quantity: str, shift: float, coarse: tuple, fine: tuple):
        super().__init__(message)
        self.quantity, self.shift, self.coarse, self.fine = quantity, shift, coarse, fine

    def __reduce__(self):  # BaseException pickles only its args, which __init__ cannot take back
        return type(self), (str(self), self.quantity, self.shift, self.coarse, self.fine)


class Run(NamedTuple):
    """A distinct axis's outputs in a run of consecutive channel states, grouped by state; they serve each copy."""

    starts: np.ndarray  # (F',) index of each state's first output
    cell: float  # the weight of every output
    log_rows: np.ndarray  # (ma, N) log densities by axis label
    log_sub: np.ndarray  # (La, 2, N) log sub-channel densities of the axis bits; ``log_rows`` itself when La = 1
    even: np.ndarray | None = None  # the outputs of the flagged states that lie on the lattice of twice the step
    even_starts: np.ndarray | None = None  # index into ``even`` of each flagged state's first output


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


def _within(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each node ``x`` (..., d) lies in the box [lo, hi] (..., d), tested one coordinate at a time."""
    inside = (lo[..., 0] <= x[..., 0]) & (x[..., 0] <= hi[..., 0])
    for i in range(1, x.shape[-1]):
        inside &= (lo[..., i] <= x[..., i]) & (x[..., i] <= hi[..., i])
    return inside


def _outputs(
    base: ChannelModel,
    cons: Constellation,
    axis: Axis,
    scale: np.ndarray,
    step: float,
    radius: float,
    even: np.ndarray | None = None,
) -> Iterator[Run]:
    """The axis's outputs in the channel states ``scale`` (F,), in runs of about ``kernels.BLOCK_ENTRIES`` entries.

    A Dmc has one run of one unit state: the outputs some label can produce.
    A Gaussian axis has the lattice of step ``step`` sigma kept within
    ``radius`` sigma of some scaled point, per coordinate.  Each point
    contributes the lattice nodes of its box that no earlier point's box
    holds, so a state's outputs are its points' boxes in label order.  The
    test takes the earlier boxes one at a time and the coordinates one at a
    time, so that no reduction runs along an axis of length ma or d; the
    nodes of a run's boxes, (F', ma, G, d) of them, size the run.

    ``even`` (F,) flags the states of the walk at twice the step.  Each run
    then lists in ``Run.even`` their outputs whose index is even in every
    coordinate: the outputs that walk keeps, in its order.
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
    size = max(1, kernels.BLOCK_ENTRIES // (ma * len(grid) * d))
    for a in range(0, len(scale), size):
        st = slice(a, a + size)
        c = scale[st, None, None] * pts / cell  # (F', ma, d) points in lattice units
        lo = np.ceil(c - radius / step).astype(np.intp)  # each point's box of lattice indices
        hi = np.floor(c + radius / step).astype(np.intp)
        nodes = lo[:, :, None] + grid  # (F', ma, G, d) the nodes of each point's box
        keep = _within(nodes, lo[:, :, None], hi[:, :, None])
        for k in range(ma - 1):  # a node belongs to the first box that holds it
            keep[:, k + 1 :] &= ~_within(nodes[:, k + 1 :], lo[:, k, None, None], hi[:, k, None, None])
        f, j, g = np.nonzero(keep)
        counts = np.bincount(f, minlength=len(c))
        y = nodes[f, j, g]  # (N, d) the outputs' lattice indices
        log_rows = kernels.log_densities(y * cell, scale[st][f], pts, base.n0)
        run = Run(np.cumsum(counts) - counts, cell**d, log_rows, kernels.log_subchannel(log_rows, sets))
        if even is not None:
            pick = even[st][f]
            for i in range(d):
                pick &= (y[:, i] & 1) == 0
            n = np.bincount(f[pick], minlength=len(c))[even[st]]
            run = run._replace(even=np.flatnonzero(pick), even_starts=np.cumsum(n) - n)
        yield run


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


def _deficit_sums(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """The sums of E[d] and E[d^2] of each axis bit, then of E[d] of the label, (2 La + 1, F') per state of ``run``.

    Returned twice: over every output, then over the outputs ``run.even``
    lists, per flagged state.  A run that lists none, a Dmc's, is the same
    sums.  On a one-bit axis the label rows are the bit's two rows, so they
    are not worked again: the label's E[d] is the bit's, bit for bit.
    """
    La = len(run.log_sub)
    # a copy, worked in place below: ``run.log_sub`` may be a view of ``run.log_rows``
    d = np.concatenate([run.log_sub.reshape(2 * La, -1)] + ([run.log_rows] if La > 1 else []))
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
    law = np.concatenate([e1, 0.5 * (bit[0::2] + bit[1::2]), e1 if La == 1 else p[2 * La :].mean(0)[None]])
    every = np.add.reduceat(law, run.starts, axis=1)
    if run.even is None:
        return every, every
    return every, np.add.reduceat(law[:, run.even], run.even_starts, axis=1)


def _moment_pass(base: ChannelModel, cons: Constellation, step: float, gl: int):
    """``moment_table``'s two passes, at (step, gl) and at (step / 2, 2 gl - 1), from one walk within R(0).

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

    Halving the step keeps every node: the lattice at ``step`` is the one at
    step / 2 read at the indices even in every coordinate, and its box rule
    keeps those nodes with the same owners in the same order, since c - R /
    step doubles exactly.  The 2 gl - 1 fading nodes hold the gl ones at
    their even indices.  So each distinct axis is walked once, at the fine
    resolution, and the coarse pass sums the even outputs of the even states
    (``Run.even``), each weighing 2**d fine cells: the sums a walk at
    (step, gl) takes, in its order.  A Dmc's outputs depend on neither, so
    its two passes are the same sums.

    On Rayleigh each pass folds its states below ``_fading_floor`` into one
    state of gain 0 that carries their summed weight; the passes share that
    state, each with its own weight.  Its outputs carry no information
    (i = 0, d = log2(k)), the limit the folded states approach, and it costs
    one box of outputs.
    """
    scale, w = _fading_nodes(base, 2 * gl - 1)
    w_even = _fading_nodes(base, gl)[1]
    even = np.arange(len(scale)) % 2 == 0
    if isinstance(base, RayleighCsi):
        keep = scale >= math.exp(_fading_floor(base.n0) / 2)
        scale, even = np.append(scale[keep], 0.0), np.append(even[keep], True)
        w = np.append(w[keep], w[~keep].sum())
        w_even = np.append(w_even[keep[::2]], w_even[~keep[::2]].sum())
    passes = [(np.zeros(cons.L), np.zeros(cons.L), np.full(1, float(cons.L))) for _ in range(2)]
    for axis, bits in _axes(base, cons):
        coarse, fine = [], []
        for run in _outputs(base, cons, axis, scale, step / 2, _radius(cons.m, 0.0), even):
            every, on_even = _deficit_sums(run)
            coarse.append(run.cell * 2 ** axis.points.shape[1] * on_even)
            fine.append(run.cell * every)
        for (c, v, cm), per_state, weight in zip(passes, (coarse, fine), (w_even, w)):
            mean_d, mean_d2, label_d = np.split(np.concatenate(per_state, axis=1) @ weight, [axis.L, 2 * axis.L])
            c[bits], v[bits] = 1.0 - mean_d, mean_d2 - mean_d * mean_d
            for _ in bits:  # each copy of the axis adds its deficit to the label's
                cm -= label_d
    return passes[0], passes[1]


_MOMENT_NAMES = ("sub-channel capacities", "sub-channel dispersions", "full-input capacity")


def moment_table(base: ChannelModel, cons: Constellation):
    """Sub-channel capacities and dispersions and the full-input capacity, from two passes.

    Returns ``(c, v, cm)`` where ``c[s-1]`` is the sub-channel capacity
    C(W_s) in bits, ``v[s-1]`` the variance of its information density
    (bits^2), and ``cm = [C]`` for the full equiprobable input.  Each comes
    from the deficits of ``_moment_pass``, so ``c <= 1`` and ``cm <= L``.
    It takes a pass at ``LATTICE_STEP``/``GL_NODES`` and one at half the
    step with 2 ``GL_NODES`` - 1 fading nodes, both read off one walk (a
    Dmc's two are the same exact sums), and returns the second if no
    quantity moved by more than ``CONVERGENCE_TOL``; else
    ``QuadratureConvergenceError`` names the one that moved most.  It is
    also raised at the first pass that is not finite.  On Rayleigh both
    passes fold the fading nodes below ``_fading_floor(n0)`` into one
    zero-gain state, which moves each capacity by at most 2e-9 and each
    dispersion by at most 6e-9.
    """
    coarse, fine = (LATTICE_STEP, GL_NODES), (LATTICE_STEP / 2, 2 * GL_NODES - 1)
    res = _moment_pass(base, cons, *coarse)
    for (step, gl), table in zip((coarse, fine), res):
        for name, v in zip(_MOMENT_NAMES, table):
            if not np.all(np.isfinite(v)):  # a finer pass cannot repair one that yields NaN or inf
                raise QuadratureConvergenceError(
                    f"not finite: {name} at step={step:g}, gl={gl}", name, math.nan, coarse, fine
                )
    shift, name = max((float(np.max(np.abs(a - b))), name) for a, b, name in zip(*res, _MOMENT_NAMES))
    if shift > CONVERGENCE_TOL:
        raise QuadratureConvergenceError(
            f"{name} moved {shift:.3e} between step={coarse[0]:g}, gl={coarse[1]} and"
            f" step={fine[0]:g}, gl={fine[1]} (tolerance {CONVERGENCE_TOL:g})", name, shift, coarse, fine
        )
    return res[1]
