"""Binary sub-channels induced by a labeled constellation over a base channel.

Sub-channel i (1-based, i = 1..L) is the binary-input channel seen by bit
position i of the label when the remaining L-1 bits are equiprobable:

    W_i(y|b) = 2**-(L-1) * sum over completions of W(y | mu(b_1..b_L)),  b_i = b.

The randomized single binary channel used by the parallel scheme has output
(y, s, d), state s uniform on 1..L and dither bit d; its transition law is
W(y,s,d | b) = (1/(2L)) * W_s(y | b xor d) and its LLR is (-1)**d times the
sub-channel LLR of y.  LLRs are natural-log and clamped to +-LLR_MAX.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .channel import ChannelModel, Dmc, RayleighCsi, density
from .constellation import Constellation
from . import _value, kernels

LLR_MAX = 700.0


@lru_cache(maxsize=None)
def label_sets(L: int) -> np.ndarray:
    """``label_sets(L)[i-1, b]``: label integers whose bit i equals b (read-only)."""
    lab = np.arange(2**L)
    out = np.empty((L, 2, 2 ** (L - 1)), dtype=np.int64)
    for i in range(L):
        bit = (lab >> (L - 1 - i)) & 1
        out[i, 0] = lab[bit == 0]
        out[i, 1] = lab[bit == 1]
    out.setflags(write=False)  # cached and shared: a write would change every later LLR
    return out


def check_labeling(base: ChannelModel, cons: Constellation) -> None:
    """A Dmc base needs one input, a row of its matrix, per label."""
    if isinstance(base, Dmc) and base.nx != cons.m:
        raise ValueError("Dmc input count must equal 2**L")


def dmc_log_rows(base: Dmc, cons: Constellation) -> np.ndarray:
    """(m, ny) log transition rows by label: row b is log W(. | input carrying label b)."""
    check_labeling(base, cons)
    with np.errstate(divide="ignore"):  # -inf: outputs the input cannot produce
        return np.log(base.matrix[cons.labels])


@dataclass(frozen=True)
class WbarOutput:
    """Output triple (y, s, d) of the randomized binary channel."""

    y: object
    s: int
    d: int

    def __post_init__(self):
        _value.index(self.s, np.inf, "state s", first=1)  # llr_wbar checks s <= L
        _value.bits(self.d, "dither bit")


@dataclass(frozen=True)
class SubchannelView:
    """One binary sub-channel: base channel, labeling, bit position i in 1..L."""

    base: ChannelModel
    cons: Constellation
    index: int

    def __post_init__(self):
        _value.index(self.index, self.cons.L, "sub-channel index", first=1)
        check_labeling(self.base, self.cons)

    def prob(self, y, b: int) -> float:
        return subchannel_prob(self, y, b)

    def llr(self, y) -> float:
        return llr_bit(self.base, self.cons, self.index, y)


def subchannel_prob(view: SubchannelView, y, b: int) -> float:
    """W_i(y|b): equiprobable average of the base law ``channel.density`` over bit completions."""
    b = int(_value.bits(b, "conditioning bit"))
    base, cons, i = view.base, view.cons, view.index
    labs = label_sets(cons.L)[i - 1, b]  # every completion of bit i = b
    inputs = cons.labels[labs] if isinstance(base, Dmc) else cons.symbols[labs]  # a Dmc input is a matrix row
    return float(np.mean([density(base, y, x) for x in inputs]))


def llr_bit(base: ChannelModel, cons: Constellation, i: int, y) -> float:
    """Log-likelihood ratio ln(W_i(y|0) / W_i(y|1)) of bit position i."""
    _value.index(i, cons.L, "sub-channel index", first=1)
    if isinstance(base, RayleighCsi):
        yv, h = y
        z = llr_matrix(base, cons, np.array([yv]), np.array([h]))
    else:
        z = llr_matrix(base, cons, np.array([y]))
    return float(z[i - 1, 0])


def llr_matrix(base: ChannelModel, cons: Constellation, y: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """All L sub-channel LLRs for a batch of outputs; shape (L, N).

    Gaussian outputs are demapped one constellation axis at a time, each
    axis's bits from that axis's coordinates.  With fading, y h*/|h| is
    |h| x plus noise of the same law, so its real and imaginary parts are
    the axis coordinates and |h| the gain; an output with h = 0 carries
    nothing and gets LLR 0.  A RayleighCsi base needs ``h``, one
    coefficient per output, and any other base refuses it.
    """
    if (h is None) == isinstance(base, RayleighCsi):
        raise ValueError(f"{type(base).__name__} base {'needs' if h is None else 'takes no'} fading coefficients h")
    if isinstance(base, Dmc):
        idx = _value.index(y, base.ny, "output outside channel support").ravel()
        log_rows = dmc_log_rows(base, cons)[:, idx]
        if np.any(np.all(log_rows == -np.inf, axis=0)):  # no input produces the output
            raise ValueError("output outside channel support")
        ls = kernels.log_subchannel(log_rows, label_sets(cons.L))
        return np.clip(ls[:, 0] - ls[:, 1], -LLR_MAX, LLR_MAX)
    y = np.asarray(y, dtype=complex).ravel()  # contiguous, so its (N, 2) coordinates are a view
    if h is None:
        coords, gain = y.view(np.float64).reshape(-1, 2), None
    else:
        h = np.asarray(h, dtype=complex).ravel()
        if h.size != y.size:
            raise ValueError(f"fading coefficients h: {h.size} given for {y.size} outputs, want one per output")
        gain = np.abs(h)
        coords = np.zeros((y.size, 2))
        rot = y * h.conj()
        np.divide(rot.view(np.float64).reshape(-1, 2), gain[:, None], out=coords, where=gain[:, None] > 0)
    out = np.empty((cons.L, y.size))
    for axis in cons.axes:
        out[list(axis.bits)] = kernels.llr_batch(
            coords[:, axis.dims], gain, axis.points, base.n0, label_sets(axis.L), LLR_MAX
        )
    return out


def llr_wbar(base: ChannelModel, cons: Constellation, out: WbarOutput) -> float:
    """LLR of the randomized binary channel output (y, s, d): (-1)^d * LLR_s(y)."""
    return (1.0 if out.d == 0 else -1.0) * llr_bit(base, cons, out.s, out.y)


def wbar_as_dmc(base: Dmc, cons: Constellation) -> Dmc:
    """Explicit randomized binary channel as a 2 x (|Y|*L*2) Dmc.

    Output index encodes (y, s, d) as ((s-1)*|Y| + y)*2 + d.  Only defined
    for Dmc bases (continuous outputs have no finite alphabet).
    """
    if not isinstance(base, Dmc):
        raise ValueError("wbar_as_dmc requires a Dmc base channel")
    w = np.exp(kernels.log_subchannel(dmc_log_rows(base, cons), label_sets(cons.L))) / (2 * cons.L)  # (L, 2, ny)
    # column (s, y, d) of input row c carries W_s(y | c xor d) / (2L)
    return Dmc(np.stack([w, w[:, ::-1]], axis=-1).swapaxes(0, 1).reshape(2, -1))


def wbar_to_csv(base: Dmc, cons: Constellation, path: str | Path) -> None:
    """Export the explicit randomized-channel matrix as CSV (header nx,ny)."""
    from .channel import save_dmc

    save_dmc(wbar_as_dmc(base, cons), path)
