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

from .channel import Awgn, ChannelModel, Dmc, RayleighCsi
from .constellation import Constellation
from . import kernels

LLR_MAX = 700.0


@lru_cache(maxsize=None)
def label_sets(L: int) -> np.ndarray:
    """``label_sets(L)[i-1, b]``: label integers whose bit i equals b."""
    lab = np.arange(2**L)
    out = np.empty((L, 2, 2 ** (L - 1)), dtype=np.int64)
    for i in range(L):
        bit = (lab >> (L - 1 - i)) & 1
        out[i, 0] = lab[bit == 0]
        out[i, 1] = lab[bit == 1]
    return out


def _check_index(cons: Constellation, i: int) -> None:
    if not 1 <= i <= cons.L:
        raise ValueError(f"sub-channel index must be in 1..{cons.L}, got {i}")


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
        if self.s < 1:
            raise ValueError("state s must be a 1-based sub-channel index")
        if self.d not in (0, 1):
            raise ValueError("dither bit must be 0 or 1")


@dataclass(frozen=True)
class SubchannelView:
    """One binary sub-channel: base channel, labeling, bit position i in 1..L."""

    base: ChannelModel
    cons: Constellation
    index: int

    def __post_init__(self):
        _check_index(self.cons, self.index)
        check_labeling(self.base, self.cons)

    def prob(self, y, b: int) -> float:
        return subchannel_prob(self, y, b)

    def llr(self, y) -> float:
        return llr_bit(self.base, self.cons, self.index, y)


def subchannel_prob(view: SubchannelView, y, b: int) -> float:
    """W_i(y|b): equiprobable average of the base law over bit completions."""
    if b not in (0, 1):
        raise ValueError("conditioning bit must be 0 or 1")
    base, cons, i = view.base, view.cons, view.index
    labs = label_sets(cons.L)[i - 1, b]  # every completion of bit i = b
    rows, syms = cons.labels[labs], cons.symbols[labs]
    if isinstance(base, Dmc):
        if not 0 <= int(y) < base.ny:
            raise ValueError("output outside channel support")
        return float(base.matrix[rows, int(y)].mean())
    if isinstance(base, Awgn):
        d2 = np.abs(y - syms) ** 2
    else:
        yv, h = y
        d2 = np.abs(yv - h * syms) ** 2
    return float(np.exp(-d2 / base.n0).mean() / (np.pi * base.n0))


def llr_bit(base: ChannelModel, cons: Constellation, i: int, y) -> float:
    """Log-likelihood ratio ln(W_i(y|0) / W_i(y|1)) of bit position i."""
    _check_index(cons, i)
    if isinstance(base, RayleighCsi):
        yv, h = y
        z = llr_matrix(base, cons, np.array([yv]), np.array([h]))
    else:
        z = llr_matrix(base, cons, np.array([y]))
    return float(z[i - 1, 0])


def llr_matrix(base: ChannelModel, cons: Constellation, y: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """All L sub-channel LLRs for a batch of outputs; shape (L, N)."""
    if isinstance(base, Dmc):
        idx = np.asarray(y, dtype=np.int64).ravel()
        if np.any((idx < 0) | (idx >= base.ny)):
            raise ValueError("output outside channel support")
        log_rows = dmc_log_rows(base, cons)[:, idx]
        if np.any(np.all(log_rows == -np.inf, axis=0)):  # no input produces the output
            raise ValueError("output outside channel support")
        ls = kernels.log_subchannel(log_rows, label_sets(cons.L))
        return np.clip(ls[:, 0] - ls[:, 1], -LLR_MAX, LLR_MAX)
    return kernels.llr_batch(y, h, cons.symbols, base.n0, label_sets(cons.L), LLR_MAX)


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
