"""Parallel coded-modulation pipeline: codes, interleaving, dither, decoding.

L identical binary block codes are transmitted in parallel: codeword bits
are XORed with a per-level binary dither, columns of the resulting L x n bit
matrix are cyclically shifted by an i.i.d. state vector, and each shifted
column is Gray-mapped onto one channel symbol.  The receiver computes
per-bit-position LLRs for every symbol, inverts the shift, flips LLR signs
where the dither bit was 1, and decodes each level by maximum-likelihood
correlation.  With common randomness (state + dither) shared through a seed,
every level sees the same memoryless binary channel, so per-level error
statistics can be compared against a directly synthesized run of that
channel.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import (
    ChannelModel,
    Dmc,
    RayleighCsi,
    awgn_from_snr,
    load_dmc,
    make_rng,
    rayleigh_from_snr,
    sample_batch,
)
from .constellation import Constellation, bits_to_int, int_to_bits, make_constellation
from .subchannel import check_labeling, llr_matrix

MAX_CODEBOOK = 2**16
_CHUNK = 8192


# ---------------------------------------------------------------------------
# Binary block codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryCode:
    """Explicit-codebook binary block code; message i sends ``codebook[i]``."""

    name: str
    codebook: np.ndarray  # (M, n) uint8

    def __post_init__(self):
        cb = np.ascontiguousarray(self.codebook, dtype=np.uint8)
        if cb.ndim != 2 or cb.shape[0] < 2 or cb.shape[1] < 1:
            raise ValueError(f"codebook must be (M, n) with M >= 2 and blocklength n >= 1, got shape {cb.shape}")
        if cb.shape[0] > MAX_CODEBOOK:
            raise ValueError(f"codebook larger than {MAX_CODEBOOK} codewords")
        if cb.max() > 1:
            raise ValueError("codewords must be 0/1 valued")
        object.__setattr__(self, "codebook", cb)

    @property
    def M(self) -> int:
        return self.codebook.shape[0]

    @property
    def n(self) -> int:
        return self.codebook.shape[1]

    @property
    def rate(self) -> float:
        return math.log2(self.M) / self.n

    @property
    def message_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.M)))


def repetition(n: int) -> BinaryCode:
    if n < 1:
        raise ValueError("repetition length must be >= 1")
    return BinaryCode("repetition", np.array([[0] * n, [1] * n], dtype=np.uint8))


_HAMMING_P = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)


def hamming74() -> BinaryCode:
    msgs = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    cb = np.concatenate([msgs, (msgs @ _HAMMING_P) % 2], axis=1)
    return BinaryCode("hamming74", cb)


def random_codebook(n: int, M: int, seed: int) -> BinaryCode:
    rng = make_rng(seed)
    return BinaryCode("random", rng.integers(0, 2, size=(M, n)).astype(np.uint8))


def make_code(spec: dict) -> BinaryCode:
    kind = spec.get("kind")
    if kind == "repetition":
        return repetition(int(spec["n"]))
    if kind == "hamming74":
        return hamming74()
    if kind == "random":
        return random_codebook(int(spec["n"]), int(spec["M"]), int(spec.get("seed", 0)))
    raise ValueError(f"unknown code kind: {kind!r}")


# ---------------------------------------------------------------------------
# Common randomness and the bit pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PbicmState:
    """Shared randomness of one block: states s in {0..L-1}^n, dither d in {0,1}^(L x n)."""

    s: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.int64)
        d = np.asarray(self.d, dtype=np.uint8)
        if d.ndim != 2 or s.shape != (d.shape[1],):
            raise ValueError("state length must match dither columns")
        if s.min(initial=0) < 0 or s.max(initial=0) >= d.shape[0]:
            raise ValueError("states must lie in {0..L-1}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)


def make_state(L: int, n: int, rng: np.random.Generator) -> PbicmState:
    return PbicmState(rng.integers(0, L, size=n), rng.integers(0, 2, size=(L, n)).astype(np.uint8))


def interleave(B: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cyclic per-column shift of the level axis of a (..., L, n) batch.

    Output row l of column k is input row (l+s_k) mod L, with states ``s`` of
    shape (..., n).  A zero state leaves the column untouched.
    """
    B = np.asarray(B)
    L = B.shape[-2]
    rows = (np.arange(L)[:, None] + np.asarray(s)[..., None, :]) % L
    return np.take_along_axis(B, rows, axis=-2)


def deinterleave(Z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Inverse column shift of a (..., L, n) bit or LLR batch, states (..., n)."""
    Z = np.asarray(Z)
    L = Z.shape[-2]
    rows = (np.arange(L)[:, None] - np.asarray(s)[..., None, :]) % L
    return np.take_along_axis(Z, rows, axis=-2)


def apply_dither(bits: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.bitwise_xor(np.asarray(bits, dtype=np.uint8), np.asarray(d, dtype=np.uint8))


def remove_dither_llr(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Flip LLR signs wherever the dither bit was 1."""
    return np.asarray(z) * (1.0 - 2.0 * np.asarray(d, dtype=float))


def ml_decode(code: BinaryCode, z: np.ndarray) -> int:
    """Maximum-likelihood message: argmax_c sum_j (1-2c_j) z_j, lowest index on ties."""
    z = np.asarray(z, dtype=float)
    if z.shape != (code.n,):
        raise ValueError("LLR vector length must equal the code blocklength")
    return int(_ml_decode_batch(code, z))


def _ml_decode_batch(code: BinaryCode, Z: np.ndarray) -> np.ndarray:
    """ML message of every length-n row of a (..., n) LLR batch, as one GEMM."""
    signs = 1.0 - 2.0 * code.codebook.astype(float)  # (M, n)
    scores = Z.reshape(-1, code.n) @ signs.T
    return np.argmax(scores, axis=-1).reshape(Z.shape[:-1])


def _map_and_sample(base: ChannelModel, cons: Constellation, lab: np.ndarray, rng):
    """Send labels: Dmc rows for a Dmc base, constellation symbols otherwise."""
    x = cons.labels[lab] if isinstance(base, Dmc) else cons.symbols[lab]
    return sample_batch(base, x, rng)


def _llr_of_outputs(base: ChannelModel, cons: Constellation, out) -> np.ndarray:
    """(..., L, n) LLRs of channel outputs of shape (..., n), any base type."""
    ys = [np.asarray(a) for a in (out if isinstance(base, RayleighCsi) else (out,))]
    z = llr_matrix(base, cons, *(a.ravel() for a in ys))  # (L, N)
    return np.moveaxis(z.reshape(cons.L, *ys[0].shape), 0, -2)


def _send(base: ChannelModel, cons: Constellation, cw, d, s, rng):
    """Dither, interleave, pack and map (..., L, n) codeword bits, then send them."""
    lab = bits_to_int(np.moveaxis(interleave(apply_dither(cw, d), s), -2, -1))
    return _map_and_sample(base, cons, lab, rng)


def _receive_llrs(base: ChannelModel, cons: Constellation, out, d, s) -> np.ndarray:
    """Demap, de-interleave and de-dither channel outputs -> (..., L, n) LLRs."""
    return remove_dither_llr(deinterleave(_llr_of_outputs(base, cons, out), s), d)


def _direct_llrs(base: ChannelModel, cons: Constellation, bits: np.ndarray, rng) -> np.ndarray:
    """De-dithered LLRs of (..., n) bits sent over the synthesized binary channel.

    Each bit, XORed with a fresh dither bit, replaces label bit s of a uniform
    random label, with s uniform on {1..L}; the receiver keeps LLR s.
    """
    L = cons.L
    s = rng.integers(1, L + 1, size=bits.shape)
    d = rng.integers(0, 2, size=bits.shape).astype(np.uint8)
    u = rng.integers(0, cons.m, size=bits.shape)
    shift = L - s
    lab = (u & ~(1 << shift)) | ((bits ^ d).astype(np.int64) << shift)
    z = _llr_of_outputs(base, cons, _map_and_sample(base, cons, lab, rng))
    return remove_dither_llr(np.take_along_axis(z, (s - 1)[..., None, :], axis=-2)[..., 0, :], d)


def pbicm_transmit(
    messages: np.ndarray,
    code: BinaryCode,
    state: PbicmState,
    base: ChannelModel,
    cons: Constellation,
    rng: np.random.Generator,
):
    """Encode L messages, dither, interleave, map and send one block.

    Returns the channel outputs for the n symbols: an int array (Dmc), a
    complex array (Awgn) or a (y, h) pair (RayleighCsi).  Noise draws depend
    only on the block shape, not on the transmitted values.
    """
    messages = np.asarray(messages, dtype=np.int64)
    if messages.shape != (state.d.shape[0],):
        raise ValueError("need one message per level")
    if messages.min() < 0 or messages.max() >= code.M:
        raise ValueError("message index out of range")
    return _send(base, cons, code.codebook[messages], state.d, state.s, rng)


def pbicm_receive(
    y,
    state: PbicmState,
    code: BinaryCode,
    base: ChannelModel,
    cons: Constellation,
) -> np.ndarray:
    """Demap, de-interleave, de-dither and ML-decode all L levels."""
    return _ml_decode_batch(code, _receive_llrs(base, cons, y, state.d, state.s))


# ---------------------------------------------------------------------------
# Monte-Carlo simulation
# ---------------------------------------------------------------------------


@dataclass
class PbicmSimConfig:
    """Simulation setup: code, constellation, channel, trial count, seed."""

    code: BinaryCode
    cons: Constellation
    channel: ChannelModel
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_labeling(self.channel, self.cons)

    @classmethod
    def from_json(cls, text: str, base_dir: str | Path = ".") -> "PbicmSimConfig":
        obj = json.loads(text)
        ch = obj["channel"]
        kind = ch["kind"]
        if kind == "awgn":
            channel: ChannelModel = awgn_from_snr(float(ch["snr_db"]))
        elif kind == "rayleigh":
            channel = rayleigh_from_snr(float(ch["snr_db"]))
        elif kind == "dmc":
            if "file" in ch:
                channel = load_dmc(Path(base_dir) / ch["file"])
            else:
                channel = Dmc(np.asarray(ch["matrix"], dtype=float))
        else:
            raise ValueError(f"unknown channel kind: {kind!r}")
        return cls(
            code=make_code(obj["code"]),
            cons=make_constellation(obj["constellation"]),
            channel=channel,
            trials=int(obj["trials"]),
            seed=int(obj.get("seed", 0)),
        )


def wilson_ci(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class SimulationResult:
    """Error-rate estimates with 95% Wilson intervals and raw counters."""

    trials: int
    seed: int
    pe_overall: float
    pe_overall_ci: tuple[float, float]
    pe_per_level: list[float]
    pe_per_level_ci: list[tuple[float, float]]
    pe_wbar_direct: float
    pe_wbar_direct_ci: tuple[float, float]
    ber_overall: float
    ber_per_level: list[float]
    counts: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = dict(self.__dict__)
        obj["pe_overall_ci"] = list(self.pe_overall_ci)
        obj["pe_per_level_ci"] = [list(c) for c in self.pe_per_level_ci]
        obj["pe_wbar_direct_ci"] = list(self.pe_wbar_direct_ci)
        return json.dumps(obj, indent=2)


def _simulate_chunk(cfg: PbicmSimConfig, t: int, rng: np.random.Generator):
    code, cons, base = cfg.code, cfg.cons, cfg.channel
    L, n = cons.L, code.n
    msgs = rng.integers(0, code.M, size=(t, L))
    d = rng.integers(0, 2, size=(t, L, n)).astype(np.uint8)
    s = rng.integers(0, L, size=(t, n))
    out = _send(base, cons, code.codebook[msgs], d, s, rng)
    dec = _ml_decode_batch(code, _receive_llrs(base, cons, out, d, s))  # (t, L)
    lvl_err = dec != msgs
    bit_err = int_to_bits(dec ^ msgs, code.message_bits).sum(axis=(0, 2))  # per level

    # Direct synthesis of the randomized binary channel, same code.
    msgs_w = rng.integers(0, code.M, size=t)
    dec_w = _ml_decode_batch(code, _direct_llrs(base, cons, code.codebook[msgs_w], rng))
    return (
        int(lvl_err.any(axis=1).sum()),
        lvl_err.sum(axis=0).astype(np.int64),
        bit_err.astype(np.int64),
        int((dec_w != msgs_w).sum()),
    )


def simulate(cfg: PbicmSimConfig) -> SimulationResult:
    """Monte-Carlo run of the full pipeline plus a direct synthesized-channel run.

    Deterministic given the config: trials are processed in fixed-size
    chunks, each drawing from its own counter-based substream of the seed,
    so results are identical regardless of how chunks are executed.
    """
    code, cons = cfg.code, cfg.cons
    L = cons.L
    chunk = max(1, min(_CHUNK, (1 << 22) // code.M))
    n_block = 0
    n_lvl = np.zeros(L, dtype=np.int64)
    n_bit = np.zeros(L, dtype=np.int64)
    n_wbar = 0
    done = 0
    idx = 0
    while done < cfg.trials:
        t = min(chunk, cfg.trials - done)
        blk, lvl, bit, wbar = _simulate_chunk(cfg, t, make_rng(cfg.seed, idx))
        n_block += blk
        n_lvl += lvl
        n_bit += bit
        n_wbar += wbar
        done += t
        idx += 1
    T = cfg.trials
    kb = code.message_bits
    return SimulationResult(
        trials=T,
        seed=cfg.seed,
        pe_overall=n_block / T,
        pe_overall_ci=wilson_ci(n_block, T),
        pe_per_level=[c / T for c in n_lvl.tolist()],
        pe_per_level_ci=[wilson_ci(c, T) for c in n_lvl.tolist()],
        pe_wbar_direct=n_wbar / T,
        pe_wbar_direct_ci=wilson_ci(n_wbar, T),
        ber_overall=int(n_bit.sum()) / (L * T * kb),
        ber_per_level=[c / (T * kb) for c in n_bit.tolist()],
        counts={
            "block_errors": n_block,
            "level_errors": n_lvl.tolist(),
            "bit_errors": n_bit.tolist(),
            "wbar_errors": n_wbar,
            "message_bits": kb,
        },
    )


# ---------------------------------------------------------------------------
# Statistical equivalence test (pipeline LLRs vs synthesized channel LLRs)
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """Two-sample test of pipeline level-1 LLRs against synthesized-channel LLRs."""

    method: str  # "ks" for continuous outputs, "chi2" for Dmc
    statistic: float
    p_value: float  # smallest p over the two conditioning bits
    p_per_bit: tuple[float, float]
    samples_per_bit: tuple[int, int]


def _pipeline_llr_samples(cfg: PbicmSimConfig, rng, dither: bool, zero_other_levels: bool):
    """Level-1 de-dithered LLRs paired with the transmitted level-1 bits."""
    code, cons, base = cfg.code, cfg.cons, cfg.channel
    L, n, t = cons.L, code.n, cfg.trials
    cw = code.codebook[rng.integers(0, code.M, size=(t, L))]
    if zero_other_levels:
        cw[:, 1:, :] = 0  # non-random code at the other levels
    d = rng.integers(0, 2, size=(t, L, n)).astype(np.uint8)
    if not dither:
        d[:] = 0
    s = rng.integers(0, L, size=(t, n))
    z = _receive_llrs(base, cons, _send(base, cons, cw, d, s, rng), d, s)
    return z[:, 0, :].ravel(), cw[:, 0, :].ravel()


def _direct_llr_samples(cfg: PbicmSimConfig, rng):
    """LLR samples of the synthesized randomized binary channel, per input bit."""
    b = rng.integers(0, 2, size=(cfg.trials, cfg.code.n)).astype(np.uint8)
    return _direct_llrs(cfg.channel, cfg.cons, b, rng).ravel(), b.ravel()


def _two_sample_discrete(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    from scipy import stats  # imported here: it dominates the package's import time

    vals = np.unique(np.concatenate([a, b]))
    ca = np.array([(a == v).sum() for v in vals])
    cb = np.array([(b == v).sum() for v in vals])
    keep = (ca + cb) > 0
    table = np.stack([ca[keep], cb[keep]])
    res = stats.chi2_contingency(table)
    return float(res[0]), float(res[1])


def equivalence_test(
    cfg: PbicmSimConfig, *, dither: bool = True, zero_other_levels: bool = False
) -> EquivalenceReport:
    """Compare level-1 pipeline LLRs to synthesized-channel LLRs, per bit.

    Uses a two-sample Kolmogorov-Smirnov test for continuous channels and a
    two-sample chi-square test on the discrete LLR values for Dmc bases.
    ``dither=False`` and ``zero_other_levels=True`` inject the faults whose
    detection demonstrates why the randomization is required.
    """
    from scipy import stats  # imported here: it dominates the package's import time

    if cfg.trials * cfg.code.n < 10_000:
        raise ValueError("insufficient samples (< 10^4): increase trials")
    z_pipe, b_pipe = _pipeline_llr_samples(cfg, make_rng(cfg.seed, 900_001), dither, zero_other_levels)
    z_dir, b_dir = _direct_llr_samples(cfg, make_rng(cfg.seed, 900_002))
    stats_out = []
    counts = []
    for bit in (0, 1):
        a = z_pipe[b_pipe == bit]
        c = z_dir[b_dir == bit]
        counts.append(min(a.size, c.size))
        if isinstance(cfg.channel, Dmc):
            stat, p = _two_sample_discrete(a, c)
            method = "chi2"
        else:
            res = stats.ks_2samp(a, c, method="asymp")
            stat, p = float(res.statistic), float(res.pvalue)
            method = "ks"
        stats_out.append((stat, p))
    worst = min(stats_out, key=lambda sp: sp[1])
    return EquivalenceReport(
        method=method,
        statistic=worst[0],
        p_value=worst[1],
        p_per_bit=(stats_out[0][1], stats_out[1][1]),
        samples_per_bit=(counts[0], counts[1]),
    )
