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
from functools import cached_property
from pathlib import Path

import numpy as np

from .channel import (
    ChannelModel,
    Dmc,
    RayleighCsi,
    _integer,
    _json_rows,
    _json_value,
    awgn_from_snr,
    load_dmc,
    make_rng,
    rayleigh_from_snr,
    sample_batch,
)
from . import _value
from .constellation import Constellation, make_constellation
from .subchannel import check_labeling, llr_matrix

MAX_CODEBOOK = 2**16
_CHUNK = 8192
# ML decoding scores a block of rows at a time into one buffer of this many
# float32 entries (4 MiB): 256 rows for M = 4096.  Median time of a 2048-row
# decode with M = 4096 and n = 64 (2-core x86 VM, one OpenBLAS thread) by
# rows per block: 8 rows 56 ms, 32 rows 32 ms, 128 rows 25 ms, 256 rows
# 24 ms, 512 rows 25 ms; the whole (2048, 4096) score array at once, 31 ms.
_SCORE_BLOCK = 1 << 20
# Codes of at most this many codewords are scored in float64 outright: on short
# score rows the float32 certificate (a second argmax, row sizes, the gap test)
# costs more than the float32 GEMM saves.  Median time of a 30,000-row decode
# (same VM and thread), float32 with certificate against float64: M = 2 (n = 5)
# 5.1 vs 0.9 ms, M = 16 (Hamming(7,4)) 10.6 vs 3.2 ms, M = 32 (n = 15) 11.0 vs
# 4.4 ms, M = 64 (n = 16) 11.8 vs 6.5 ms, M = 128 14.5 vs 11.3 ms, M = 256 18.1
# vs 18.1 ms.  The crossover is near 256; the limit stays below 64 so that the
# tests' codes of 64 codewords and more keep exercising the float32 path.
_FLOAT64_MAX_M = 32


# ---------------------------------------------------------------------------
# Binary block codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BinaryCode(_value.Value):
    """Explicit-codebook binary block code, a ``_value.Value``; message i sends ``codebook[i]``."""

    name: str
    codebook: np.ndarray  # (M, n) uint8, C-contiguous

    def __post_init__(self):
        cb = _value.bits(self.codebook, "codewords")
        if cb.ndim != 2 or cb.shape[0] < 2 or cb.shape[1] < 1:
            raise ValueError(f"codebook must be (M, n) with M >= 2 and blocklength n >= 1, got shape {cb.shape}")
        if cb.shape[0] > MAX_CODEBOOK:
            raise ValueError(f"codebook larger than {MAX_CODEBOOK} codewords")
        self._store(codebook=cb)

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

    @cached_property
    def signs32_t(self) -> np.ndarray:
        """Read-only (n, M) float32 matrix of the codewords as columns, +1 for a 0 bit and -1 for a 1 bit; built once."""
        signs = np.ascontiguousarray(1 - 2 * self.codebook.T.astype(np.float32))
        signs.setflags(write=False)
        return signs


def repetition(n: int) -> BinaryCode:
    n = _integer("n", n)
    return BinaryCode("repetition", np.array([[0] * n, [1] * n], dtype=np.uint8))


_HAMMING_P = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)


def hamming74() -> BinaryCode:
    msgs = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    cb = np.concatenate([msgs, (msgs @ _HAMMING_P) % 2], axis=1)
    return BinaryCode("hamming74", cb)


def random_codebook(n: int, M: int, seed: int) -> BinaryCode:
    n, M, seed = _integer("n", n), _integer("M", M), _integer("seed", seed)
    return BinaryCode("random", make_rng(seed).integers(0, 2, size=(M, n)).astype(np.uint8))


def make_code(spec: dict) -> BinaryCode:
    """The code of a simulation spec's ``code`` object; its sizes and seed must be JSON integers."""
    kind = spec.get("kind")
    spec = {"seed": 0, **spec}

    def integer(key: str) -> int:
        return _json_value(f"code.{key}", "integer", spec[key])

    if kind == "repetition":
        return repetition(integer("n"))
    if kind == "hamming74":
        return hamming74()
    if kind == "random":
        return random_codebook(integer("n"), integer("M"), integer("seed"))
    raise ValueError(f"unknown code kind: {kind!r}")


# ---------------------------------------------------------------------------
# Common randomness and the bit pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PbicmState(_value.Value):
    """Shared randomness of one block, a ``_value.Value``: states s in {0..L-1}^n, dither d in {0,1}^(L x n)."""

    s: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        d = _value.bits(self.d, "dither")
        if d.ndim != 2 or np.shape(self.s) != (d.shape[1],):
            raise ValueError("state length must match dither columns")
        self._store(s=_value.index(self.s, d.shape[0], "states").astype(np.int64), d=d)


def make_state(L: int, n: int, rng: np.random.Generator) -> PbicmState:
    return PbicmState(rng.integers(0, L, size=n), rng.integers(0, 2, size=(L, n)).astype(np.uint8))


def interleave(B: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cyclic per-column shift of the level axis of a (..., L, n) batch.

    Output row l of column k is input row (l+s_k) mod L, with states ``s`` in
    0..L-1 of shape (..., n).  A zero state leaves the column untouched.
    """
    B = np.asarray(B)
    L = _levels(B, s)
    rows = (np.arange(L)[:, None] + _value.index(s, L, "states")[..., None, :]) % L
    return np.take_along_axis(B, rows, axis=-2)


def deinterleave(Z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Inverse column shift of a (..., L, n) bit or LLR batch, states (..., n) in 0..L-1."""
    L = _levels(Z, s)
    return interleave(Z, (L - _value.index(s, L, "states")) % L)


def _levels(B, s) -> int:
    """L of a (..., L, n) batch whose states ``s`` are (..., n), or a ValueError naming both shapes."""
    shape = np.shape(B)
    if len(shape) < 2 or np.shape(s) != shape[:-2] + shape[-1:]:
        raise ValueError(f"states of shape {np.shape(s)} do not match a (..., L, n) batch of shape {shape}")
    return shape[-2]


def apply_dither(bits: np.ndarray, d: np.ndarray) -> np.ndarray:
    """XOR of 0/1 bits with 0/1 dither bits, as uint8."""
    return _value.bits(bits, "bits") ^ _value.bits(d, "dither")


def remove_dither_llr(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Flip LLR signs wherever the 0/1 dither bit was 1."""
    return _undither(z, _value.bits(d, "dither"))


def _undither(z, d) -> np.ndarray:  # unchecked: the simulate path draws its own dither
    return np.asarray(z) * (1.0 - 2.0 * np.asarray(d, dtype=float))


def ml_decode(code: BinaryCode, z: np.ndarray) -> int:
    """Maximum-likelihood message: argmax_c sum_j (1-2c_j) z_j, lowest index on ties."""
    z = np.asarray(z, dtype=float)
    if z.shape != (code.n,):
        raise ValueError("LLR vector length must equal the code blocklength")
    return int(_ml_decode_batch(code, z))


def _ml_decode_batch(code: BinaryCode, Z: np.ndarray) -> np.ndarray:
    """ML message of every length-n row of a (..., n) LLR batch, lowest index on ties.

    The rows are scored against all M codewords a block of rows at a time,
    each block GEMMed into one reused score buffer, so memory stays bounded
    whatever M and the batch size are.  Codes of at most ``_FLOAT64_MAX_M``
    codewords are scored in float64.  Larger codes are scored in float32:
    the float32 winner of a row stands when it leads the runner-up by more
    than twice a bound on how far a float32 score can be from the float64
    one, and is then also the unique float64 winner; any other row (a near
    tie, or an LLR that is not finite) is rescored in float64.  So for every
    code the decisions, ties included, are those of float64 scores.
    """
    if Z.shape[-1] != code.n:
        raise ValueError(f"LLR rows have length {Z.shape[-1]}, but the code blocklength is {code.n}")
    rows = Z.reshape(-1, code.n)
    exact = code.M <= _FLOAT64_MAX_M
    dtype = np.float64 if exact else np.float32
    signs = code.signs32_t.astype(dtype, copy=False)  # +-1 is exact in both
    # 1 MiB float64 blocks for small codes: as fast as 8 MiB ones, and a lower peak RSS
    R, step = len(rows), max(1, _SCORE_BLOCK // (8 * code.M if exact else code.M))
    out = np.empty(R, dtype=np.intp)
    buf = np.empty((min(step, R), code.M), dtype=dtype)
    # Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1: a
    # length-n dot product in unit roundoff u is off by at most g_n sum|x_j y_j|
    # in any summation order, g_n = n u / (1 - n u) <= 1.01 n u for n u <= 0.01.
    # With the rounding of each z_j to float32 (2^-24 |z_j|), the float32 and
    # the float64 score of a row are together within 1.01 (n + 1) (2^-24 +
    # 2^-53) sum|z| of the exact one; ``scale`` doubles that, to cover the
    # rounding of the bound and of the gap.  Below the float32 normal range
    # each entry and each addition may lose up to 2^-126 more (subnormals
    # flushed to zero), which ``tiny`` adds.  A float32 winner that leads by
    # more than twice the sum is the unique float64 winner.  No row is
    # certified beyond n u = 0.01, or where a float32 sum could overflow
    # (sum|z| > 2^127).
    scale = 2 * (code.n + 2) * (2.0**-24 + 2.0**-53) if code.n <= 0.01 * 2**24 else np.inf
    tiny = 2 * (code.n + 1) * 2.0**-126
    with np.errstate(over="ignore", invalid="ignore"):  # LLRs that are not finite score in float64
        for k in range(0, R, step):
            block = rows[k : k + step]
            scores = buf[: len(block)]  # the last block may be short
            np.matmul(block.astype(dtype, copy=False), signs, out=scores)
            best = scores.argmax(axis=-1, out=out[k : k + step])
            if exact:
                continue
            at = np.arange(len(block))
            gap = scores[at, best].astype(np.float64)
            scores[at, best] = -np.inf
            gap -= scores[at, scores.argmax(axis=-1)]  # on short rows argmax is twice as fast as max
            size = np.abs(block) @ np.ones(code.n)  # as are row sums by GEMV
            unsure = np.flatnonzero(~(gap > 2 * (scale * size + tiny)) | (size > 2.0**127))
            if unsure.size:
                best[unsure] = (block[unsure] @ code.signs32_t.astype(np.float64)).argmax(axis=-1)
    return out.reshape(Z.shape[:-1])


def _map_and_sample(base: ChannelModel, cons: Constellation, lab: np.ndarray, rng):
    """Send labels: Dmc rows for a Dmc base, constellation symbols otherwise."""
    x = cons.labels[lab] if isinstance(base, Dmc) else cons.symbols[lab]
    return sample_batch(base, x, rng)


def _interleaved_labels(B: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Labels of the columns of ``interleave(B, s)``, bits (..., L, n) and states (..., n).

    Each column of B is packed MSB-first, then rotated left by its state
    within L bits: the same integers as
    ``bits_to_int(np.moveaxis(interleave(B, s), -2, -1))``.
    """
    L = B.shape[-2]
    lab = B[..., 0, :].astype(np.int64)
    for row in range(1, L):
        lab <<= 1
        lab |= B[..., row, :]
    lab = (lab << s) | (lab >> (L - s))
    lab &= (1 << L) - 1
    return lab


def _deinterleaved_llrs(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``deinterleave`` of the (L, N) LLRs of N outputs shaped like the states s (..., n), read in one take.

    Row l of column k is row (l - s_k) mod L of z, the mod taken by adding L
    where l - s_k < 0; its flat index is that row times N plus k.
    """
    L, N = z.shape
    idx = np.arange(L)[:, None] - s[..., None, :]
    idx += L * (idx < 0)
    idx *= N
    idx += np.arange(N).reshape(s.shape)[..., None, :]
    return np.take(z, idx)


def _llr_rows(base: ChannelModel, cons: Constellation, out) -> np.ndarray:
    """(L, N) LLRs of channel outputs of any base type, N the number of outputs."""
    ys = out if isinstance(base, RayleighCsi) else (out,)
    return llr_matrix(base, cons, *(np.asarray(a).ravel() for a in ys))


def _send(base: ChannelModel, cons: Constellation, cw, d, s, rng):
    """Dither, interleave, pack and map (..., L, n) codeword bits, then send them."""
    return _map_and_sample(base, cons, _interleaved_labels(cw ^ d, s), rng)


def _receive_llrs(base: ChannelModel, cons: Constellation, out, d, s) -> np.ndarray:
    """Demap, de-interleave and de-dither channel outputs -> (..., L, n) LLRs."""
    return _undither(_deinterleaved_llrs(_llr_rows(base, cons, out), s), d)


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
    z = _llr_rows(base, cons, _map_and_sample(base, cons, lab, rng))
    N = z.shape[1]
    return _undither(np.take(z, (s - 1) * N + np.arange(N).reshape(s.shape)), d)  # row s - 1 of each output


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
    if np.shape(messages) != (state.d.shape[0],):
        raise ValueError("need one message per level")
    messages = _value.index(messages, code.M, "message index")
    return _send(base, cons, code.codebook[messages], state.d, state.s, rng)


def pbicm_receive(
    y,
    state: PbicmState,
    code: BinaryCode,
    base: ChannelModel,
    cons: Constellation,
) -> np.ndarray:
    """Demap, de-interleave, de-dither and ML-decode all L levels."""
    for a in y if isinstance(base, RayleighCsi) else (y,):
        if np.shape(a) != state.s.shape:
            raise ValueError(f"channel outputs have shape {np.shape(a)}, but the state has length {state.s.size}")
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
        self.trials, self.seed = _integer("trials", self.trials), _integer("seed", self.seed)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_labeling(self.channel, self.cons)

    @classmethod
    def from_json(cls, text: str, base_dir: str | Path = ".") -> "PbicmSimConfig":
        obj = json.loads(text)
        ch = obj["channel"]
        kind = ch["kind"]
        # a key that does not apply to the kind is refused, not ignored, as the CLI refuses --snr-db for a dmc
        for key in {"awgn": ("file", "matrix"), "rayleigh": ("file", "matrix"), "dmc": ("snr_db",)}.get(kind, ()):
            if key in ch:
                raise ValueError(f"channel key {key!r} does not apply to the {kind} channel")
        # values are read by JSON type: a float count or a boolean seed is refused, not truncated or read as 1
        if kind in ("awgn", "rayleigh"):
            snr_db = float(_json_value("channel.snr_db", "number", ch["snr_db"]))
            channel: ChannelModel = (awgn_from_snr if kind == "awgn" else rayleigh_from_snr)(snr_db)
        elif kind == "dmc":
            if "file" in ch and "matrix" in ch:
                raise ValueError("channel keys 'file' and 'matrix' both given for the dmc channel; give one")
            if "file" in ch:
                channel = load_dmc(Path(base_dir) / ch["file"])
            else:
                channel = Dmc(_json_rows("channel.matrix", ch["matrix"]))
        else:
            raise ValueError(f"unknown channel kind: {kind!r}")
        return cls(
            code=make_code(obj["code"]),
            cons=make_constellation(obj["constellation"]),
            channel=channel,
            trials=_json_value("trials", "integer", obj["trials"]),
            seed=_json_value("seed", "integer", obj.get("seed", 0)),
        )


def wilson_ci(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion: k successes in n trials."""
    k, n = _integer("successes k", k), _integer("trials n", n)
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be finite and positive, got {z}")
    if not 0 <= k <= n:
        raise ValueError(f"successes k = {k} outside 0..n for n = {n} trials")
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
        return json.dumps(self.__dict__, indent=2)  # tuples are written as arrays


def _pipeline(cfg: PbicmSimConfig, t: int, rng: np.random.Generator, dither=True, zero_other_levels=False):
    """Messages (t, L), codewords (t, L, n) and de-dithered LLRs (t, L, n) of t blocks sent through the pipeline.

    Draws messages, dither, states and noise in that order; ``dither=False``
    and ``zero_other_levels=True`` inject the faults of ``equivalence_test``.
    """
    code, cons, base = cfg.code, cfg.cons, cfg.channel
    L, n = cons.L, code.n
    msgs = rng.integers(0, code.M, size=(t, L))
    cw = code.codebook[msgs]
    if zero_other_levels:
        cw[:, 1:, :] = 0
    d = rng.integers(0, 2, size=(t, L, n)).astype(np.uint8)
    if not dither:
        d[:] = 0
    s = rng.integers(0, L, size=(t, n))
    return msgs, cw, _receive_llrs(base, cons, _send(base, cons, cw, d, s, rng), d, s)


def _simulate_chunk(cfg: PbicmSimConfig, t: int, rng: np.random.Generator) -> np.ndarray:
    """Error counts of t trials: block errors, L level errors, L bit errors, then W-bar block errors."""
    code = cfg.code
    msgs, _, z = _pipeline(cfg, t, rng)
    dec = _ml_decode_batch(code, z)  # (t, L)
    lvl_err = dec != msgs
    diff = dec ^ msgs
    bit_err = sum(((diff >> b) & 1).sum(axis=0) for b in range(code.message_bits))  # per level

    # Direct synthesis of the randomized binary channel, same code.
    msgs_w = rng.integers(0, code.M, size=t)
    dec_w = _ml_decode_batch(code, _direct_llrs(cfg.channel, cfg.cons, code.codebook[msgs_w], rng))
    return np.concatenate([[lvl_err.any(axis=1).sum()], lvl_err.sum(axis=0), bit_err, [(dec_w != msgs_w).sum()]])


def simulate(cfg: PbicmSimConfig) -> SimulationResult:
    """Monte-Carlo run of the full pipeline plus a direct synthesized-channel run.

    Deterministic given the config: trials are processed in fixed-size
    chunks, each drawing from its own counter-based substream of the seed,
    so results are identical regardless of how chunks are executed.
    """
    code, L, T = cfg.code, cfg.cons.L, cfg.trials
    # The decoder's score block bounds memory; the chunk size only fixes
    # which substream each trial draws from.  The formula is kept so that
    # results for M > 512 codes do not change.
    chunk = max(1, min(_CHUNK, (1 << 22) // code.M))
    counts = sum(
        _simulate_chunk(cfg, min(chunk, T - start), make_rng(cfg.seed, idx))
        for idx, start in enumerate(range(0, T, chunk))
    ).tolist()
    n_block, n_lvl, n_bit, n_wbar = counts[0], counts[1 : L + 1], counts[L + 1 : -1], counts[-1]
    kb = code.message_bits
    return SimulationResult(
        trials=T,
        seed=cfg.seed,
        pe_overall=n_block / T,
        pe_overall_ci=wilson_ci(n_block, T),
        pe_per_level=[c / T for c in n_lvl],
        pe_per_level_ci=[wilson_ci(c, T) for c in n_lvl],
        pe_wbar_direct=n_wbar / T,
        pe_wbar_direct_ci=wilson_ci(n_wbar, T),
        ber_overall=sum(n_bit) / (L * T * kb),
        ber_per_level=[c / (T * kb) for c in n_bit],
        counts={
            "block_errors": n_block,
            "level_errors": n_lvl,
            "bit_errors": n_bit,
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


def _two_sample_discrete(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Chi-square test of two samples of discrete values on their (2, distinct values) count table."""
    from scipy import stats  # imported here: it dominates the package's import time

    vals, idx = np.unique(np.concatenate([a, b]), return_inverse=True)
    table = np.stack([np.bincount(part, minlength=vals.size) for part in (idx[: a.size], idx[a.size :])])
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
    _, cw, z = _pipeline(cfg, cfg.trials, make_rng(cfg.seed, 900_001), dither, zero_other_levels)
    rng = make_rng(cfg.seed, 900_002)
    b = rng.integers(0, 2, size=(cfg.trials, cfg.code.n)).astype(np.uint8)
    z_dir = _direct_llrs(cfg.channel, cfg.cons, b, rng)
    # per conditioning bit: the level-1 LLRs of the pipeline, then those of the synthesized channel
    pairs = [(z[:, 0][cw[:, 0] == bit], z_dir[b == bit]) for bit in (0, 1)]
    if isinstance(cfg.channel, Dmc):
        method, test = "chi2", _two_sample_discrete
    else:
        method, test = "ks", lambda a, c: tuple(map(float, stats.ks_2samp(a, c, method="asymp")[:2]))
    stats_out = [test(a, c) for a, c in pairs]
    worst = min(stats_out, key=lambda sp: sp[1])
    return EquivalenceReport(
        method=method,
        statistic=worst[0],
        p_value=worst[1],
        p_per_bit=(stats_out[0][1], stats_out[1][1]),
        samples_per_bit=tuple(min(a.size, c.size) for a, c in pairs),
    )
