"""Channel models: discrete memoryless, complex AWGN, Rayleigh fading with CSI.

SNR is symbol energy over noise spectral density (Es/N0) in dB; all
constellations have unit average energy, so ``n0 = 10**(-snr_db/10)``.
The AWGN density is ``(1/(pi*n0)) * exp(-|y-x|^2 / n0)`` (circularly
symmetric complex noise, total variance n0).  The Rayleigh model has a
unit-variance complex fading coefficient known at the receiver: channel
outputs are (y, h) pairs and densities condition on h.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SNR_DB_CAP = 100.0


@dataclass(frozen=True)
class Snr:
    """Es/N0 in dB, capped at +100 dB (n0 floor of 1e-10)."""

    value_db: float

    @property
    def n0(self) -> float:
        try:
            return 10.0 ** (-min(self.value_db, SNR_DB_CAP) / 10.0)
        except OverflowError:
            raise ValueError(f"SNR of {self.value_db} dB is too low: noise level overflows") from None


@dataclass(frozen=True)
class Dmc:
    """Discrete memoryless channel; inputs are row indices of ``matrix``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("Dmc matrix must be 2-D")
        if np.any(m < 0) or not np.allclose(m.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("Dmc matrix must be row-stochastic")
        object.__setattr__(self, "matrix", m)

    @property
    def nx(self) -> int:
        return self.matrix.shape[0]

    @property
    def ny(self) -> int:
        return self.matrix.shape[1]


def _check_n0(n0: float) -> None:
    if not (math.isfinite(n0) and n0 > 0):
        raise ValueError(f"noise level must be finite and positive, got {n0}")


@dataclass(frozen=True)
class Awgn:
    n0: float

    def __post_init__(self):
        _check_n0(self.n0)


@dataclass(frozen=True)
class RayleighCsi:
    n0: float

    def __post_init__(self):
        _check_n0(self.n0)


ChannelModel = Dmc | Awgn | RayleighCsi


def _as_snr(snr: Snr | float) -> Snr:
    return snr if isinstance(snr, Snr) else Snr(float(snr))


def awgn_from_snr(snr: Snr | float) -> Awgn:
    return Awgn(_as_snr(snr).n0)


def rayleigh_from_snr(snr: Snr | float) -> RayleighCsi:
    return RayleighCsi(_as_snr(snr).n0)


def bsc(p: float) -> Dmc:
    """Binary symmetric channel with crossover probability p."""
    if not 0 <= p <= 1:
        raise ValueError("crossover probability must be in [0, 1]")
    return Dmc(np.array([[1 - p, p], [p, 1 - p]]))


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for substream ``stream`` of ``seed``.

    Streams with distinct (seed, stream) keys are statistically independent
    and reproducible, so Monte-Carlo work can be split across workers and
    merged deterministically.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def density(ch: ChannelModel, y, x) -> float:
    """Channel transition probability (Dmc) or density (continuous).

    For ``RayleighCsi`` the output is the pair ``(y, h)`` and the returned
    value is the conditional density given the provided h.
    """
    if isinstance(ch, Dmc):
        if not 0 <= int(x) < ch.nx:
            raise ValueError("input outside channel alphabet")
        if not 0 <= int(y) < ch.ny:
            raise ValueError("output outside channel support")
        return float(ch.matrix[int(x), int(y)])
    if isinstance(ch, Awgn):
        return float(np.exp(-np.abs(y - x) ** 2 / ch.n0) / (np.pi * ch.n0))
    yv, h = y
    return float(np.exp(-np.abs(yv - h * x) ** 2 / ch.n0) / (np.pi * ch.n0))


def sample(ch: ChannelModel, x, rng: np.random.Generator):
    """Draw one channel output for input ``x``.

    Returns an output index (Dmc), a complex sample (Awgn), or a
    ``(y, h)`` pair (RayleighCsi).
    """
    if isinstance(ch, Dmc):
        xi = int(x)
        if not 0 <= xi < ch.nx:
            raise ValueError("input outside channel alphabet")
        return int(rng.choice(ch.ny, p=ch.matrix[xi]))
    if isinstance(ch, Awgn):
        n = rng.normal(scale=np.sqrt(ch.n0 / 2), size=2)
        return complex(x) + complex(n[0], n[1])
    g = rng.normal(scale=np.sqrt(0.5), size=2)
    h = complex(g[0], g[1])
    n = rng.normal(scale=np.sqrt(ch.n0 / 2), size=2)
    return complex(h * x) + complex(n[0], n[1]), h


def sample_batch(ch: ChannelModel, x: np.ndarray, rng: np.random.Generator):
    """Vectorized ``sample`` over an input array (same per-element law).

    Noise draws do not depend on the input values, only on array shape,
    so two batches of equal shape consume identical generator state.
    """
    if isinstance(ch, Dmc):
        u = rng.random(x.shape)
        cdf = np.cumsum(ch.matrix, axis=1)
        # no last threshold: rows may sum to 1 - 1e-9, and a draw above that is still output ny-1
        return (u[..., None] > cdf[x, :-1]).sum(axis=-1).astype(np.int64)
    if isinstance(ch, Awgn):
        n = rng.normal(scale=np.sqrt(ch.n0 / 2), size=(*x.shape, 2))
        return x + n[..., 0] + 1j * n[..., 1]
    g = rng.normal(scale=np.sqrt(0.5), size=(*x.shape, 2))
    h = g[..., 0] + 1j * g[..., 1]
    n = rng.normal(scale=np.sqrt(ch.n0 / 2), size=(*x.shape, 2))
    return h * x + n[..., 0] + 1j * n[..., 1], h


def load_dmc(path: str | Path) -> Dmc:
    """Load a Dmc matrix from a .json or .csv file.

    JSON: object with keys ``nx``, ``ny`` and row-major ``matrix``.
    CSV: header line ``nx,ny`` followed by exactly nx rows of ny probabilities.
    """
    path = Path(path)
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        nx, ny, values = int(obj["nx"]), int(obj["ny"]), np.ravel(obj["matrix"])
        fits = values.size == nx * ny
    elif path.suffix == ".csv":
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        nx, ny = (int(v) for v in lines[0].split(","))
        values = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        fits = [len(r) for r in values] == [ny] * nx
    else:
        raise ValueError(f"unsupported Dmc file type: {path.suffix!r}")
    if not fits:
        raise ValueError("Dmc file shape does not match header")
    return Dmc(np.asarray(values, dtype=float).reshape(nx, ny))


def save_dmc(ch: Dmc, path: str | Path) -> None:
    """Write a Dmc in a format accepted by ``load_dmc`` (chosen by suffix)."""
    path = Path(path)
    if path.suffix == ".json":
        obj = {"nx": ch.nx, "ny": ch.ny, "matrix": ch.matrix.ravel().tolist()}
        path.write_text(json.dumps(obj))
        return
    if path.suffix == ".csv":
        lines = [f"{ch.nx},{ch.ny}"]
        for row in ch.matrix:
            lines.append(",".join(f"{v:.17g}" for v in row))
        path.write_text("\n".join(lines) + "\n")
        return
    raise ValueError(f"unsupported Dmc file type: {path.suffix!r}")
