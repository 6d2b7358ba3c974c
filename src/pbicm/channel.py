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
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _value

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


def _stochastic(matrix) -> np.ndarray:
    """``matrix`` as a float array, or a ValueError unless it is 2-D, not empty and row-stochastic."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("Dmc matrix must be 2-D")
    if 0 in m.shape:
        raise ValueError(f"Dmc matrix must have at least one row and one column, got shape {m.shape}")
    # each row sum within 1e-9 + 1e-5 of 1 (np.allclose's tolerance); a NaN fails the test
    if m.min() < 0 or not np.abs(m.sum(axis=1) - 1.0).max() <= 1e-9 + 1e-5:
        raise ValueError("Dmc matrix must be row-stochastic")
    return m


@dataclass(frozen=True, eq=False)
class Dmc(_value.Value):
    """Discrete memoryless channel, a ``_value.Value``; inputs are row indices of ``matrix``."""

    matrix: np.ndarray

    def __post_init__(self):
        self._store(matrix=_stochastic(self.matrix))

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


def _integer(field: str, v) -> int:
    """``v`` as an int, or a ValueError that names the field: a bool or a float such as 2.5 is not an integer."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {v!r}")
    return int(v)


def density(ch: ChannelModel, y, x) -> float:
    """Channel transition probability (Dmc) or density (continuous).

    For ``RayleighCsi`` the output is the pair ``(y, h)`` and the returned
    value is the conditional density given the provided h.
    """
    if isinstance(ch, Dmc):
        x = _value.index(x, ch.nx, "input outside channel alphabet")
        return float(ch.matrix[x, _value.index(y, ch.ny, "output outside channel support")])
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
        return int(sample_batch(ch, x, rng))
    out = sample_batch(ch, np.asarray(complex(x)), rng)
    return complex(out) if isinstance(ch, Awgn) else (complex(out[0]), complex(out[1]))


def sample_batch(ch: ChannelModel, x: np.ndarray, rng: np.random.Generator):
    """Vectorized ``sample`` over an input array (same per-element law).

    Noise draws do not depend on the input values, only on array shape,
    so two batches of equal shape consume identical generator state.
    A Dmc input that is not an integer in 0..nx-1 raises ValueError.
    """
    if isinstance(ch, Dmc):
        x = _value.index(x, ch.nx, "input outside channel alphabet")
        u = rng.random(x.shape)
        cdf = np.cumsum(ch.matrix, axis=1)
        # no last threshold: rows may sum to 1 - 1e-9, and a draw above that is still output ny-1
        return (u[..., None] > cdf[x, :-1]).sum(axis=-1).astype(np.int64)
    # each (..., 2) draw of real and imaginary parts is read as complex in place
    if isinstance(ch, Awgn):
        y = rng.normal(scale=np.sqrt(ch.n0 / 2), size=(*x.shape, 2)).view(complex)[..., 0]
        y += x
        return y
    h = rng.normal(scale=np.sqrt(0.5), size=(*x.shape, 2)).view(complex)[..., 0]
    y = rng.normal(scale=np.sqrt(ch.n0 / 2), size=(*x.shape, 2)).view(complex)[..., 0]
    y += h * x
    return y, h


def _parse(path: Path, field: str, convert, raw):
    """``convert(raw)``, or a ValueError that names the file and the field."""
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: {field}: cannot read {raw!r} as {convert.__name__}") from None


_JSON_KINDS = {"integer": (int,), "number": (int, float)}


def _json_value(field: str, kind: str, raw):
    """``raw`` if it is a JSON ``kind``, or a ValueError that names the field.

    The type must match exactly: ``int`` and ``float`` would read a JSON
    ``true`` (a bool) as 1, and ``int`` would truncate 2.7 or read "2".
    """
    if type(raw) not in _JSON_KINDS[kind]:
        raise ValueError(f"{field}: expected a JSON {kind}, got {raw!r}")
    return raw


def _json_rows(field: str, raw) -> np.ndarray:
    """``raw`` as a 2-D float array if it is a non-empty list of non-empty rows of JSON numbers, all rows of
    one length; otherwise a ValueError that names the field."""
    listed = isinstance(raw, list) and raw and all(isinstance(r, list) and r for r in raw)
    if not (listed and len({len(r) for r in raw}) == 1):
        raise ValueError(f"{field}: expected a non-empty list of non-empty rows of one length, got {raw!r}")
    return np.array([[_json_value(field, "number", v) for v in r] for r in raw], dtype=float)


def load_dmc(path: str | Path) -> Dmc:
    """Load a Dmc matrix from a .json or .csv file.

    JSON: object with keys ``nx`` and ``ny`` (JSON integers) and ``matrix``,
    either a flat row-major list of nx*ny probabilities or nx nested rows of
    ny, each a JSON number (not a bool or a string).
    CSV: header line ``nx,ny`` followed by exactly nx rows of ny probabilities.
    nx and ny must be at least 1.  Every parse failure raises ValueError
    naming the file and the field.
    """
    path = Path(path)
    if path.suffix not in (".json", ".csv"):
        raise ValueError(f"unsupported Dmc file type: {path.suffix!r}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text file ({exc})") from None
    if path.suffix == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        for key in ("nx", "ny", "matrix"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"{path}: missing key {key!r}")
        nx, ny = (_json_value(f"{path}: {key}", "integer", obj[key]) for key in ("nx", "ny"))
        values = obj["matrix"]
        if not isinstance(values, list):
            raise ValueError(f"{path}: matrix: expected a list, got {values!r}")
        # nested rows must be nx rows of ny; a flat list is one row of nx*ny
        rows, shape = (values, [ny] * nx) if all(isinstance(r, list) for r in values) else ([values], [nx * ny])
    else:
        lines = [ln.split(",") for ln in text.splitlines() if ln.strip()]
        if not lines or len(lines[0]) != 2:
            raise ValueError(f"{path}: header: expected a first line 'nx,ny'")
        nx, ny = (_parse(path, "header", int, v) for v in lines[0])
        rows = [[_parse(path, f"row {i}", float, v) for v in row] for i, row in enumerate(lines[1:], 1)]
        shape = [ny] * nx
    for key, n in (("nx", nx), ("ny", ny)):
        if n < 1:
            raise ValueError(f"{path}: {key}: must be at least 1, got {n}")
    if [len(r) for r in rows] != shape:
        raise ValueError(f"{path}: matrix: Dmc file shape does not match header nx={nx}, ny={ny}")
    if path.suffix == ".json":
        rows = _json_rows(f"{path}: matrix", rows)
    try:
        return Dmc(np.asarray(rows, dtype=float).reshape(nx, ny))
    except ValueError as exc:
        raise ValueError(f"{path}: matrix: {exc}") from None


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
