"""Gray-labeled constellations with unit average energy.

A constellation couples a set of complex points with a bijective labeling
from L-bit strings to point indices.  Bit vectors are ordered MSB-first:
``bits[0]`` is mapper input 1 and contributes ``2**(L-1)`` to the label
integer.  QAM labelings use an independent reflected-binary Gray code per
I/Q axis; PSK labelings use a reflected-binary Gray code around the ring.

Every layer reads a constellation through its independent axes
(``Constellation.axes``), found from the points and labels: when the real
part of the symbol depends on one set of label bits and the imaginary part
on the rest, each part is a real PAM axis carrying its own bits, and since
complex noise has independent real and imaginary parts, every sub-channel
law is the law of its axis alone (Caire, Taricco & Biglieri, IEEE Trans. IT
1998).  BPSK is one 1-D axis (its imaginary part is constant and carries
nothing), QPSK two 1-D BPSK axes, QAM16 and QAM64 two 1-D PAM axes (MSB half
on I, LSB half on Q).  PSK8 does not split and is one 2-D axis.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _value
from .channel import _integer


def _gray(k: np.ndarray) -> np.ndarray:
    return k ^ (k >> 1)


@dataclass(frozen=True, eq=False)
class Axis(_value.Value):
    """One independent axis of a constellation, a ``_value.Value``.

    ``bits`` are the 0-based label bit positions the axis carries (MSB-first
    index into the label), ``dims`` the real output coordinates it reads
    (0 = real, 1 = imaginary part), and ``points[k]`` (one real coordinate
    per entry of ``dims``) the point of axis label ``k``, whose bits are
    the label's bits at ``bits``, MSB-first.
    """

    bits: tuple[int, ...]
    dims: tuple[int, ...]
    points: np.ndarray  # (2**len(bits), len(dims)) real

    def __post_init__(self):
        self._store(points=np.asarray(self.points, dtype=float))

    @property
    def L(self) -> int:
        return len(self.bits)


def _independent_axes(L: int, symbols: np.ndarray) -> tuple[Axis, ...]:
    """Split the labeled points into axes, or return the whole plane as one 2-D axis."""
    lab = np.arange(2**L)
    coords = np.stack([symbols.real, symbols.imag])  # (2, m): coordinate r of each label
    # the bits that move each coordinate when flipped
    deps = [tuple(s for s in range(L) if np.any(c != c[lab ^ (1 << (L - 1 - s))])) for c in coords]
    if set(deps[0]).isdisjoint(deps[1]) and len(deps[0]) + len(deps[1]) == L:
        axes = []
        for r, bits in enumerate(deps):
            if bits:  # a constant coordinate carries no information and is dropped
                k = np.arange(2 ** len(bits))
                # the label with axis label k at positions ``bits`` and zeros elsewhere
                at = sum(((k >> (len(bits) - 1 - p)) & 1) << (L - 1 - s) for p, s in enumerate(bits))
                axes.append(Axis(bits, (r,), coords[r, at][:, None]))
        return tuple(axes)
    return (Axis(tuple(range(L)), (0, 1), coords.T),)


def _pam_points(m: int) -> np.ndarray:
    """Ascending odd-integer PAM grid with m levels: -(m-1), ..., m-1."""
    return np.arange(-(m - 1), m, 2, dtype=float)


@dataclass(frozen=True, eq=False)
class Constellation(_value.Value):
    """Complex constellation with a Gray bit labeling, a ``_value.Value``.

    Its independent axes (``axes``, see the module docstring) are derived
    from ``points`` and ``labels``, not from the name: when the real and
    imaginary parts of the symbols depend on disjoint sets of label bits,
    each part with some bits is a 1-D axis (BPSK, QPSK, QAM16, QAM64);
    otherwise the plane is one 2-D axis (PSK8).  Over a Dmc base the axes
    are not used: its law is given per label, so every bit is read at once.

    Attributes
    ----------
    name : str
        One of ``KINDS``.
    L : int
        Bits per symbol; ``2**L`` points.
    points : np.ndarray
        Complex points in geometric enumeration order (grid order for QAM,
        ring order for PSK), unit average energy.
    labels : np.ndarray
        ``labels[b]`` is the point index carrying the L-bit label with
        integer value ``b`` (MSB-first).
    axes : tuple[Axis, ...]
        The independent axes; their ``bits`` partition ``range(L)``.
    """

    name: str
    L: int
    points: np.ndarray
    labels: np.ndarray
    symbols: np.ndarray = field(init=False, repr=False)
    axes: tuple[Axis, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if _integer("L", self.L) < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        points = np.asarray(self.points, dtype=complex)
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        labels = _value.index(self.labels, 2**self.L, "labels").astype(np.int64)
        if points.shape != (2**self.L,) or labels.shape != (2**self.L,):
            raise ValueError("points/labels must have 2**L entries")
        if sorted(labels.tolist()) != list(range(2**self.L)):
            raise ValueError("labels must be a bijection onto point indices")
        symbols = points[labels]  # symbols[b] = point carrying label integer b
        self._store(points=points, labels=labels, symbols=symbols, axes=_independent_axes(self.L, symbols))

    @property
    def m(self) -> int:
        return 2**self.L

    def to_json(self) -> str:
        """JSON dump: name, L, points as [re, im] pairs, labels."""
        return json.dumps(
            {
                "name": self.name,
                "L": self.L,
                "points": [[float(p.real), float(p.imag)] for p in self.points],
                "labels": [int(v) for v in self.labels],
            },
            indent=2,
        )


def _qam(bits_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    m_axis = 2**bits_per_axis
    pam = _pam_points(m_axis)
    # grid order: point index = i_axis * m_axis + q_axis
    pts = (pam[:, None] + 1j * pam[None, :]).ravel()
    pts = pts / np.sqrt(np.mean(np.abs(pts) ** 2))
    pos = np.arange(m_axis)
    gray = _gray(pos)
    pos_of_gray = np.empty(m_axis, dtype=np.int64)
    pos_of_gray[gray] = pos  # Gray code -> PAM level index
    lab = np.arange(4**bits_per_axis)
    hi = lab >> bits_per_axis  # first half of the bits -> I axis
    lo = lab & (m_axis - 1)  # second half -> Q axis
    labels = pos_of_gray[hi] * m_axis + pos_of_gray[lo]
    return pts, labels


def _psk(L: int) -> tuple[np.ndarray, np.ndarray]:
    m = 2**L
    k = np.arange(m)
    pts = np.exp(2j * np.pi * k / m)
    gray = _gray(k)
    labels = np.empty(m, dtype=np.int64)
    labels[gray] = k  # ring position of each label
    return pts, labels


_BUILDERS = {  # kind -> (points, labels); the number of points fixes L
    "BPSK": lambda: (np.array([1.0 + 0j, -1.0 + 0j]), np.array([0, 1])),
    "QPSK": lambda: _qam(1),
    "PSK8": lambda: _psk(3),
    "QAM16": lambda: _qam(2),
    "QAM64": lambda: _qam(3),
}
KINDS = tuple(_BUILDERS)


def make_constellation(kind: str, labeling: str = "Gray") -> Constellation:
    """Build one of the supported Gray-labeled unit-energy constellations.

    Parameters
    ----------
    kind : str
        One of ``KINDS``.
    labeling : str
        Only ``"Gray"`` is supported (reflected-binary: per axis for QAM,
        around the ring for PSK).
    """
    if labeling != "Gray":
        raise ValueError(f"unsupported labeling: {labeling!r}")
    if kind not in KINDS:  # a tuple test: an unhashable kind is refused like any other
        raise ValueError(f"unsupported constellation kind: {kind!r}")
    pts, labels = _BUILDERS[kind]()
    return Constellation(kind, len(pts).bit_length() - 1, pts, labels)


def bits_to_int(bits: np.ndarray) -> np.ndarray:
    """Pack an MSB-first bit axis (last axis) into label integers."""
    bits = np.asarray(bits)
    L = bits.shape[-1]
    weights = 1 << np.arange(L - 1, -1, -1)
    return (bits * weights).sum(axis=-1)


def int_to_bits(vals: np.ndarray, L: int) -> np.ndarray:
    """Unpack label integers into an MSB-first bit axis appended last."""
    vals = np.asarray(vals)
    shifts = np.arange(L - 1, -1, -1)
    return ((vals[..., None] >> shifts) & 1).astype(np.uint8)


def map_bits(cons: Constellation, bits: np.ndarray) -> np.ndarray:
    """Map L-bit vectors (last axis) to constellation symbols.

    Returns the complex symbol array with the bit axis removed.  Raises
    ``ValueError`` if the trailing axis does not have length L or contains
    values outside {0, 1}.
    """
    bits = _value.bits(bits, "bits")
    if bits.shape[-1] != cons.L:
        raise ValueError(f"expected {cons.L} bits per symbol, got {bits.shape[-1]}")
    return cons.symbols[bits_to_int(bits)]
