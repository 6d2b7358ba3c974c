"""Generic information-theoretic routines on explicit channel matrices.

Self-contained matrix formulas (capacity, Gallager E0, exponents, channel
dispersion) used both as public helpers and as the independent cross-check
path for the sub-channel machinery: quantities of the randomized binary
channel computed here from its explicit matrix must match the combining
formulas to high precision.  All quantities are in bits (log base 2) with
an equiprobable input unless a prior is given.  Every entry point checks its
matrix by the rules of ``channel.Dmc`` (2-D, at least one row and one column,
row-stochastic) and raises ``ValueError`` for one that breaks them; nothing
here reads the quadrature layer (``_ensemble``) that these routines check.
"""
from __future__ import annotations

import numpy as np

from ._opt import exponent_max
from .channel import _stochastic

LN2 = np.log(2.0)


def _prior(P: np.ndarray, prior) -> np.ndarray:
    if prior is None:
        return np.full(P.shape[0], 1.0 / P.shape[0])
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (P.shape[0],) or abs(prior.sum() - 1.0) > 1e-9 or np.any(prior < 0):
        raise ValueError("prior must be a distribution over channel inputs")
    return prior


def information_moments(P: np.ndarray, prior=None) -> tuple[float, float]:
    """First and second moments of the information density i(x;y) in bits."""
    P = _stochastic(P)
    px = _prior(P, prior)
    py = px @ P
    with np.errstate(divide="ignore", invalid="ignore"):
        i = (np.log(P) - np.log(py)[None, :]) / LN2
    mass = px[:, None] * P
    i = np.where(P > 0, i, 0.0)
    m1 = float(np.sum(mass * i))
    m2 = float(np.sum(mass * i * i))
    return m1, m2


def capacity(P: np.ndarray, prior=None) -> float:
    """Mutual information I(X;Y) in bits for the given input distribution."""
    return information_moments(P, prior)[0]


def dispersion(P: np.ndarray, prior=None) -> float:
    """Variance of the information density, bits^2."""
    m1, m2 = information_moments(P, prior)
    return m2 - m1 * m1


def e0(P: np.ndarray, rho: float, prior=None) -> float:
    """Gallager E0(rho) in bits: -log2 sum_y (sum_x p_x W^{1/(1+rho)})^{1+rho}, for a finite rho >= 0."""
    rho = float(rho)
    if not 0.0 <= rho < np.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho!r}")
    P = _stochastic(P)
    return _e0(P, _prior(P, prior), rho)


def _e0(P: np.ndarray, px: np.ndarray, rho: float) -> float:
    q = 1.0 / (1.0 + rho)
    inner = px @ P**q
    return float(-np.log2(np.sum(inner ** (1.0 + rho))))


def _exponent(P: np.ndarray, rate: float, prior, sphere: bool) -> float:
    P = _stochastic(P)
    px = _prior(P, prior)
    return exponent_max(lambda r: _e0(P, px, r), rate, sphere=sphere)


def random_coding_exponent(P: np.ndarray, rate: float, prior=None) -> float:
    """max_{rho in [0,1]} E0(rho) - rho*rate (bits)."""
    return _exponent(P, rate, prior, sphere=False)


def sphere_packing_exponent(P: np.ndarray, rate: float, prior=None) -> float:
    """sup_{rho > 0} E0(rho) - rho*rate (bits); inf when unbounded at the cap."""
    return _exponent(P, rate, prior, sphere=True)
