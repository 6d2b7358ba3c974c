"""Capacity, error exponents, dispersion and finite-blocklength rate bounds.

All information quantities are in bits (log base 2).  The parallel scheme
turns L sub-channels into one randomized binary channel (the combined view): its E0 is
the soft combine

    E0(rho) = -log2( (1/L) * sum_s 2**-E0_s(rho) )

over the per-sub-channel Gallager functions; the historical per-state
arithmetic average of E0_s values is also provided (the averaged kind) and
always overestimates the combined value by Jensen's inequality.  Error
exponents of the parallel scheme at total rate R are the binary-channel
exponents at R/L, optionally normalized by L to compare against the
unconstrained channel exponent on a per-channel-use axis.

Capacities and dispersions read one gated ``_ensemble.moment_table`` per
(channel, constellation): the sub-channel capacities, their dispersions and
the full-input capacity, from the moments of the deficit log2(k) - i of
each k-row channel.  So no capacity exceeds the bits its input carries,
even at the SNR cap, where i is log2(k) up to rounding.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from ._ensemble import Ensemble, QuadratureConvergenceError, get_ensemble, moment_table
from ._opt import RHO_MAX, exponent_max
from . import _value
from .channel import ChannelModel, _integer
from .constellation import Constellation

__all__ = [
    "capacity_subchannel",
    "capacity_pbicm",
    "capacity_cm",
    "E0Evaluator",
    "e0_evaluator",
    "e0",
    "random_coding_exponent",
    "sphere_packing_exponent",
    "pbicm_exponent",
    "critical_rate",
    "DispersionReport",
    "dispersion_report",
    "rate_bounds",
    "exponent_gaussian_approx",
    "ExponentCurve",
    "exponent_curve",
    "qfunc",
    "qinv",
    "QuadratureConvergenceError",
]

# E0 kind -> (ensemble, rho, s) -> E0(rho) in bits, from the ensemble's Gallager integrals
_E0_VIEWS = {
    "Subchannel": lambda ens, rho, s: -math.log2(ens.sub_integrals(rho)[s - 1]),
    "WbarCombined": lambda ens, rho, s: -math.log2(ens.sub_integrals(rho).mean()),
    "WachsmannAveraged": lambda ens, rho, s: float(np.mean(-np.log2(ens.sub_integrals(rho)))),
    "Unconstrained": lambda ens, rho, s: -math.log2(ens.mary_integral(rho)),
}
E0_KINDS = tuple(_E0_VIEWS)
_E0_ALIASES = {
    "subchannel": "Subchannel",
    "wbar": "WbarCombined",
    "wachsmann": "WachsmannAveraged",
    "unconstrained": "Unconstrained",
}
# exponent curve kind -> (base, cons) -> the exponent at one rate, as ``exponent_curve`` tabulates it
_CURVES = {
    "RandomCoding": lambda b, c: partial(random_coding_exponent, e0_evaluator(b, c, "WbarCombined")),
    "SpherePacking": lambda b, c: partial(sphere_packing_exponent, e0_evaluator(b, c, "WbarCombined")),
    "PbicmRandomCoding": lambda b, c: partial(pbicm_exponent, b, c),
    "PbicmNormalized": lambda b, c: partial(pbicm_exponent, b, c, normalized=True),
    "UnconstrainedRandomCoding": lambda b, c: partial(random_coding_exponent, e0_evaluator(b, c, "Unconstrained")),
    "WachsmannRandomCoding": lambda b, c: partial(
        lambda ev, r: random_coding_exponent(ev, r / c.L), e0_evaluator(b, c, "WachsmannAveraged")
    ),
}
CURVE_KINDS = tuple(_CURVES)


@functools.lru_cache(maxsize=8)
def _moments(base: ChannelModel, cons: Constellation):
    """Gated ``moment_table`` of (base, cons): sub-channel capacities and dispersions, ``[capacity_cm]``.

    The 8 most recently used pairs are kept.
    """
    return moment_table(base, cons)


# ---------------------------------------------------------------------------
# Capacities
# ---------------------------------------------------------------------------


def capacity_subchannel(base: ChannelModel, cons: Constellation, s: int) -> float:
    """C(W_s) in bits for sub-channel s (1-based)."""
    _value.index(s, cons.L, "sub-channel index", first=1)
    return float(_moments(base, cons)[0][s - 1])


def capacity_pbicm(base: ChannelModel, cons: Constellation) -> float:
    """Achievable sum rate of the parallel scheme: sum_s C(W_s), bits/use."""
    return float(_moments(base, cons)[0].sum())


def capacity_cm(base: ChannelModel, cons: Constellation) -> float:
    """Coded-modulation capacity I(X;Y) with equiprobable symbols, bits/use."""
    return float(_moments(base, cons)[2][0])


# ---------------------------------------------------------------------------
# Gallager E0 evaluators
# ---------------------------------------------------------------------------


@dataclass
class E0Evaluator:
    """E0(rho) for one of the four channel views.

    kind "Subchannel" (requires s): one binary sub-channel.
    kind "WbarCombined": the randomized binary channel (soft combine over
    states).
    kind "WachsmannAveraged": arithmetic mean of sub-channel E0 values
    (historical, an upper bound on the combined value).
    kind "Unconstrained": the base channel with equiprobable symbols.
    Lowercase short aliases (subchannel/wbar/wachsmann/unconstrained) are
    accepted and normalized.
    """

    base: ChannelModel
    cons: Constellation
    kind: str
    s: int | None = None
    _ens: Ensemble = field(init=False, repr=False, compare=False)  # its per-rho integrals are shared by all views

    def __post_init__(self):
        if self.kind not in E0_KINDS + tuple(_E0_ALIASES):  # a tuple test: an unhashable kind is refused like any other
            raise ValueError(f"kind must be one of {E0_KINDS}")
        self.kind = _E0_ALIASES.get(self.kind, self.kind)
        if self.kind == "Subchannel":
            _value.index(self.s, self.cons.L, "sub-channel index", first=1)  # a missing s (None) is refused too
        elif self.s is not None:
            raise ValueError("s is only valid for the Subchannel kind")
        self._ens = get_ensemble(self.base, self.cons)

    def e0(self, rho: float) -> float:
        rho = float(rho)
        if not 0.0 <= rho <= RHO_MAX:
            raise ValueError(f"rho must be in [0, {RHO_MAX:g}]")
        return _E0_VIEWS[self.kind](self._ens, rho, self.s)


def e0_evaluator(base: ChannelModel, cons: Constellation, kind: str, s: int | None = None) -> E0Evaluator:
    return E0Evaluator(base, cons, kind, s)


def e0(ev: E0Evaluator, rho: float) -> float:
    return ev.e0(rho)


# ---------------------------------------------------------------------------
# Error exponents
# ---------------------------------------------------------------------------


def random_coding_exponent(ev: E0Evaluator, rate: float) -> float:
    """max_{rho in [0,1]} E0(rho) - rho*rate, bits; zero for rate >= capacity."""
    return exponent_max(ev.e0, rate, sphere=False)


def sphere_packing_exponent(ev: E0Evaluator, rate: float) -> float:
    """sup_{rho > 0} E0(rho) - rho*rate, bits; +inf below the cap-attaining rate."""
    return exponent_max(ev.e0, rate, sphere=True)


# ``pbicm_exponent`` bound name -> the binary-channel exponent it takes
_BOUNDS = {
    "RandomCoding": random_coding_exponent,
    "random_coding": random_coding_exponent,
    "SpherePacking": sphere_packing_exponent,
    "sphere_packing": sphere_packing_exponent,
}


def critical_rate(ev: E0Evaluator) -> float:
    """Rate below which the random-coding bound departs from sphere packing.

    Computed as dE0/drho at rho = 1 by the second-order one-sided difference
    (3 E0(1) - 4 E0(1 - h) + E0(1 - 2h)) / (2h) with h = 1e-5, whose error
    is h**2 |E0'''| / 3, O(h**2).  No point lies past rho = 1, so none
    walks outputs beyond those the ensemble stores for E0 at rho <= 1.
    """
    h = 1e-5
    return (3 * ev.e0(1.0) - 4 * ev.e0(1.0 - h) + ev.e0(1.0 - 2 * h)) / (2 * h)


def pbicm_exponent(
    base: ChannelModel,
    cons: Constellation,
    rate_total: float,
    bound: str = "RandomCoding",
    normalized: bool = False,
) -> float:
    """Error exponent of the parallel scheme at total rate (bits/channel use).

    Equals the chosen binary-channel exponent at rate_total/L; with
    ``normalized=True`` the value is multiplied by L (exponent per binary
    code symbol rather than per channel use).
    """
    if bound not in tuple(_BOUNDS):  # a tuple test: an unhashable bound is refused like any other
        raise ValueError("bound must be 'RandomCoding' or 'SpherePacking'")
    v = _BOUNDS[bound](e0_evaluator(base, cons, "WbarCombined"), rate_total / cons.L)
    return cons.L * v if normalized else v


# ---------------------------------------------------------------------------
# Dispersion and finite-blocklength rate bounds
# ---------------------------------------------------------------------------


@dataclass
class DispersionReport:
    """Second-order statistics of the sub-channels and the parallel scheme.

    ``v_wbar`` is the dispersion of the randomized binary channel, the flat
    variance over (state, output), computed as ``mean_subchannel_v +
    penalty`` where the penalty is the variance of the sub-channel
    capacities (the price of state randomization).  ``v_pbicm = L**2 * v_wbar`` is the dispersion governing
    the total rate of the parallel scheme.
    """

    L: int
    c_subchannels: list[float]
    v_subchannels: list[float]
    c_wbar: float
    c_pbicm: float
    v_wbar: float
    v_pbicm: float
    mean_subchannel_v: float
    penalty: float

    @property
    def per_subchannel(self) -> list[tuple[float, float]]:
        """(capacity, dispersion) pairs, one per sub-channel."""
        return list(zip(self.c_subchannels, self.v_subchannels))

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


def dispersion_report(base: ChannelModel, cons: Constellation) -> DispersionReport:
    # plain floats: numpy's per-call cost is most of the work on 1 to 6 sub-channels
    c_sub, v_sub = (a.tolist() for a in _moments(base, cons)[:2])
    L = cons.L
    c_wbar = sum(c_sub) / L
    mean_v = sum(v_sub) / L
    penalty = sum((c - c_wbar) ** 2 for c in c_sub) / L
    v_wbar = mean_v + penalty
    return DispersionReport(
        L=L,
        c_subchannels=c_sub,
        v_subchannels=v_sub,
        c_wbar=c_wbar,
        c_pbicm=sum(c_sub),
        v_wbar=v_wbar,
        v_pbicm=L**2 * v_wbar,
        mean_subchannel_v=mean_v,
        penalty=penalty,
    )


def rate_bounds(base: ChannelModel, cons: Constellation, n: int, pe: float) -> tuple[float, float]:
    """Normal-approximation bracket on the best total rate at blocklength n.

    Returns (lower, upper) in bits per channel use for target block error
    probability pe: the achievable side pays Q^{-1}(pe/L) (a union over the
    L parallel codes), the converse side Q^{-1}(pe).
    """
    if _integer("blocklength", n) < 1:
        raise ValueError("blocklength must be >= 1")
    if not 0 < pe < 1:
        raise ValueError("target error probability must be in (0, 1)")
    rep = dispersion_report(base, cons)
    scale = math.sqrt(max(rep.v_pbicm, 0.0) / n)  # a guard: a variance is never negative
    lower = rep.c_pbicm - scale * qinv(pe / cons.L)
    upper = rep.c_pbicm - scale * qinv(pe)
    return lower, upper


def exponent_gaussian_approx(c: float, v: float, rate: float) -> float:
    """Quadratic exponent approximation (c - rate)^2 / (2 v ln 2), bits."""
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"dispersion must be finite and positive, got {v}")
    for name, x in (("capacity", c), ("rate", rate)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    return (c - rate) ** 2 / (2.0 * v * math.log(2.0))


# ---------------------------------------------------------------------------
# Gaussian tail utilities
# ---------------------------------------------------------------------------


def qfunc(x: float) -> float:
    """Standard normal tail probability P(Z > x), as erfc(x / sqrt 2) / 2."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def qinv(eps: float) -> float:
    """Inverse of ``qfunc``: minus the standard normal quantile at eps.

    ``statistics.NormalDist.inv_cdf`` is Wichura's AS241.  Relative residual
    |qfunc(qinv(eps)) - eps| <= 1e-12 * eps over the supported range (0, 1).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("argument must be in (0, 1)")
    return -statistics.NormalDist().inv_cdf(eps)


# ---------------------------------------------------------------------------
# Exponent curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExponentCurve(_value.Value):
    """Tabulated exponent-vs-rate curve, a ``_value.Value``; rates and values in bits."""

    kind: str
    rates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}")
        self._store(rates=np.asarray(self.rates, dtype=float), values=np.asarray(self.values, dtype=float))
        if self.rates.shape != self.values.shape or self.rates.ndim != 1:
            raise ValueError("rates and values must be 1-D and congruent")

    def to_csv(self, path: str | Path) -> None:
        lines = ["rate_bits,value_bits,kind"]
        for r, v in zip(self.rates, self.values):
            lines.append(f"{r:.9g},{v:.9g},{self.kind}")
        Path(path).write_text("\n".join(lines) + "\n")


def exponent_curve(
    base: ChannelModel, cons: Constellation, kind: str, rates: np.ndarray
) -> ExponentCurve:
    """Tabulate one exponent family over a grid of rates (bits).

    Rates are total bits per channel use for the Pbicm*, Unconstrained and
    WachsmannRandomCoding kinds, bits per binary-channel use for
    RandomCoding/SpherePacking.  WachsmannRandomCoding is the random-coding
    exponent of the WachsmannAveraged E0 at R/L.
    """
    rates = np.asarray(rates, dtype=float)
    if kind not in CURVE_KINDS:
        raise ValueError(f"kind must be one of {CURVE_KINDS}")
    if rates.ndim != 1:
        raise ValueError(f"rates must be a 1-D grid, got shape {rates.shape}")
    at = _CURVES[kind](base, cons)
    return ExponentCurve(kind, rates, np.array([at(r) for r in rates]))
