"""Reference values for BPSK and QPSK on AWGN and Rayleigh, by adaptive quadrature.

Test-only and independent of the library's rules: every integral here is a
``scipy.integrate.quad`` call, and nothing from pbicm is imported.

BPSK with amplitude a over complex noise of total variance n0 is a binary
channel on the real output; given the bit sent, its LLR l = 4 a y / n0 is
N(mu, 2 mu) with mu = 4 a^2 / n0, and

    i = 1 - log2(1 + e^-l)                                (information density)
    2**-E0(rho) = 2 E[((1 + e^(-l / (1 + rho))) / 2)^(1 + rho); l > 0],

the last by the mirror symmetry of the two inputs (the half l < 0 is the
other input's l > 0), which keeps the integrand bounded.

The inner quad runs over the standardized real output z, l = mu + sqrt(2 mu) z.
Rayleigh fading with receiver CSI scales a by |h|; the outer quad runs over
u = ln|h|^2 on [-60, 5] with the density e^(u - e^u) of |h|^2 ~ Exp(1).

Gray QPSK carries one bit on each axis, so each bit sub-channel is BPSK with
amplitude 1/sqrt(2) under the same fading.  Full-input quantities take the
sum or product of the two independent bits inside the fading expectation:
c_cm = E_h[2 c], and 2**-E0(rho) = E_h[g^2] with g the BPSK value of 2**-E0.
"""
from __future__ import annotations

import math
from functools import lru_cache

from scipy.integrate import quad

LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INNER = dict(epsabs=1e-11, epsrel=1e-9, limit=200)
_OUTER = dict(epsabs=1e-9, epsrel=1e-9, limit=400)


def _log1pexp(x: float) -> float:
    """ln(1 + e^x) without overflow."""
    return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))


def _given_bit(f, mu: float, positive: bool = False) -> float:
    """E[f(l)] (E[f(l); l > 0] if ``positive``) for the LLR l ~ N(mu, 2 mu) of the bit sent."""
    s = math.sqrt(2.0 * mu)
    # the Gaussian weight of z is 0.0 in double precision beyond |z| = 40
    lo = max(-mu / s, -40.0) if positive else -40.0
    breaks = [b for b in (-8.0, 0.0, 8.0) if b > lo]  # the bulk of the weight, wherever the window starts
    g = lambda z: math.exp(-0.5 * z * z) / _SQRT_2PI * f(mu + s * z)
    return quad(g, lo, 40.0, points=breaks, **_INNER)[0]


def _info(l: float) -> float:
    return 1.0 - _log1pexp(-l) / LN2


@lru_cache(maxsize=1 << 16)  # the outer quads of one point revisit the same fading nodes
def _bpsk(what: str, mu: float, rho: float) -> float:
    """One BPSK quantity at LLR mean mu: capacity "c", second moment "m2" or "g" = 2**-E0(rho)."""
    if what == "c":
        return _given_bit(_info, mu)
    if what == "m2":
        return _given_bit(lambda l: _info(l) ** 2, mu)
    q = 1.0 / (1.0 + rho)
    return 2.0 * _given_bit(lambda l: (0.5 + 0.5 * math.exp(-q * l)) ** (1.0 + rho), mu, positive=True)


def _expect(fn, n0: float, amp2: float, fading: bool) -> float:
    """fn(mu) at mu = 4 amp2 |h|^2 / n0, averaged over |h|^2 ~ Exp(1) when fading."""
    if not fading:
        return fn(4.0 * amp2 / n0)
    # the split at the SNR-dependent knee keeps quad from stepping over it
    knee = min(max(math.log(n0 / (4.0 * amp2)), -59.0), 4.0)
    g = lambda u: math.exp(u - math.exp(u)) * fn(4.0 * amp2 * math.exp(u) / n0)
    return sum(quad(g, lo, hi, **_OUTER)[0] for lo, hi in ((-60.0, knee), (knee, 5.0)))


def reference(cons: str, n0: float, fading: bool) -> dict:
    """Capacities, sub-channel second moments and E0 at rho in (0.5, 1) for "BPSK" or "QPSK".

    Keys: ``c_cm``, ``c_pbicm``, ``m2_sub`` (one value, shared by every
    bit), and ``e0_wbar``/``e0_unconstrained``, dicts from rho to E0, bits.
    """
    if cons not in ("BPSK", "QPSK"):
        raise ValueError("the oracle covers BPSK and QPSK")
    bits, amp2 = (1, 1.0) if cons == "BPSK" else (2, 0.5)
    c = _expect(lambda mu: _bpsk("c", mu, 0.0), n0, amp2, fading)
    out = {
        "c_cm": bits * c,
        "c_pbicm": bits * c,
        "m2_sub": _expect(lambda mu: _bpsk("m2", mu, 0.0), n0, amp2, fading),
        "e0_wbar": {},
        "e0_unconstrained": {},
    }
    for rho in (0.5, 1.0):
        g = lambda mu, rho=rho: _bpsk("g", mu, rho)
        out["e0_wbar"][rho] = -math.log2(_expect(g, n0, amp2, fading))
        out["e0_unconstrained"][rho] = -math.log2(_expect(lambda mu: g(mu) ** bits, n0, amp2, fading))
    return out
