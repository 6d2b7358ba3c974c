"""Reference values for BPSK, QPSK and QAM16 on AWGN and Rayleigh, and PSK8 on AWGN, by adaptive quadrature.

Test-only and independent of the library's rules: every integral here is a
``scipy.integrate.quad`` or ``quad_vec`` call (the adaptive Gauss-Kronrod
rule of ``quad`` for a vector of integrands), and nothing from pbicm is
imported.

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

Gray QAM16 is two Gray PAM4 axes, levels (-3, -1, 3, 1) / sqrt(10) for axis
labels 0..3 (bits MSB-first), with real noise of variance n0/2 each; bits 1-2
ride the real axis and bits 3-4 the imaginary one.  In units of the noise
standard deviation the levels sit at s * level with s = |h| / sqrt(5 n0).  An
inner ``quad_vec`` over the standardized output computes, at one s, every
per-axis quantity as an expectation given the label sent; the E0 integrals
int F(t) dt become E[F(t) / pbar(t)], a ratio in [0, 1].  Mirroring the output
maps each label to the label of the opposite level without changing any
integrand, so the expectation over labels runs over the two negative levels
only.  The outer ``quad_vec`` over u = ln|h|^2 averages the per-axis values,
with the full-input 2**-E0 squared inside it (the two axes share h).

Gray PSK8 does not split into axes, so ``psk8_reference`` integrates over
the plane in polar coordinates around the point sent: an adaptive
``quad_vec`` over the radius of the noise and, inside it, a periodic
trapezoid over its angle (exponentially convergent for a smooth periodic
integrand; Trefethen & Weideman, SIAM Review 2014), whose point count
doubles until two counts agree.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad, quad_vec

LN2 = math.log(2.0)
LN4 = math.log(4.0)
RHOS = (0.5, 1.0)
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


# Gray PAM4 levels of axis labels 0..3, before the 1/sqrt(10) of unit QAM16 energy
_PAM4 = (-3.0, -1.0, 3.0, 1.0)


def _lse2(a: float, b: float) -> float:
    """ln(e^a + e^b) without overflow or underflow."""
    return (a if a > b else b) + math.log1p(math.exp(-abs(a - b)))


def _pam4_given_label(t: float, k: int, s: float) -> list:
    """Integrands at standardized output t given axis label k sent.

    Order: i of the label, then (i, i^2) of bit 1 and of bit 2, then for each
    rho in RHOS the E0 ratios of bit 1, bit 2 and the label.
    """
    lp = [-0.5 * (t - s * level) ** 2 for level in _PAM4]  # log densities up to a common constant
    # log W(t | bit): bit 1 (MSB) splits the labels {0, 1} | {2, 3}, bit 2 splits {0, 2} | {1, 3}
    lw = (
        (_lse2(lp[0], lp[1]) - LN2, _lse2(lp[2], lp[3]) - LN2),
        (_lse2(lp[0], lp[2]) - LN2, _lse2(lp[1], lp[3]) - LN2),
    )
    lbar = _lse2(*lw[0]) - LN2
    out = [(lp[k] - lbar) / LN2]
    for p in (0, 1):
        i = (lw[p][(k >> (1 - p)) & 1] - lbar) / LN2
        out += [i, i * i]
    for rho in RHOS:
        q = 1.0 / (1.0 + rho)
        for p in (0, 1):
            out.append(math.exp((_lse2(q * lw[p][0], q * lw[p][1]) - LN2) / q - lbar))
        out.append(math.exp((_lse2(_lse2(q * lp[0], q * lp[1]), _lse2(q * lp[2], q * lp[3])) - LN4) / q - lbar))
    return out


def _pam4(s: float) -> np.ndarray:
    """Per-axis expectations of ``_pam4_given_label`` over the label and the noise, at level scale s."""

    def f(z):
        g = math.exp(-0.5 * z * z) / _SQRT_2PI
        a, b = _pam4_given_label(s * _PAM4[0] + z, 0, s), _pam4_given_label(s * _PAM4[1] + z, 1, s)
        return np.array([0.5 * g * (x + y) for x, y in zip(a, b)])

    # the Gaussian weight is below 1e-31 beyond |z| = 12, and every integrand grows at most like z^2 there
    return quad_vec(f, -12.0, 12.0, points=(-4.0, 0.0, 4.0), epsabs=1e-10, epsrel=1e-8, norm="max")[0]


def _qam16(n0: float, fading: bool) -> dict:
    def axis_values(u):
        v = _pam4(math.sqrt(math.exp(u) / (5.0 * n0)))
        # the full-input E0 ratio of the two axes multiplies inside the fading expectation
        return np.concatenate([v, [v[7] ** 2, v[10] ** 2]])

    if fading:
        knee = min(max(math.log(5.0 * n0), -59.0), 4.0)
        g = lambda u: math.exp(u - math.exp(u)) * axis_values(u)
        e = sum(
            quad_vec(g, lo, hi, epsabs=1e-8, epsrel=1e-8, norm="max")[0] for lo, hi in ((-60.0, knee), (knee, 5.0))
        )
    else:
        e = axis_values(0.0)
    out = {
        "c_cm": 2.0 * e[0],
        "c_pbicm": 2.0 * (e[1] + e[3]),
        "m2_sub": [e[2], e[4], e[2], e[4]],
        "e0_wbar": {},
        "e0_unconstrained": {},
    }
    for n, rho in enumerate(RHOS):
        out["e0_wbar"][rho] = -math.log2(0.5 * (e[5 + 3 * n] + e[6 + 3 * n]))
        out["e0_unconstrained"][rho] = -math.log2(e[11 + n])
    return out


# Gray PSK8: the label k ^ (k >> 1) sits at ring position k, bits MSB-first
_PSK8_POINTS = np.empty(8, dtype=complex)
_PSK8_POINTS[[k ^ (k >> 1) for k in range(8)]] = np.exp(2j * np.pi * np.arange(8) / 8)
_PSK8_BITS = (np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1  # (label, bit)
# _PSK8_SETS[s, b]: the labels whose bit s is b
_PSK8_SETS = np.array([[np.flatnonzero(_PSK8_BITS[:, s] == b) for b in (0, 1)] for s in range(3)])
PSK8_RHOS = (0.5, 1.0, 10.0)


def _lse(a: np.ndarray) -> np.ndarray:
    """ln(sum(e^a)) over the last axis without overflow or underflow."""
    top = a.max(axis=-1)
    return top + np.log(np.exp(a - top[..., None]).sum(axis=-1))


def _psk8_ring(r: float, theta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Integrands at the outputs a_j + r e^(i theta) given label j sent, averaged over j and theta.

    ``a`` holds the points in units of the per-coordinate noise deviation.
    Order: i of the label, the sum of i over the three bits, then for each
    rho in PSK8_RHOS the full-input E0 ratio and the mean over bits of the
    bit E0 ratios.  Each carries the radial weight r e^(-r^2 / 2) of the
    noise; the E0 ratios are the integrand over the density of the label
    sent, e^(-r^2 / 2) up to the constant every log density shares.
    """
    u = a[:, None] + r * np.exp(1j * theta)  # (j, angle)
    lk = -0.5 * np.abs(u[..., None] - a) ** 2  # (j, angle, k): log densities up to a common constant
    lj = -0.5 * r * r  # the label sent
    log_w = math.log(r) + lj
    lbar = _lse(lk) - math.log(8.0)
    lw = _lse(lk[..., _PSK8_SETS]) - LN4  # (j, angle, bit, b): log W_bit(y | b)
    lw_sent = np.take_along_axis(lw, np.broadcast_to(_PSK8_BITS[:, None, :, None], (*lw.shape[:3], 1)), -1)[..., 0]
    out = [math.exp(log_w) * (lj - lbar) / LN2, math.exp(log_w) * ((lw_sent - lbar[..., None]) / LN2).sum(axis=-1)]
    for rho in PSK8_RHOS:
        q = 1.0 / (1.0 + rho)
        out.append(np.exp((1.0 + rho) * (_lse(q * lk) - math.log(8.0)) - lj + log_w))
        out.append(np.exp((1.0 + rho) * (_lse(q * lw) - LN2) - lj + log_w).mean(axis=-1))
    return np.array([v.mean() for v in out])


def _psk8_angles(r: float, a: np.ndarray) -> np.ndarray:
    """Periodic trapezoid of ``_psk8_ring`` in the angle: the point count doubles until two counts agree to 1e-12."""
    n = 128
    mean = _psk8_ring(r, 2.0 * np.pi * np.arange(n) / n, a)
    while True:
        finer = 0.5 * (mean + _psk8_ring(r, 2.0 * np.pi * (np.arange(n) + 0.5) / n, a))  # the n new midpoints
        if np.max(np.abs(finer - mean)) <= 1e-12:
            return finer
        if n >= 1 << 16:
            raise ArithmeticError(f"angle trapezoid at r = {r} does not settle")
        mean, n = finer, 2 * n


def psk8_reference(n0: float) -> dict:
    """Gray PSK8 on AWGN: ``c_cm``, ``c_pbicm`` and ``e0_wbar``/``e0_unconstrained``, dicts from rho in PSK8_RHOS
    to E0, bits.

    Polar coordinates around the label sent: the noise is r e^(i theta) in
    units of its per-coordinate deviation sigma = sqrt(n0 / 2), with density
    r e^(-r^2 / 2) / (2 pi).  An adaptive ``quad_vec`` runs over the radius
    and a periodic trapezoid over the angle, and the values are averaged
    over the 8 labels.  The radius reaches 2 / sigma + 12, past the opposite
    point: at large rho the E0 integrand sits between the points, not on the
    label sent.
    """
    sigma = math.sqrt(n0 / 2.0)
    a = _PSK8_POINTS / sigma
    # the other points sit at these distances from any point; the integrands have bumps there
    bumps = tuple(2.0 * math.sin(math.pi * k / 8) / sigma for k in range(1, 5))
    e = quad_vec(lambda r: _psk8_angles(r, a), 0.0, 2.0 / sigma + 12.0, points=bumps,
                 epsabs=1e-10, epsrel=1e-9, norm="max")[0]
    out = {"c_cm": e[0], "c_pbicm": e[1], "e0_wbar": {}, "e0_unconstrained": {}}
    for n, rho in enumerate(PSK8_RHOS):
        out["e0_unconstrained"][rho] = -math.log2(e[2 + 2 * n])
        out["e0_wbar"][rho] = -math.log2(e[3 + 2 * n])
    return out


def e0(cons: str, n0: float, fading: bool, kind: str, rho: float) -> float:
    """E0(rho) in bits of "BPSK" or "QPSK", at any rho: kind "WbarCombined" (one bit's binary channel) or
    "Unconstrained" (the full input)."""
    bits, amp2 = _BITS_AMP2[cons]
    power = bits if kind == "Unconstrained" else 1
    return -math.log2(_expect(lambda mu: _bpsk("g", mu, rho) ** power, n0, amp2, fading))


_BITS_AMP2 = {"BPSK": (1, 1.0), "QPSK": (2, 0.5)}  # bits per symbol, squared amplitude per bit


def reference(cons: str, n0: float, fading: bool) -> dict:
    """Capacities, sub-channel second moments and E0 at rho in RHOS for "BPSK", "QPSK" or "QAM16".

    Keys: ``c_cm``, ``c_pbicm``, ``m2_sub`` (one value per bit), and
    ``e0_wbar``/``e0_unconstrained``, dicts from rho to E0, bits.
    """
    if cons == "QAM16":
        return _qam16(n0, fading)
    if cons not in _BITS_AMP2:
        raise ValueError("the oracle covers BPSK, QPSK and QAM16")
    bits, amp2 = _BITS_AMP2[cons]
    c = _expect(lambda mu: _bpsk("c", mu, 0.0), n0, amp2, fading)
    out = {
        "c_cm": bits * c,
        "c_pbicm": bits * c,
        "m2_sub": [_expect(lambda mu: _bpsk("m2", mu, 0.0), n0, amp2, fading)] * bits,
        "e0_wbar": {},
        "e0_unconstrained": {},
    }
    for rho in RHOS:
        out["e0_wbar"][rho] = e0(cons, n0, fading, "WbarCombined", rho)
        out["e0_unconstrained"][rho] = e0(cons, n0, fading, "Unconstrained", rho)
    return out
