"""The rho search of the error exponents.

An exponent is max over rho of f(rho) = E0(rho) - rho*R.  E0 is concave in
rho, so f is too, and one search serves random coding and sphere packing:

* Boundary probes.  f(b) >= f(b - DELTA) puts the maximizer in
  [b - DELTA, b], and f(a + DELTA) <= f(a) puts it in [a, a + DELTA]; the
  end value is then returned.  Below the critical rate this is the
  straight-line segment E0(1) - R of the random-coding exponent (Gallager,
  Information Theory and Reliable Communication, 1968).  By concavity the
  error is at most |E0''| * DELTA**2 / 2.  The probe points do not depend
  on the rate, so a memoized E0 computes them once for a whole rate grid.
* Brent's method otherwise: parabolic steps with a golden-section fallback
  (Brent, Algorithms for Minimization without Derivatives, 1973) on
  [a + DELTA, b - DELTA], to about XTOL in rho.  It starts from the
  maximizer of the cubic through the probed end values and slopes, with
  the two inner probes as its earlier points.  At an interior maximum the
  value error is about |E0''| * XTOL**2.  It also stops once the chords
  from the best point to the bracket ends bound any further gain by
  FTOL * max(1, |f|), the rounding of f: on a near-flat f, where
  |E0''| * XTOL**2 is below that rounding, the parabolic steps would only
  fit noise.
"""
from __future__ import annotations

import functools
import math
import sys

RHO_MAX = 100.0  # sphere-packing search cap; maximizer at the cap => +inf
DELTA = 1e-6  # boundary probe offset in rho
XTOL = 1e-7  # Brent's absolute tolerance in rho
FTOL = 1e-14  # relative rounding of f: a smaller possible gain stops the search
_GOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)


def _brent_max(f, a: float, b: float, x: float) -> float:
    """Maximum of a concave f on [a, b] by Brent's method, started at x.

    The ends a and b are the two earlier points of the first parabola.
    """
    fa, fb = f(a), f(b)
    (x, fx), (w, fw), (v, fv) = sorted(((x, f(x)), (a, fa), (b, fb)), key=lambda p: -p[1])
    d = e = b - a
    while True:
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + XTOL
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return fx
        if a < x < b:
            # a concave f lies below each chord through x extended past x, so
            # no point of [a, b] exceeds fx by more than this
            gain = max((fx - fb) * (x - a) / (b - x), (fx - fa) * (b - x) / (x - a))
            if gain <= FTOL * max(1.0, abs(fx)):
                return fx
        parabolic = False
        if abs(e) > tol:
            # vertex of the parabola through (v, fv), (w, fw), (x, fx) at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            e_prev, e = e, d
            parabolic = abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b - x) if x < m else (a - x)
            d = _GOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _concave_max(f, a: float, b: float) -> tuple[float, bool]:
    """Maximum of a concave f on [a, b], and whether it lies within DELTA of b."""
    fb, fb_in = f(b), f(b - DELTA)
    if fb >= fb_in:
        return fb, True
    fa, fa_in = f(a), f(a + DELTA)
    if fa_in <= fa:
        return fa, False
    # stationary point of the cubic with these end values and slopes, t in (0, 1)
    s0, s1 = (fa_in - fa) * (b - a) / DELTA, (fb - fb_in) * (b - a) / DELTA
    c = 3.0 * (fb - fa) - 2.0 * s0 - s1
    d = 2.0 * (fa - fb) + s0 + s1
    root = math.sqrt(max(c * c - 3.0 * d * s0, 0.0))
    t = s0 / (root - c) if root > c else 0.5
    return _brent_max(f, a + DELTA, b - DELTA, a + (b - a) * min(max(t, 0.01), 0.99)), False


def exponent_max(e0_fn, rate: float, sphere: bool) -> float:
    """max over rho of E0(rho) - rho*rate, clamped at 0.

    Random coding searches rho in [0, 1].  Sphere packing returns +inf when
    the objective still increases at RHO_MAX.  Otherwise, when the maximizer
    lies below rho = 1, it returns the random-coding value itself, and when
    it does not, the larger of the rho = 1 value and a search of
    [1, RHO_MAX]; either way it is never below the random-coding value.
    The error is at most |E0''| * DELTA**2 / 2 at a boundary maximum and
    about |E0''| * XTOL**2, or FTOL * max(1, |f|), at an interior one.
    A rate that is not finite and nonnegative raises ``ValueError``.
    """
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
    obj = functools.cache(lambda rho: e0_fn(rho) - rho * rate)
    if sphere and obj(RHO_MAX) >= obj(RHO_MAX - DELTA):
        return math.inf
    v, at_one = _concave_max(obj, 0.0, 1.0)
    if sphere and at_one:
        v = max(v, _concave_max(obj, 1.0, RHO_MAX)[0])
    return max(0.0, v)
