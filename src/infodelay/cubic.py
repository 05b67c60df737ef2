"""Roots of monic real cubics: one real root by Newton, then deflation.

Following Kahan ("To Solve a Real Cubic Equation", 1986), one real root
is found by Newton's method from a starting point beside the inflection
point, chosen so that the iterates move monotonically towards the root
and stop as soon as they no longer do. The cubic is then deflated by
that root and the remaining quadratic is solved in the form that never
subtracts nearly equal numbers. Nothing here forms the depressed
cubic, whose coefficients cancel when two roots are close, so every
root keeps a residual at the rounding level and exact multiple roots
(the triple root of (z - 2)^3, the double root of (z - 1)^2 (z - 4))
come back exactly. Two roots that agree to about 1e-7 relative are at
the limit of double precision: the rounding of the deflated
discriminant decides whether they come back as a real or a conjugate
pair, but they always come back as a pair.

``cubic_roots_array`` solves N cubics at once: coefficient arrays of
shape (N,) give an (N, 3) root array, and each cubic's Newton iterates
stop on their own while the others go on. ``cubic_roots`` is its
one-cubic case, and ``real_positive_mask`` picks the real positive
roots out of a root array.
"""
from __future__ import annotations

import numpy as np

__all__ = ["cubic_roots", "cubic_roots_array", "real_positive_mask"]

# Kahan's widening factor for the start beside the inflection point
_START_FACTOR = 1.324718
# shortens each Newton step by about 1 ulp so the iterates cannot overshoot
_STEP_SHRINK = 1.000000000000001
# a monotone Newton sequence in floats ends long before this; it only
# bounds the loop should a non-finite coefficient stop it from ending
_MAX_NEWTON = 200
# a root counts as real when |imag| <= _REL_IMAG * |root|
_REL_IMAG = 1e-9


def _eval(x, m, n, h):
    """Cubic value and slope at x, plus the deflated quadratic's b and c.

    Horner's scheme gives z^3 + m z^2 + n z + h = (z - x)(z^2 + b z + c)
    + value, with b = x + m and c = b x + n.
    """
    b = x + m
    c = b * x + n
    return c * x + h, (x + b) * x + c, b, c


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Both roots of each z^2 + b z + c, free of cancellation, as (N, 2).

    Runs under the caller's errstate: c / r is only kept where r != 0.
    """
    half = -0.5 * b
    disc = half * half - c
    pair = disc < 0.0
    root = np.sqrt(np.abs(disc))
    r = half + np.copysign(root, half)
    flat = r == 0.0
    out = np.empty(b.shape + (2,), dtype=complex)
    out.real[:, 0] = np.where(pair, half, np.where(flat, c, c / r))
    out.real[:, 1] = np.where(pair, half, np.where(flat, -c, r))
    out.imag[:, 0] = np.where(pair, -root, 0.0)
    out.imag[:, 1] = np.where(pair, root, 0.0)
    return out


def cubic_roots_array(m, n, h) -> np.ndarray:
    """All three roots of z**3 + m*z**2 + n*z + h for each coefficient set.

    m, n and h broadcast to one axis of N cubics; the result has shape
    (N, 3). Each row is ordered by ascending real part, ties by
    imaginary part. Real roots have imaginary part exactly zero; a
    complex pair is exactly conjugate.
    """
    m, n, h = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float))
                                    for a in (m, n, h)))
    with np.errstate(all="ignore"):
        # h = 0 starts on the root z = 0, where the first value is 0 and
        # Newton never moves
        x = np.where(h == 0.0, 0.0, -m / 3.0)
        value, slope, _, _ = _eval(x, m, n, h)
        sign = np.where(value != 0.0, np.copysign(1.0, value), 0.0)
        reach = np.abs(value) ** (1.0 / 3.0)
        reach = np.where(slope < 0.0,
                         _START_FACTOR * np.maximum(reach, np.sqrt(-slope)), reach)
        nxt = x - sign * reach
        newton = nxt != x
        moving = newton.copy()
        for _ in range(_MAX_NEWTON):
            if not moving.any():
                break
            np.copyto(x, nxt, where=moving)
            value, slope, _, _ = _eval(x, m, n, h)
            nxt = x - value / slope / _STEP_SHRINK
            np.copyto(nxt, x, where=slope == 0.0)
            moving &= ~(sign * nxt <= sign * x)
        # each x is the last point evaluated, so its b and c are the
        # deflated quadratic's; for a large root, deflate through the
        # constant term instead
        _, _, b, c = _eval(x, m, n, h)
        big = newton & (np.abs(x) * x * x > np.abs(h))
        c = np.where(big, -h / x, c)
        b = np.where(big, (c - n) / x, b)
        roots = np.empty(x.shape + (3,), dtype=complex)
        roots[:, 0] = x
        roots[:, 1:] = _quadratic_roots(b, c)
    return np.sort(roots, axis=1)


def cubic_roots(m: float, n: float, h: float) -> list[complex]:
    """All three roots of z**3 + m*z**2 + n*z + h.

    The one-cubic case of ``cubic_roots_array``, as a list.
    """
    return [complex(z) for z in cubic_roots_array(m, n, h)[0]]


def real_positive_mask(roots: np.ndarray) -> np.ndarray:
    """Which entries of a root array are real and positive.

    A root is accepted when its imaginary part is below ``_REL_IMAG``
    relative to its modulus (guards against spurious complex pairs that
    merely graze the real axis) and its real part is positive. No
    absolute floor: the roots scale with the coefficients' units.
    """
    return (np.abs(roots.imag) <= _REL_IMAG * np.abs(roots)) & (roots.real > 0.0)

