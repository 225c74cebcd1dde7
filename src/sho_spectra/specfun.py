"""Special functions used throughout the workbench.

Complex gamma (scipy's, behind a pole guard), sine/cosine integrals, the odd
kernel zeta built from them in closed form, the conical Legendre function
evaluated by two complementary power series, and the normalization factor
m(tau) entering the large-argument asymptotics of the Legendre function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, sici


class GammaPoleError(ValueError):
    """Requested gamma value too close to a pole (nonpositive integer)."""


class SeriesConvergenceError(RuntimeError):
    """A power series failed to reach the requested tolerance."""


_POLE_GUARD = 1e-12
M_TAU_MAX = 450.0


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument, poles excluded.

    Raises GammaPoleError when z is within 1e-12 of a nonpositive integer.
    """
    z = complex(z)
    if z.real < 0.5 and abs(z.imag) < _POLE_GUARD and abs(z.real - round(z.real)) < _POLE_GUARD:
        raise GammaPoleError(f"gamma pole proximity at z={z}")
    return complex(gamma(z))


def sin_cos_integrals(x: float):
    """Return (Si(x), Ci(x)) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("sin_cos_integrals requires x > 0")
    si, ci = sici(x)
    if x.ndim == 0:
        return float(si), float(ci)
    return si, ci


def zeta_kernel(lam):
    """Odd kernel zeta(lam) = (1/pi) * integral_0^inf sin(lam t)/(2+t) dt.

    Evaluated in closed form through Si/Ci; the defining integral only
    converges conditionally.  lam = 0 is rejected: the two one-sided limits
    are +-1/2 and callers must pick a side explicitly.
    """
    arr = np.asarray(lam, dtype=float)
    if np.any(arr == 0.0):
        raise ValueError("zeta_kernel undefined at 0; take one-sided limits")
    a = np.abs(arr)
    si, ci = sici(2.0 * a)
    val = (np.sin(2.0 * a) * ci + np.cos(2.0 * a) * (0.5 * math.pi - si)) / math.pi
    out = np.sign(arr) * val
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SeriesPolicy:
    """Switch point and truncation control for the two Legendre series."""

    crossover_x: float = 1.5
    max_terms: int = 400
    tol: float = 1e-14

    def __post_init__(self):
        if not self.crossover_x > 1.0:
            raise ValueError("crossover_x must exceed 1")
        if not 0.0 < self.tol <= 1e-6:
            raise ValueError("tol must lie in (0, 1e-6]")
        if self.max_terms < 8:
            raise ValueError("max_terms too small")


DEFAULT_POLICY = SeriesPolicy()
_EPS = float(np.finfo(float).eps)


def m_tau(tau: float) -> complex:
    """Normalization m(tau) = Gamma(i tau) 2^{1/2+i tau} / (sqrt(pi) Gamma(1/2+i tau)).

    |tau| > M_TAU_MAX raises ValueError: Gamma(i tau) falls into subnormals
    there.  Against mpmath the relative error is 3.5e-13 at tau = 450, 1.5e-9
    at 460 and 1 at 474, where the value is 0; by 475 Gamma(1/2 + i tau) is 0
    too and the division fails.
    """
    if not abs(float(tau)) <= M_TAU_MAX:
        raise ValueError(f"|tau| = {abs(float(tau))!r} is above {M_TAU_MAX}, "
                         "where Gamma(i tau) underflows")
    it = 1j * float(tau)
    return gamma_complex(it) * 2.0 ** (0.5 + it) / (math.sqrt(math.pi) * gamma_complex(0.5 + it))


def _converged(top, bound, n, total, tol) -> bool:
    """The stopping test max|term| <= tol max(1, max|total|) after n + 1 terms.

    bound = 1 + sum of the max|term| so far; times (1 + 4 (n + 1) eps) it is
    above every computed max|total| (the roundoff of the n + 1 additions and
    of the moduli included), so while top exceeds tol times it the test is
    false and the max|total| reduction is skipped: same stop, same values.
    """
    if top > tol * bound * (1.0 + 4.0 * (n + 1) * _EPS):
        return False
    return top <= tol * max(1.0, float(np.abs(total).max()))


def _origin_series(tau, x, max_terms, tol):
    # hypergeometric series in (1-x)/2; real for x >= 1, converges for |1-x| < 2
    z = 0.5 * (1.0 - x)
    term = np.ones(np.broadcast_shapes(np.shape(tau), x.shape))
    total = np.ones_like(term)
    bound = 1.0
    for n in range(max_terms):
        cn = ((n + 0.5) ** 2 + tau * tau) / (n + 1.0) ** 2
        term = term * cn * z
        total = total + term
        top = np.abs(term).max()
        bound += top
        if _converged(top, bound, n, total, tol):
            return total
    raise SeriesConvergenceError("origin series did not converge; raise max_terms or move crossover")


def _tail_series(tau, x, max_terms, tol):
    # descending series in x^{-2} times m(tau) x^{-1/2 + i tau}, real part taken
    a = 0.25 - 0.5j * tau
    b = 0.75 - 0.5j * tau
    c = 1.0 - 1j * tau
    x2 = x ** -2.0
    term = np.ones(np.broadcast_shapes(np.shape(tau), x.shape), dtype=complex)
    total = np.ones_like(term)
    bound = 1.0
    for n in range(max_terms):
        # in place, in the order of term * A / B * x2 (bit for bit the same)
        term *= (a + n) * (b + n)
        term /= (c + n) * (n + 1.0)
        term *= x2
        total += term
        top = np.abs(term).max()
        bound += top
        if _converged(top, bound, n, total, tol):
            head = np.vectorize(m_tau, otypes=[complex])(tau) * np.exp((-0.5 + 1j * tau) * np.log(x))
            return np.real(head * total)
    raise SeriesConvergenceError("tail series did not converge; raise max_terms or move crossover")


def conical_legendre_values(tau, x, policy: SeriesPolicy = DEFAULT_POLICY):
    """Conical Legendre function P_{-1/2 + i tau}(x) on an array of x >= 1.

    Uses the series around x = 1 below policy.crossover_x and the descending
    series above it.  tau may be any nonzero real with |tau| <= M_TAU_MAX (the
    bound of m_tau, which the descending series uses); the value is even in
    tau.  A 1-d array of tau gives one row per tau, evaluated as one (tau, x)
    block with one convergence test per series; a scalar tau keeps the shape
    of x.
    """
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1 or np.any(taus == 0.0):
        raise ValueError("tau must be a nonzero scalar or 1-d array; tau = 0 is not supported")
    if not np.all(np.abs(taus) <= M_TAU_MAX):
        raise ValueError(f"|tau| above {M_TAU_MAX} is not supported, "
                         "where Gamma(i tau) underflows")
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 1.0):
        raise ValueError("x must be >= 1")
    # a scalar tau enters the series as given (scalar coefficient arithmetic)
    t = tau if taus.ndim == 0 else taus[:, None]
    out = np.empty(taus.shape + xs.shape)
    near = xs < policy.crossover_x
    if np.any(near):
        out[..., near] = _origin_series(t, xs[near], policy.max_terms, policy.tol)
    if np.any(~near):
        out[..., ~near] = _tail_series(t, xs[~near], policy.max_terms, policy.tol)
    if scalar:
        return float(out[0]) if taus.ndim == 0 else out[:, 0]
    return out
