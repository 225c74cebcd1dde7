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


# |lam| from which zeta_kernel sums the asymptotic series instead of the
# closed form: at x = 2|lam| >= 40 the series' smallest term, about
# sqrt(2 pi x) e^{-x}, is below eps of its sum
ZETA_SERIES_FROM = 20.0


def zeta_kernel(lam):
    """Odd kernel zeta(lam) = (1/pi) * integral_0^inf sin(lam t)/(2+t) dt.

    pi zeta(lam) = f(2|lam|) sign(lam) with the auxiliary function
    f(x) = Ci(x) sin x + (pi/2 - Si(x)) cos x; the defining integral only
    converges conditionally.  Below |lam| = ZETA_SERIES_FROM f is this
    closed form through Si/Ci.  From there on pi/2 - Si(x) cancels (a
    relative error of 2e-10 at |lam| = 1e6, 2e-2 at 1e14) and sin(2|lam|)
    overflows past 9e307, so f is the asymptotic series
    f(x) ~ (1/x) sum_k (-1)^k (2k)!/x^{2k}, summed in u = 1/x until a term
    is below eps of the sum.  lam = 0 is rejected: the two one-sided limits
    are +-1/2 and callers must pick a side explicitly.
    """
    arr = np.asarray(lam, dtype=float)
    if np.any(arr == 0.0):
        raise ValueError("zeta_kernel undefined at 0; take one-sided limits")
    a = np.abs(arr).reshape(-1)
    val = np.empty_like(a)
    near = a < ZETA_SERIES_FROM
    x = 2.0 * a[near]
    si, ci = sici(x)
    val[near] = (np.sin(x) * ci + np.cos(x) * (0.5 * math.pi - si)) / math.pi
    val[~near] = _zeta_far(a[~near])
    out = np.sign(arr) * val.reshape(arr.shape)
    if arr.ndim == 0:
        return float(out)
    return out


def _zeta_far(a: np.ndarray) -> np.ndarray:
    """|zeta| for |lam| = a >= ZETA_SERIES_FROM (or NaN) from the asymptotic
    series of f, each cell stopping at its first term below eps of its sum."""
    u = 0.5 / a
    u2 = u * u
    total, term = np.ones_like(a), np.ones_like(a)
    live = np.ones(a.shape, dtype=bool)
    k = 0
    while live.any():
        k += 1
        term = term * (-(2 * k) * (2 * k - 1) * u2)
        live &= np.abs(term) >= _EPS * total
        total[live] += term[live]
    return u * total / math.pi


@dataclass(frozen=True)
class SeriesPolicy:
    """Switch point between the two Legendre series."""

    crossover_x: float = 1.5

    def __post_init__(self):
        if not self.crossover_x > 1.0:
            raise ValueError("crossover_x must exceed 1")


DEFAULT_POLICY = SeriesPolicy()
# Both series stop once max|term| <= SERIES_TOL max(1, max|total|), and
# raise SeriesConvergenceError if that takes more than SERIES_MAX_TERMS terms.
SERIES_MAX_TERMS = 400
SERIES_TOL = 1e-14
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
    return top <= tol * max(1.0, float(_max_abs(total)))


# A tail-series block of at least this many (tau, x) cells orders its
# columns slowest first and retires the settled ones; a smaller one runs
# every cell to the stop.  Measured on 2 cores: the tail series gains from
# about 3000 cells (0.5x at 11232), and scalar-tau calls of 120-400 points
# ran 3-4x slower with the checks.  The origin series always runs every cell
# to the stop: its few columns settle one by one, and retiring them saved
# nothing on the default Mehler-Fock block (960 x 49 cells, 4.5-5 ms either
# way) and 11 of 33 ms on the refined one.
_RETIRE_CELLS = 8192


# The moduli behind the maxima and the retirement test are taken this many
# cells at a time, whole columns each, so no full-size |term| or |total|
# array exists beside the two the series keeps.
_CHUNK_CELLS = 16384


def _column_slices(shape, stop, start=0):
    # consecutive slices of the last axis from start to stop, whole columns of
    # about _CHUNK_CELLS cells each
    step = max(1, _CHUNK_CELLS // max(1, math.prod(shape[:-1])))
    return [slice(j, min(j + step, stop)) for j in range(start, stop, step)]


def _max_abs(a):
    # max |a|, a chunk of columns at a time once a is above _CHUNK_CELLS
    if a.size <= _CHUNK_CELLS:
        return np.abs(a).max()
    return max(np.abs(a[..., s]).max() for s in _column_slices(a.shape, a.shape[-1]))


def _column_maxima(a):
    # max |a| over each column (each cell of a 1-d a), a chunk at a time
    a = np.atleast_2d(a)
    return np.concatenate([np.abs(a[:, s]).max(axis=0) for s in _column_slices(a.shape, a.shape[-1])])


def _summed(step, shape, dtype, max_terms, tol, name, contracting=None):
    """1 + term_1 + term_2 + ... over a block of the given shape, up to the
    first n where _converged holds over the whole sum; step(t, n, k) turns
    the live columns t = term[..., :k] from term n into term n + 1 in place.

    Only term and total are full-size: max|term| is the max of the column
    maxima of |term|, and max|total| is taken the same way, each a few
    columns at a time.  Maxima are exact, so the stop does not move.

    contracting (None: no column retires) maps n to the columns where every
    term ratio after term n + 1 is provably below 1.  The columns come
    slowest first, so the live ones are a prefix, one contiguous block of the
    column-major arrays.  A trailing column retires once each of its cells
    has |term| <= tol and 4|term| below np.spacing of each part of its sum
    (a quarter ulp, not a half: at a power of two the ulp below is half the
    one above).  Every later term of the column is then absorbed into the
    sum and is <= tol, so neither the values nor the stop move, and bound
    still bounds max|total|.
    """
    term = np.ones(shape, dtype, order="F")
    total = np.ones_like(term)
    bound = 1.0
    k = shape[-1]
    for n in range(max_terms):
        t = term[..., :k]
        step(t, n, k)
        total[..., :k] += t
        colmax = None if contracting is None else _column_maxima(t)
        top = _max_abs(t) if colmax is None else colmax.max()
        bound += top
        if _converged(top, bound, n, total, tol):
            return total
        if colmax is not None:
            k = _live_columns(t, colmax, total[..., :k], tol, contracting(n)[:k])
    raise SeriesConvergenceError(f"{name} series did not converge in {max_terms} terms; move crossover")


def _live_columns(term, colmax, total, tol, contracting) -> int:
    # the live prefix left once the settled trailing columns retire.  Only
    # the trailing run of candidates can retire, so |term| is recomputed for
    # those columns alone, right to left a chunk at a time, up to the first
    # chunk that holds an unsettled column.
    k = contracting.size
    if not contracting[-1]:
        return k
    term, total = np.atleast_2d(term), np.atleast_2d(total)
    start = k - _trailing_run(contracting & (colmax <= tol))
    for s in reversed(_column_slices(term.shape, k, start)):
        mag4 = 4.0 * np.abs(term[:, s])
        settled = np.ones(mag4.shape[-1], dtype=bool)
        for part in (total.real, total.imag) if np.iscomplexobj(total) else (total,):
            settled &= np.all(mag4 < np.spacing(np.abs(part[:, s])), axis=0)
        if not settled.all():
            return s.stop - _trailing_run(settled)
    return start


def _trailing_run(flags) -> int:
    # how many of the last flags are True in a row
    return flags.size if flags.all() else int(np.argmin(flags[::-1]))


def _origin_series(tau, x, max_terms, tol):
    # hypergeometric series in (1-x)/2; real for x >= 1, converges for |1-x| < 2
    z = 0.5 * (1.0 - x)

    def step(t, n, k):
        t *= ((n + 0.5) ** 2 + tau * tau) / (n + 1.0) ** 2
        t *= z

    return _summed(step, np.broadcast_shapes(np.shape(tau), x.shape), float, max_terms, tol, "origin")


def _tail_series(tau, x, max_terms, tol):
    # descending series in x^{-2} times m(tau) x^{-1/2 + i tau}, real part taken
    a = 0.25 - 0.5j * tau
    b = 0.75 - 0.5j * tau
    c = 1.0 - 1j * tau
    order = None
    if np.size(tau) * x.size >= _RETIRE_CELLS:
        # the columns slowest first, so the live ones are a prefix; stable, so
        # repeated x keep their order
        order = np.argsort(x, kind="stable")
        x = x[order]
    x2 = x ** -2.0

    def step(t, n, k):
        # in place, in the order of term * A / B * x2 (bit for bit the same)
        t *= (a + n) * (b + n)
        t /= (c + n) * (n + 1.0)
        t *= x2[:k]

    contracting = None
    if order is not None:
        # |tau| <= sqrt(8) (k + 1) gives |(a + k)(b + k)| <= |c + k| (k + 1),
        # so every ratio after term n + 1 is at most x^-2; 16 eps cover its
        # roundoff
        tau_max, below = float(np.max(np.abs(tau))), x2 * (1.0 + 16 * _EPS) < 1.0
        contracting = lambda n: below & ((n + 2) * math.sqrt(8.0) >= tau_max)
    total = _summed(step, np.broadcast_shapes(np.shape(tau), x.shape), complex, max_terms, tol,
                    "tail", contracting)
    m = np.vectorize(m_tau, otypes=[complex])(tau)
    # the head m(tau) x^{-1/2 + i tau} and its product with the sum a chunk of
    # columns at a time, written straight to input order: nothing full-size
    # beside the sum and the output.  The product is not formed in place:
    # numpy rounds a one-element in-place complex product without the fused
    # multiply-add of its vector loop, so a one-point x (or a one-cell chunk)
    # would differ in the last bit from the same x inside a longer array.
    out = np.empty(total.shape)
    for s in _column_slices(total.shape, x.size):
        head = m * np.exp((-0.5 + 1j * tau) * np.log(x[s]))
        out[..., s if order is None else order[s]] = np.real(head * total[..., s])
    return out


def conical_legendre_values(tau, x, policy: SeriesPolicy = DEFAULT_POLICY):
    """Conical Legendre function P_{-1/2 + i tau}(x) on an array of x >= 1.

    Uses the series around x = 1 below policy.crossover_x and the descending
    series above it.  tau may be any nonzero real with |tau| <= M_TAU_MAX (the
    bound of m_tau, which the descending series uses); the value is even in
    tau.  A 1-d array of tau gives one row per tau, evaluated as one (tau, x)
    block with one convergence test per series; a scalar tau keeps the shape
    of x.  x must be >= 1 (NaN raises ValueError; +inf gives the limit 0).

    A tail-series block of at least _RETIRE_CELLS cells retires its settled
    columns: once no later term can change a column's sum, the column stops
    updating (see _summed).  The stopping index and every value are the same
    as with each cell run to the stop, bit for bit; smaller blocks and the
    origin series skip the checks, which would cost them more than they save.
    """
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1 or np.any(taus == 0.0):
        raise ValueError("tau must be a nonzero scalar or 1-d array; tau = 0 is not supported")
    if not np.all(np.abs(taus) <= M_TAU_MAX):
        raise ValueError(f"|tau| above {M_TAU_MAX} is not supported, "
                         "where Gamma(i tau) underflows")
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs >= 1.0):                      # NaN too; +inf gives the limit 0
        raise ValueError("x must be >= 1")
    # a scalar tau enters the series as given (scalar coefficient arithmetic)
    t = tau if taus.ndim == 0 else taus[:, None]
    near = xs < policy.crossover_x
    # both series run before the output exists, so the tail's term and total
    # alone set the peak
    parts = [(cells, series(t, xs[cells], SERIES_MAX_TERMS, SERIES_TOL))
             for cells, series in ((near, _origin_series), (~near, _tail_series)) if np.any(cells)]
    out = np.empty(taus.shape + xs.shape)
    for cells, values in parts:
        out[..., cells] = values
    if scalar:
        return float(out[0]) if taus.ndim == 0 else out[:, 0]
    return out
