import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sho_spectra import acceptance, mehler, specfun
from sho_spectra.specfun import (
    DEFAULT_POLICY,
    GammaPoleError,
    SeriesConvergenceError,
    SeriesPolicy,
    conical_legendre_values,
    gamma_complex,
    m_tau,
    sin_cos_integrals,
    zeta_kernel,
)

# ---------------------------------------------------------------------------
# independent oracles

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330)


def gamma_oracle(z, lift=40):
    """Brute-force gamma: recursion lift to large argument + Stirling series.

    With |z + lift| >= 20 the Bernoulli tail is below 1e-16 relative; the
    recursion logs are combined with compensated summation.
    """
    z = complex(z)
    logs = [np.log(z + k) for k in range(lift)]
    acc = complex(math.fsum(v.real for v in logs), math.fsum(v.imag for v in logs))
    w = z + lift
    s = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi)
    for k, b in enumerate(_BERNOULLI, start=1):
        s += b / ((2 * k) * (2 * k - 1) * w ** (2 * k - 1))
    return np.exp(s - acc)


def zeta_oracle(lam):
    """Oscillatory quadrature (QAWF) of the defining sine integral."""
    val, _ = quad(lambda t: 1.0 / (2.0 + t), 0.0, np.inf, weight="sin", wvar=abs(lam))
    return math.copysign(val / math.pi, lam)


def zeta_quadosc(lam):
    """mpmath quadosc of the defining sine integral at 20 digits: shares no
    code with scipy's QAWF oracle above or with the Si/Ci closed form."""
    with mpmath.workdps(20):
        val = mpmath.quadosc(lambda t: mpmath.sin(lam * t) / (2 + t), [0, mpmath.inf],
                             omega=abs(lam))
        return float(val / mpmath.pi)


def zeta_closed_form_mp(lam):
    """The Si/Ci closed form in mpmath, the working precision raised by
    log10 |lam| digits to absorb the cancellation in pi/2 - Si(2 |lam|)."""
    a = abs(lam)
    with mpmath.workdps(30 + max(0, int(math.log10(a)))):
        x = 2 * mpmath.mpf(a)
        f = mpmath.ci(x) * mpmath.sin(x) + (mpmath.pi / 2 - mpmath.si(x)) * mpmath.cos(x)
        return math.copysign(float(f / mpmath.pi), lam)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_at_one_and_half():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_complex_point_frozen():
    # 0.3411670654603839 computed by the recursion+Stirling oracle (dev run,
    # cross-checked against a 30-digit evaluation)
    val = abs(gamma_complex(0.7 + 1.3j))
    assert val == pytest.approx(0.3411670654603839, rel=1e-12)
    assert val == pytest.approx(abs(gamma_oracle(0.7 + 1.3j)), rel=1e-12)


def test_gamma_accuracy_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = complex(rng.uniform(-20, 20), rng.uniform(-50, 50))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        g = gamma_complex(z)
        ref = gamma_oracle(z)
        assert abs(g - ref) <= 1e-12 * abs(ref), f"z={z}"


@pytest.mark.parametrize("z", [0.7 + 1.3j, -2.5 + 0.1j, 3.25 - 7.0j, 0.01 + 40.0j, -15.3 - 2.2j])
def test_gamma_against_mpmath(z):
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
    assert abs(gamma_complex(z) - ref) <= 1e-13 * abs(ref)


def test_gamma_pole_guard():
    with pytest.raises(GammaPoleError):
        gamma_complex(0.0)
    with pytest.raises(GammaPoleError):
        gamma_complex(-3.0 + 1e-13j)
    # nearby but off-pole arguments still evaluate
    assert np.isfinite(gamma_complex(-3.0 + 1e-6j))


# ---------------------------------------------------------------------------
# Si / Ci


def test_si_limit_and_ci_sign():
    si, _ = sin_cos_integrals(1e3)
    assert abs(si - math.pi / 2) < 1e-3
    _, ci = sin_cos_integrals(1e-3)
    assert ci < 0.0


def test_si_value_frozen():
    # 0.9460830703671831 from adaptive quadrature of int_0^1 sin(t)/t dt
    si, _ = sin_cos_integrals(1.0)
    assert si == pytest.approx(0.9460830703671831, abs=1e-12)
    oracle, _ = quad(lambda t: math.sin(t) / t, 0.0, 1.0, epsabs=1e-13)
    assert si == pytest.approx(oracle, abs=1e-12)


def test_si_domain_error():
    with pytest.raises(ValueError):
        sin_cos_integrals(0.0)
    with pytest.raises(ValueError):
        sin_cos_integrals(-1.0)


# ---------------------------------------------------------------------------
# zeta kernel


def test_zeta_oddness_exact():
    rng = np.random.default_rng(11)
    lam = rng.uniform(-20, 20, size=100)
    lam = lam[lam != 0.0]
    assert np.max(np.abs(zeta_kernel(-lam) + zeta_kernel(lam))) <= 1e-14


def test_zeta_one_sided_limits():
    for k in range(1, 21):
        lam = 2.0 ** -k
        assert abs(zeta_kernel(lam) - 0.5) < 0.5  # stays near +1/2 branch
    assert zeta_kernel(2.0 ** -20) == pytest.approx(0.5, abs=1e-4)
    assert zeta_kernel(-(2.0 ** -20)) == pytest.approx(-0.5, abs=1e-4)


def test_zeta_value_against_oscillatory_oracle():
    # frozen oracle output for lam = 5.0
    assert zeta_kernel(5.0) == pytest.approx(0.0312551771783559, abs=1e-12)
    for lam in (0.3, 1.0, 5.0, -7.5, 40.0):
        assert zeta_kernel(lam) == pytest.approx(zeta_oracle(lam), abs=1e-9)


def test_zeta_golden_and_values_against_quadosc_oracle():
    # measured gaps at these points: at most 5.6e-17
    assert acceptance.load_golden()["zeta_5"] == pytest.approx(zeta_quadosc(5.0), abs=1e-15)
    for lam in (0.3, 1.7, 5.0, 40.0, -0.3, -2.0, -7.5):
        assert zeta_kernel(lam) == pytest.approx(zeta_quadosc(lam), abs=1e-14)


def test_zeta_against_raised_precision_oracle_up_to_1e300():
    lam = np.geomspace(1e-3, 1e300, 300)
    lam = np.concatenate([lam, -lam])
    ref = np.array([zeta_closed_form_mp(x) for x in lam])
    assert np.max(np.abs(zeta_kernel(lam) - ref) / np.abs(ref)) <= 1e-14


def test_zeta_decay():
    lam = np.geomspace(1.0, 1e3, 200)
    ratio = np.abs(zeta_kernel(lam)) * lam
    assert np.max(ratio) <= 2.0


def test_zeta_log_derivative_growth():
    lam = np.geomspace(1e-6, 1e-2, 50)
    h = lam * 1e-3
    deriv = (zeta_kernel(lam + h) - zeta_kernel(lam - h)) / (2 * h)
    ratio = np.abs(deriv) / np.abs(np.log(lam))
    assert np.max(ratio) <= 1.0  # analytically tends to 2/pi


def test_zeta_rejects_zero():
    with pytest.raises(ValueError):
        zeta_kernel(0.0)


# ---------------------------------------------------------------------------
# conical Legendre


def test_legendre_at_one():
    for tau in (0.1, 0.5, 1.0, 3.0, 10.0):
        assert conical_legendre_values(tau, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_legendre_even_in_tau():
    xs = np.array([1.2, 2.0, 7.0, 150.0])
    for tau in (0.3, 1.5, 4.0):
        a = conical_legendre_values(tau, xs)
        b = conical_legendre_values(-tau, xs)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_legendre_value_frozen():
    # 0.8077524801335518 from 60-digit brute-force summation of both series
    val = conical_legendre_values(0.5, 2.0)
    assert val == pytest.approx(0.8077524801335518, rel=1e-12)


@pytest.mark.parametrize("tau", [0.25, 1.0, 3.0, 7.0])
def test_legendre_against_mpmath_across_crossover(tau):
    # both series: the origin series below x = 1.5, the descending one above
    cross = DEFAULT_POLICY.crossover_x
    xs = np.array([1.05, 1.3, 1.49, cross, 1.51, 2.0, 10.0])
    with mpmath.workdps(30):
        ref = [float(mpmath.re(mpmath.legenp(-0.5 + 1j * tau, 0, x, type=3))) for x in xs]
    assert np.max(np.abs(conical_legendre_values(tau, xs) - ref)) <= 1e-10


def test_legendre_series_agreement_at_crossover():
    cross = DEFAULT_POLICY.crossover_x
    xs = np.linspace(0.9 * cross, 1.1 * cross, 21)
    lo = SeriesPolicy(crossover_x=10.0)   # force origin series
    hi = SeriesPolicy(crossover_x=1.01)   # force tail series
    for tau in (0.25, 1.0, 3.0, 7.0):
        a = conical_legendre_values(tau, xs, lo)
        b = conical_legendre_values(tau, xs, hi)
        assert np.max(np.abs(a - b)) <= 1e-8, f"tau={tau}"


def test_legendre_bounded_near_one():
    xs = np.linspace(1.0, 2.0, 200)
    for tau in (0.1, 1.0, 2.5, 5.0):
        p = conical_legendre_values(tau, xs)
        dp = np.diff(p) / np.diff(xs)
        assert np.max(np.abs(p)) < 5.0
        # slope at x=1 is -F'(0)/2 = -((1/4 + tau^2))/2, so < 15 for tau <= 5
        assert np.max(np.abs(dp)) < 30.0


def test_legendre_nonconvergence_error():
    with pytest.raises(SeriesConvergenceError):
        specfun._origin_series(1.0, np.array([1.49]), 8, 1e-12)


def reference_series(tail, tau, x, max_terms=400, tol=1e-14):
    """Both Legendre series with the full stopping test at every term."""
    shape = np.broadcast_shapes(np.shape(tau), x.shape)
    if tail:
        a, b, c = 0.25 - 0.5j * tau, 0.75 - 0.5j * tau, 1.0 - 1j * tau
        x2 = x ** -2.0
        term = np.ones(shape, dtype=complex)
    else:
        z = 0.5 * (1.0 - x)
        term = np.ones(shape)
    total = np.ones_like(term)
    for n in range(max_terms):
        if tail:
            term *= (a + n) * (b + n)
            term /= (c + n) * (n + 1.0)
            term *= x2
            total += term
        else:
            term = term * (((n + 0.5) ** 2 + tau * tau) / (n + 1.0) ** 2) * z
            total = total + term
        if np.max(np.abs(term)) <= tol * max(1.0, float(np.max(np.abs(total)))):
            if not tail:
                return total
            head = np.vectorize(m_tau, otypes=[complex])(tau) * np.exp((-0.5 + 1j * tau) * np.log(x))
            return np.real(head * total)
    raise SeriesConvergenceError("reference series did not converge")


@pytest.mark.parametrize("tail", [False, True])
def test_series_stop_where_the_full_test_stops(tail):
    # bit for bit, on tau blocks and scalars, where max|total| exceeds 1 at
    # the stop: the tail sums reach 1.55 at x = 1.1, and the origin series
    # (it converges for |1 - x| < 2) sums positive terms to 3.8e13 at x < 1
    x = np.linspace(1.1, 40.0, 301) if tail else np.linspace(-0.5, 2.5, 301)
    series = specfun._tail_series if tail else specfun._origin_series
    taus = np.array([0.3, 2.0, 7.5, 12.0, 16.0])
    assert np.array_equal(series(taus[:, None], x, 400, 1e-14),
                          reference_series(tail, taus[:, None], x))
    for tau in taus:
        assert np.array_equal(series(tau, x[:40], 400, 1e-14), reference_series(tail, tau, x[:40]))
        # tiny scalar-tau calls too, where numpy's loops take their short paths
        for size in (1, 2, 3, 7):
            for start in range(0, x.size - size, 37):
                cut = x[start:start + size]
                assert np.array_equal(series(tau, cut, 400, 1e-14), reference_series(tail, tau, cut))


def test_one_point_x_matches_the_same_x_in_a_longer_array():
    # numpy rounds a one-element in-place complex product without the fused
    # multiply-add of its vector loop, which moves 235 of these 900 one-point
    # values by one ulp, so the tail's head product must be out of place.
    # The longer arrays repeat the point, so every length stops at one term
    for tau in (0.3, 2.0, 7.5):
        for x in np.linspace(1.5, 40.0, 300):
            one = conical_legendre_values(tau, x)
            for n in (2, 3, 17):
                assert np.array_equal(conical_legendre_values(tau, np.full(n, x)), np.full(n, one))


def _retiring_blocks():
    # blocks large enough for the tail's settled columns to retire (the
    # origin series runs every cell to the stop whatever the block)
    t_grid, tau_grid = mehler.default_grids()
    x, taus = 1.0 + t_grid.nodes, tau_grid.nodes[:, None]
    near = x < DEFAULT_POLICY.crossover_x
    rng = np.random.default_rng(7)
    shuffled = rng.permutation(np.concatenate([x[~near], x[~near][::3]]))
    return {
        "grid-tail": (True, taus, x[~near]),
        "grid-origin": (False, taus, x[near]),
        "shuffled-repeated-tail": (True, taus[::8], shuffled),
        "tau-450-tail": (True, np.linspace(0.5, 450.0, 40)[:, None], np.geomspace(1.5, 1e13, 300)),
        "tau-30-origin": (False, np.linspace(0.1, 30.0, 80)[:, None], np.sort(rng.uniform(1.0, 1.5, 200))),
    }


@pytest.mark.parametrize("case", sorted(_retiring_blocks()))
def test_series_stop_where_the_full_test_stops_with_retired_columns(case):
    # bit for bit against every cell run to the stop, on blocks where the
    # settled columns retire
    tail, taus, x = _retiring_blocks()[case]
    assert taus.size * x.size >= specfun._RETIRE_CELLS
    series = specfun._tail_series if tail else specfun._origin_series
    assert np.array_equal(series(taus, x, 400, 1e-14), reference_series(tail, taus, x))


def test_one_cell_chunk_of_a_one_row_block():
    # scalar tau, so the head's last chunk of columns is a single cell; its
    # product with the sum must round as in a full-width product.  numpy's
    # one-element in-place product skips the fused multiply-add, which moves
    # the cell for about one tau in four, hence fourteen taus
    x = np.random.default_rng(3).permutation(np.geomspace(1.5, 1e3, 2 * specfun._CHUNK_CELLS + 1))
    for tau in np.round(np.linspace(0.3, 12.0, 40), 2)[::3]:
        tau = float(tau)
        assert np.array_equal(specfun._tail_series(tau, x, 400, 1e-14), reference_series(True, tau, x))


def _spy_live_columns(monkeypatch):
    # the live widths _live_columns returns, keyed by whether the sum is
    # complex (the tail series) or real (the origin series)
    widths = {True: [], False: []}
    live_columns = specfun._live_columns

    def spy(term, colmax, total, tol, contracting):
        k = live_columns(term, colmax, total, tol, contracting)
        widths[np.iscomplexobj(total)].append(k)
        return k

    monkeypatch.setattr(specfun, "_live_columns", spy)
    return widths


def test_settled_columns_retire_only_from_large_blocks(monkeypatch):
    widths = _spy_live_columns(monkeypatch)
    t_grid, tau_grid = mehler.default_grids()
    x = 1.0 + t_grid.nodes
    tail_columns = np.count_nonzero(x >= DEFAULT_POLICY.crossover_x)
    conical_legendre_values(tau_grid.nodes, x)
    assert tail_columns == 351 and not widths[False]      # the origin never retires
    assert min(widths[True]) < 0.1 * tail_columns        # 5 live of 351 at the stop
    widths[True].clear()
    widths[False].clear()
    conical_legendre_values(1.0, x)                       # scalar tau, f1's 400 points
    assert widths == {True: [], False: []}


def test_tail_block_retires_alike_in_any_input_order(monkeypatch):
    # the tail sorts its columns slowest first, so a reversed or shuffled
    # default-grid block gives the ascending block's values bit for bit and
    # retires to the same live width (5 of 351 columns at the stop)
    widths = _spy_live_columns(monkeypatch)
    t_grid, tau_grid = mehler.default_grids()
    x, taus = 1.0 + t_grid.nodes, tau_grid.nodes
    assert np.all(np.diff(x) > 0.0)
    P = conical_legendre_values(taus, x)
    steps, smallest = len(widths[True]), min(widths[True])
    assert smallest < 0.1 * np.count_nonzero(x >= DEFAULT_POLICY.crossover_x)
    for order in (np.arange(x.size)[::-1], np.random.default_rng(5).permutation(x.size)):
        widths[True].clear()
        assert np.array_equal(conical_legendre_values(taus, x[order]), P[:, order])
        assert (len(widths[True]), min(widths[True])) == (steps, smallest)


def test_default_grid_block_peak_memory():
    # only the tail's term and total (and the small origin result) are
    # full-size while the series run: measured 3.8x the block's bytes.  One
    # more full-size real array over the tail columns would read 4.7x, and a
    # full-size |term|, |total| and head beside them 7.6x
    t_grid, tau_grid = mehler.default_grids()
    x, taus = 1.0 + t_grid.nodes, tau_grid.nodes
    conical_legendre_values(taus[:2], x)
    tracemalloc.start()
    try:
        P = conical_legendre_values(taus, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * P.nbytes


def test_legendre_tau_array_gives_one_row_per_tau():
    taus = np.array([0.25, 1.0, 3.0, 7.0])
    xs = np.array([1.0, 1.3, 1.5, 2.0, 10.0])
    P = conical_legendre_values(taus, xs)
    assert P.shape == (4, 5)
    for tau, row in zip(taus, P):
        assert np.max(np.abs(row - conical_legendre_values(tau, xs))) <= 1e-14
    assert conical_legendre_values(taus, 2.0).shape == (4,)


def test_conical_arg_validation():
    for x in (0.5, np.array([2.0, np.nan])):
        with pytest.raises(ValueError, match="x must be >= 1"):
            conical_legendre_values(1.0, x)
    assert conical_legendre_values(0.5, np.array([2.0, np.inf]))[1] == 0.0
    assert conical_legendre_values(0.5, np.array([])).shape == (0,)
    with pytest.raises(ValueError):
        conical_legendre_values(0.0, 2.0)
    with pytest.raises(ValueError):
        conical_legendre_values(np.array([0.5, 0.0]), 2.0)
    with pytest.raises(ValueError):
        conical_legendre_values(np.ones((2, 2)), 2.0)
    for tau in (460.0, -1e300, np.array([0.5, 451.0]), float("nan")):     # the bound of m_tau
        with pytest.raises(ValueError, match="above 450"):
            conical_legendre_values(tau, np.array([1.2, 2.0]))
    with pytest.raises(ValueError):
        SeriesPolicy(crossover_x=0.9)


# ---------------------------------------------------------------------------
# m(tau)


def test_m_tau_modulus_identity():
    # |m(tau)| = sqrt(2/(pi tau tanh(pi tau))), from the gamma modulus identities
    for tau in (0.3, 0.5, 1.0, 2.0, 5.0):
        expect = math.sqrt(2.0 / (math.pi * tau * math.tanh(math.pi * tau)))
        assert abs(m_tau(tau)) == pytest.approx(expect, rel=1e-12)


def test_m_tau_decreasing():
    taus = np.linspace(0.5, 5.0, 40)
    mods = np.array([abs(m_tau(t)) for t in taus])
    assert np.all(np.isfinite(mods))
    assert np.all(np.diff(mods) < 0.0)


def test_m_tau_asymptotics_of_legendre():
    # P(x) - Re(m(tau) x^{-1/2+i tau}) = O(x^{-5/2})
    xs = np.array([50.0, 100.0, 200.0])
    for tau in (0.5, 1.0, 2.0, 3.0):
        p = conical_legendre_values(tau, xs)
        lead = np.real(m_tau(tau) * np.exp((-0.5 + 1j * tau) * np.log(xs)))
        scaled = np.abs(p - lead) * xs ** 2.5
        assert np.max(scaled) < 1.0, f"tau={tau}: {scaled}"


def test_m_tau_real_part_even_in_tau():
    x = 37.0
    for tau in (0.4, 1.7):
        a = np.real(m_tau(tau) * x ** (-0.5 + 1j * tau))
        b = np.real(m_tau(-tau) * x ** (-0.5 - 1j * tau))
        assert a == pytest.approx(b, rel=1e-12)


def test_m_tau_pole_as_tau_to_zero():
    with pytest.raises(GammaPoleError):
        m_tau(0.0)


def test_m_tau_raises_where_gamma_underflows():
    # up to |tau| = 450 the value is the closed form, bit for bit, and within
    # 1e-12 of mpmath; beyond it Gamma(i tau) is subnormal and m(tau) raises
    for tau in (-450.0, 100.0, 449.5, 450.0):
        it = 1j * tau
        closed = gamma_complex(it) * 2.0 ** (0.5 + it) / (math.sqrt(math.pi) * gamma_complex(0.5 + it))
        assert m_tau(tau) == closed
        with mpmath.workdps(30):
            it = mpmath.mpc(0, tau)
            ref = complex(mpmath.gamma(it) * mpmath.power(2, 0.5 + it)
                          / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(0.5 + it)))
        assert abs(m_tau(tau) - ref) <= 1e-12 * abs(ref)
    for tau in (450.0000001, -460.0, 474.95, 1e300, -1e300, float("nan")):
        with pytest.raises(ValueError, match="above 450"):
            m_tau(tau)
