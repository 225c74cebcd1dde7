import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sho_spectra import specfun
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
        conical_legendre_values(1.0, 1.49, SeriesPolicy(crossover_x=1.5, max_terms=8, tol=1e-12))


def test_legendre_tau_array_gives_one_row_per_tau():
    taus = np.array([0.25, 1.0, 3.0, 7.0])
    xs = np.array([1.0, 1.3, 1.5, 2.0, 10.0])
    P = conical_legendre_values(taus, xs)
    assert P.shape == (4, 5)
    for tau, row in zip(taus, P):
        assert np.max(np.abs(row - conical_legendre_values(tau, xs))) <= 1e-14
    assert conical_legendre_values(taus, 2.0).shape == (4,)


def test_conical_arg_validation():
    with pytest.raises(ValueError):
        conical_legendre_values(1.0, 0.5)
    with pytest.raises(ValueError):
        conical_legendre_values(0.0, 2.0)
    with pytest.raises(ValueError):
        conical_legendre_values(np.array([0.5, 0.0]), 2.0)
    with pytest.raises(ValueError):
        conical_legendre_values(np.ones((2, 2)), 2.0)
    with pytest.raises(ValueError):
        SeriesPolicy(crossover_x=0.9)
    with pytest.raises(ValueError):
        SeriesPolicy(tol=1e-3)


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
