import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sho_spectra.mehler import (
    FilonScheme,
    QuadratureGrid,
    SampledFunction,
    check_w_derivative_bounds,
    default_grids,
    kernel_matrix,
    legendre_kernel,
    mehler_apply,
    mehler_fock_forward,
    mehler_fock_inverse,
    mehler_identity_residual,
    symmetrized_kernel,
    transformed_gauss_grid,
    trapezoid_grid,
    verify_identity,
    w_tau,
)
from sho_spectra.mehler import _unitarity_test_functions
from sho_spectra.specfun import conical_legendre_values, m_tau


def small_grids():
    # cheaper than the defaults, still accurate enough for unit checks
    return transformed_gauss_grid(200, 16.0), trapezoid_grid(0.01, 6.0, 0.025)


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid([1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        QuadratureGrid([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        SampledFunction(small_grids()[0], np.zeros(3))


# ---------------------------------------------------------------------------
# kernel operator


def test_apply_zero():
    g = small_grids()[0]
    out = mehler_apply(SampledFunction(g, np.zeros(len(g))))
    assert np.all(out.values == 0.0)


def test_apply_exponential_against_quad_oracle():
    g = small_grids()[0]
    out = mehler_apply(SampledFunction(g, np.exp(-g.nodes)))
    for i in (0, 40, 90, 150):
        t = g.nodes[i]
        ref, _ = quad(lambda s: math.exp(-s) / (2.0 + t + s), 0.0, np.inf, epsabs=1e-13)
        assert out.values[i].real == pytest.approx(ref / math.pi, abs=1e-10)


def test_apply_tail_warning():
    g = small_grids()[0]
    with pytest.warns(UserWarning):
        mehler_apply(SampledFunction(g, np.ones(len(g))))


def test_eigenfunction_identity():
    for tau in (0.5, 1.0, 2.0):
        assert mehler_identity_residual(tau) <= 1e-6


def test_identity_residual_over_tau_range():
    grid = default_grids()[0]
    for tau in np.linspace(0.25, 3.0, 8):
        assert mehler_identity_residual(float(tau), grid) <= 1e-6


def test_symmetrized_kernel_spectrum_in_unit_interval():
    g = small_grids()[0]
    ev = np.linalg.eigvalsh(symmetrized_kernel(g))
    assert ev.min() >= -1e-6
    assert ev.max() <= 1.0 + 1e-6


def test_kernel_matches_fourier_side_form():
    # the matrix assembled from the Fourier transform of the zeta kernel: the
    # convolution symbol 2i zeta has transform -(2i)(i/sqrt(2 pi)) sign(x)/(2 + |x|);
    # restricted to x = t + s > 0 and carrying the (2 pi)^{-1/2} Hankel
    # prefactor this reproduces 1/(pi (2 + t + s))
    g = small_grids()[0]
    x = g.nodes[:, None] + g.nodes[None, :]
    zhat = -1j / math.sqrt(2.0 * math.pi) * np.sign(x) / (2.0 + np.abs(x))
    kern = (2.0 * math.pi) ** -0.5 * (2.0j * zhat)
    fourier_side = np.real_if_close(kern) * g.weights[None, :]
    assert np.allclose(kernel_matrix(g), fourier_side, atol=1e-15)


# ---------------------------------------------------------------------------
# transform pair


def gaussian_bump(grid):
    return SampledFunction(grid, np.exp(-(grid.nodes - 2.0) ** 2 / 2.0))


@pytest.mark.parametrize("refined", [False, True])
def test_legendre_kernel_rows_match_scalar_calls(refined):
    # the (tau, x) block evaluation against one scalar-tau call per row
    t_grid, tau_grid = default_grids(refined)
    P = legendre_kernel(tau_grid.nodes, t_grid)
    assert P.shape == (len(tau_grid), len(t_grid))
    gap = max(np.max(np.abs(row - conical_legendre_values(float(tau), 1.0 + t_grid.nodes)))
              for tau, row in zip(tau_grid.nodes, P))
    assert gap <= 1e-14


def test_forward_linearity_zero():
    t_grid, tau_grid = small_grids()
    f = gaussian_bump(t_grid)
    zero = mehler_fock_forward(SampledFunction(t_grid, 0.0 * f.values), tau_grid.nodes)
    assert np.all(zero == 0.0)


def test_parseval_gaussian_bump():
    t_grid, tau_grid = default_grids()
    f = gaussian_bump(t_grid)
    ratio = tau_grid.norm(mehler_fock_forward(f, tau_grid.nodes)) / f.norm()
    assert abs(ratio - 1.0) <= 1e-3


def test_diagonalization_pointwise():
    t_grid, tau_grid = default_grids()
    f = gaussian_bump(t_grid)
    taus = tau_grid.nodes
    lhs = mehler_fock_forward(mehler_apply(f), taus)
    rhs = mehler_fock_forward(f, taus) / np.cosh(math.pi * taus)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_inverse_of_zero():
    _, tau_grid = small_grids()
    out = mehler_fock_inverse(SampledFunction(tau_grid, np.zeros(len(tau_grid))), [0.5, 1.0])
    assert np.all(out == 0.0)


def test_round_trip_gaussian():
    t_grid, tau_grid = default_grids()
    f = gaussian_bump(t_grid)
    g = SampledFunction(tau_grid, mehler_fock_forward(f, tau_grid.nodes))
    back = mehler_fock_inverse(g, t_grid.nodes)
    rel = t_grid.norm(back - f.values) / f.norm()
    assert rel <= 1e-2


def test_inverse_of_damped_transform_matches_apply():
    t_grid, tau_grid = default_grids()
    f = gaussian_bump(t_grid)
    taus = tau_grid.nodes
    damped = mehler_fock_forward(f, taus) / np.cosh(math.pi * taus)
    back = mehler_fock_inverse(SampledFunction(tau_grid, damped), t_grid.nodes)
    target = mehler_apply(f).values
    assert np.max(np.abs(back - target)) <= 1e-4


def test_inverse_matches_per_tau_sum():
    _, tau_grid = small_grids()
    g = SampledFunction(tau_grid, np.exp(-tau_grid.nodes) * (1.0 + 0.5j))
    ts = np.array([[0.0, 0.3], [1.7, 40.0]])
    pref = np.sqrt(tau_grid.nodes * np.tanh(math.pi * tau_grid.nodes))
    ref = sum(c * conical_legendre_values(float(tau), 1.0 + ts)
              for tau, c in zip(tau_grid.nodes, tau_grid.weights * pref * g.values))
    back = mehler_fock_inverse(g, ts)
    assert back.shape == ts.shape
    assert np.max(np.abs(back - ref)) <= 1e-13


def test_verify_f3_matches_per_function_transforms():
    # the stacked forward matrix against one mehler_fock_forward per test function
    taus = [0.3, 1.0, 2.5, 6.0]
    t_grid = default_grids()[0]
    rep = verify_identity("f3", taus=taus)
    for row, f in zip(rep["rows"], _unitarity_test_functions(t_grid)):
        lhs = mehler_fock_forward(mehler_apply(f), taus)
        rhs = mehler_fock_forward(f, taus) / np.cosh(math.pi * np.asarray(taus))
        assert row["residual"] == pytest.approx(float(np.max(np.abs(lhs - rhs))), abs=1e-12)


def test_isometry_improves_under_refinement():
    coarse = verify_identity("unitarity", refined=False)["max_defect"]
    fine = verify_identity("unitarity", refined=True)["max_defect"]
    assert fine < coarse
    assert coarse <= 1e-3
    assert fine <= 1e-4


def test_verify_identity_f1_and_f3():
    assert verify_identity("f1")["max_residual"] <= 1e-6
    assert verify_identity("f3")["max_residual"] <= 1e-6
    with pytest.raises(ValueError):
        verify_identity("f2")


# ---------------------------------------------------------------------------
# w_tau


def w_oracle(tau, lam, phase_cut=5e3):
    # independent check: QAWO quadrature to a large cut plus first-order tail
    T = phase_cut / abs(lam)
    f = lambda t: conical_legendre_values(tau, 1.0 + t)
    re, _ = quad(f, 0.0, T, weight="cos", wvar=lam, limit=800)
    im, _ = quad(f, 0.0, T, weight="sin", wvar=lam, limit=800)
    X = 1.0 + T
    sig = -0.5 + 1j * tau
    m = m_tau(tau)

    def pt(rho, l):
        return np.exp(-1j * l * X) * (X ** rho / (1j * l) + rho * X ** (rho - 1) / (1j * l) ** 2)

    tail = np.exp(1j * lam) * 0.5 * (m * pt(sig, lam) + np.conj(m * pt(sig, -lam)))
    return (re - 1j * im + tail) / math.sqrt(2.0 * math.pi)


def test_w_tau_against_oracle():
    for tau, lam in ((0.5, 1.0), (1.0, -0.3), (2.0, 5.0)):
        assert w_tau(tau, lam) == pytest.approx(w_oracle(tau, lam), abs=5e-3)


def w_closed_form(tau, lam):
    # Gradshteyn-Ryzhik 7.141.5, int_1^inf e^{-px} P_nu(x) dx = sqrt(2/(pi p)) K_{nu+1/2}(p),
    # continued to p = i lam: w = e^{i lam} K_{i tau}(i lam) / (pi sqrt(i lam))
    with mpmath.workdps(30):
        il = mpmath.mpc(0.0, lam)
        return complex(mpmath.exp(il) * mpmath.besselk(1j * tau, il) / (mpmath.pi * mpmath.sqrt(il)))


W_POINTS = ((0.5, 1.0), (1.0, -0.3), (2.0, 5.0), (1.5, 0.01), (3.0, 30.0), (0.5, 1e-3))


def test_w_tau_against_closed_form_oracle():
    # measured gap / max(1, |w|) at these points: default scheme 1.4e-5 to 1.5e-4,
    # refined 4.5e-6 to 1.1e-5; the bounds leave a margin of about 3x over the worst
    for tau, lam in W_POINTS:
        ref = w_closed_form(tau, lam)
        scale = max(1.0, abs(ref))
        gap_default = abs(w_tau(tau, lam) - ref)
        gap_refined = abs(w_tau(tau, lam, FilonScheme().refine()) - ref)
        assert gap_refined <= gap_default
        assert gap_default <= 5e-4 * scale
        assert gap_refined <= 3e-5 * scale


# w_tau before the 5-point Gauss rule of the slow-phase panels became a module
# constant (float.hex of real and imaginary part; x86-64, numpy 2.4)
W_FROZEN = {
    (0.5, 1.0, False): ("0x1.2e5563b82ae9ep-4", "-0x1.75e55e060c6f0p-2"),
    (1.5, 0.01, False): ("0x1.17aab6cf7759ap+1", "-0x1.3a344e17fff80p+1"),
    (0.5, 1e-3, True): ("0x1.872fa047fd0dcp+1", "0x1.f433ec0149b0bp+3"),
    (2.0, 5.0, True): ("0x1.f916e26c140e5p-6", "-0x1.203e4ff49c180p-4"),
}


def test_w_tau_bit_identical_to_frozen_values():
    for (tau, lam, refined), (re, im) in W_FROZEN.items():
        scheme = FilonScheme().refine() if refined else FilonScheme()
        assert w_tau(tau, lam, scheme) == complex(float.fromhex(re), float.fromhex(im))


def test_w_tau_conjugation():
    for tau in (0.5, 1.5):
        for lam in (0.25, 1.0, 17.0):
            a = w_tau(tau, -lam)
            b = np.conj(w_tau(tau, lam))
            assert a == pytest.approx(b, abs=1e-13)


def test_w_tau_rejects_zero_lambda():
    with pytest.raises(ValueError):
        w_tau(1.0, 0.0)


def test_w_large_lambda_bound():
    lams = np.geomspace(1.0, 100.0, 7)
    for tau in (0.5, 1.5, 3.0):
        vals = np.array([abs(w_tau(tau, l)) * l for l in lams])
        assert np.max(vals) <= 1.0


def test_w_small_lambda_bound():
    lams = np.geomspace(1e-4, 0.5, 7)
    for tau in (0.5, 1.5, 3.0):
        vals = np.array([abs(w_tau(tau, l)) * math.sqrt(l) for l in lams])
        assert np.max(vals) <= 2.0


def test_w_derivative_bounds_report():
    rep = check_w_derivative_bounds([1.0], [2.0, 1e-3])
    assert rep["violations"] == []
    assert 0.0 < rep["sup_w_times_lambda"] < 2.0
    assert 0.0 < rep["sup_dw_log_weighted"] < 5.0


def test_w_derivative_bounds_zero_harness():
    zero = lambda tau, lam: 0.0j
    rep = check_w_derivative_bounds([1.0], [2.0, 1e-3], eval_fn=zero)
    assert rep["violations"] == []
    assert rep["sup_w_times_lambda"] == 0.0
    assert rep["sup_w_times_sqrt_lambda"] == 0.0


def test_filon_scheme_refinement_stability():
    sch = FilonScheme()
    ref = sch.refine()
    for tau, lam in ((0.5, 0.01), (1.5, 1.0), (3.0, 30.0)):
        a, b = w_tau(tau, lam, sch), w_tau(tau, lam, ref)
        assert abs(a - b) <= 0.05 * abs(b)
