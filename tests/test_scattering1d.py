import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sho_spectra import scattering1d
from sho_spectra.scattering1d import (
    BandEdgeError,
    LatticeModel,
    ScatteringBreakdownError,
    ScatteringData,
    momentum,
    sigma_scan,
    smatrix,
    transfer_matrix,
)


def scattering_oracle(model, lam):
    """Independent linear-solve oracle for (t, r).

    Solves (H - lam) u = 0 on a box with plane-wave matching rows instead of
    transfer-matrix products: unknowns are the interior amplitudes plus r, t.
    """
    k = math.acos(lam / 2.0)
    supp = model.support or (0, 0)
    B = max(abs(supp[0]), abs(supp[1])) + 3
    interior = list(range(-B + 1, B))          # unknown u_n on the interior
    nun = len(interior)
    A = np.zeros((nun + 2, nun + 2), dtype=complex)
    b = np.zeros(nun + 2, dtype=complex)
    idx = {n: i for i, n in enumerate(interior)}
    ir, it = nun, nun + 1

    def add_u(row, n, coeff):
        # u_n as unknown, or via the scattering ansatz outside the interior
        if n in idx:
            A[row, idx[n]] += coeff
        elif n <= -B:
            b[row] -= coeff * np.exp(1j * k * n)
            A[row, ir] += coeff * np.exp(-1j * k * n)
        else:
            A[row, it] += coeff * np.exp(1j * k * n)

    row = 0
    for n in range(-B, B + 1):
        if n not in idx and n not in (-B, B):
            continue
        v = model.potential.get(n, 0.0)
        add_u(row, n + 1, 1.0)
        add_u(row, n - 1, 1.0)
        add_u(row, n, v - lam)
        row += 1
    sol = np.linalg.solve(A[:row, :], b[:row])
    return sol[it], sol[ir]


def test_free_transfer_is_identity():
    M = transfer_matrix(LatticeModel(), 0.7)
    assert np.max(np.abs(M - np.eye(2))) <= 1e-14


def test_free_smatrix_identity():
    sd = smatrix(LatticeModel(), -0.3)
    assert np.max(np.abs(sd.S - np.eye(2))) <= 1e-14
    assert np.max(np.abs(sd.sigmas - 1.0)) <= 1e-14


def test_transfer_determinant_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        sites = rng.integers(-4, 5, size=rng.integers(1, 4))
        model = LatticeModel({int(n): float(rng.normal()) for n in sites})
        lam = float(rng.uniform(-1.9, 1.9))
        M = transfer_matrix(model, lam)
        assert abs(np.linalg.det(M) - 1.0) <= 1e-12


def test_single_site_transfer_value():
    # hand product for v at n=0, lam=0 (k = pi/2): M = [[1+i, i], [-i, 1-i]]
    M = transfer_matrix(LatticeModel.single_site(2.0), 0.0)
    expect = np.array([[1.0 + 1.0j, 1.0j], [-1.0j, 1.0 - 1.0j]])
    assert np.max(np.abs(M - expect)) <= 1e-13


def test_single_site_against_linear_solve_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = LatticeModel({int(rng.integers(-3, 4)): float(rng.normal())})
        lam = float(rng.uniform(-1.8, 1.8))
        sd = smatrix(model, lam)
        t_ref, r_ref = scattering_oracle(model, lam)
        assert sd.S[0, 0] == pytest.approx(t_ref, abs=1e-10)
        assert sd.S[1, 0] == pytest.approx(r_ref, abs=1e-10)


def test_multi_site_against_linear_solve_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        model = LatticeModel({n: float(rng.normal()) for n in range(-2, 3)})
        lam = float(rng.uniform(-1.8, 1.8))
        sd = smatrix(model, lam)
        t_ref, r_ref = scattering_oracle(model, lam)
        assert sd.S[0, 0] == pytest.approx(t_ref, abs=1e-10)
        assert sd.S[1, 0] == pytest.approx(r_ref, abs=1e-10)


def test_single_site_sigma_closed_form():
    # |sigma1 - 1| = 2|v|/sqrt(4 sin^2 k + v^2); at lam=0, v=2 this is sqrt(2)
    sd = smatrix(LatticeModel.single_site(2.0), 0.0)
    assert abs(sd.sigmas[0] - 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert sd.sigmas[1] == pytest.approx(1.0, abs=1e-12)
    for v, lam in ((0.5, 0.3), (-1.5, -0.8), (3.0, 1.2)):
        sd = smatrix(LatticeModel.single_site(v), lam)
        k = momentum(lam)
        expect = 2 * abs(v) / math.sqrt(4 * math.sin(k) ** 2 + v * v)
        assert abs(sd.sigmas[0] - 1.0) == pytest.approx(expect, abs=1e-12)


def test_unitarity_random_models():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        width = int(rng.integers(1, 5))
        start = int(rng.integers(-5, 3))
        model = LatticeModel({start + j: float(rng.normal(scale=1.5)) for j in range(width)})
        lam = float(rng.uniform(-1.95, 1.95))
        sd = smatrix(model, lam)
        worst = max(worst, sd.unitarity_defect)
        assert np.max(np.abs(np.abs(sd.sigmas) - 1.0)) <= 1e-10
    assert worst <= 1e-10


def test_flux_and_reciprocity():
    rng = np.random.default_rng(12)
    for _ in range(100):
        model = LatticeModel({int(n): float(rng.normal()) for n in rng.integers(-4, 5, size=3)})
        lam = float(rng.uniform(-1.9, 1.9))
        sd = smatrix(model, lam)
        t, rp, r, t2 = sd.S[0, 0], sd.S[0, 1], sd.S[1, 0], sd.S[1, 1]
        assert abs(t - t2) <= 1e-12                      # equal diagonal
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-10


def test_parity_symmetric_potential():
    model = LatticeModel({-1: 0.7, 0: -0.4, 1: 0.7})
    sd = smatrix(model, 0.9)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(sd.S @ swap - swap @ sd.S)) <= 1e-10
    # eigenvectors are (1, 1) and (1, -1)
    for vec in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
        out = sd.S @ vec
        ratio = out[0] / vec[0]
        assert np.max(np.abs(out - ratio * vec)) <= 1e-10


def test_eigenvalue_sorting():
    rng = np.random.default_rng(13)
    for _ in range(50):
        model = LatticeModel({0: float(rng.normal()), 2: float(rng.normal())})
        sd = smatrix(model, float(rng.uniform(-1.5, 1.5)))
        assert abs(sd.sigmas[0] - 1.0) >= abs(sd.sigmas[1] - 1.0) - 1e-15


def test_band_edge_guard():
    with pytest.raises(BandEdgeError):
        momentum(2.0)
    with pytest.raises(BandEdgeError):
        momentum(-2.0000001)
    with pytest.raises(BandEdgeError):
        smatrix(LatticeModel.single_site(1.0), 1.9999999999999)


def test_scan_free_model():
    out = sigma_scan(LatticeModel(), np.linspace(-1.9, 1.9, 20))
    for row in out["rows"]:
        assert abs(row["sigma1"] - 1.0) <= 1e-13
        assert abs(row["sigma2"] - 1.0) <= 1e-13


def test_scan_single_site_continuity():
    grid = np.arange(-1.9, 1.9001, 0.01)
    out = sigma_scan(LatticeModel.single_site(2.0), grid)
    # sigma_1 is smooth inside the band; increments stay proportional to the step
    assert out["max_dsigma_per_dlambda"] < 5.0
    edge_rows = [out["rows"][0], out["rows"][-1]]
    # |sigma1 - 1| approaches its band-edge maximum 2 near |lam| = 2 (not asserted at the edge)
    for row in edge_rows:
        assert row["abs_sigma1_minus_1"] > 1.5


def test_transfer_matrix_stacks_energies():
    model = LatticeModel({-1: 1.3, 0: -0.6, 1: 1.7})
    grid = np.linspace(-1.8, 1.8, 7)
    stack = transfer_matrix(model, grid)
    assert stack.shape == (7, 2, 2)
    assert transfer_matrix(model, 0.3).shape == (2, 2)
    for lam, M in zip(grid, stack):
        assert np.array_equal(M, transfer_matrix(model, float(lam)))


def test_scan_rows_equal_smatrix_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(5):
        start = int(rng.integers(-4, 2))
        model = LatticeModel({start + j: float(rng.normal(scale=1.5))
                              for j in range(int(rng.integers(1, 5)))})
        grid = np.sort(rng.uniform(-1.95, 1.95, 64))
        for lam, row in zip(grid, sigma_scan(model, grid)["rows"]):
            sd = smatrix(model, lam)
            expect = {"lambda": sd.lam, "t": complex(sd.S[0, 0]), "r": complex(sd.S[1, 0]),
                      "sigma1": complex(sd.sigmas[0]), "sigma2": complex(sd.sigmas[1]),
                      "abs_sigma1_minus_1": float(abs(sd.sigmas[0] - 1.0))}
            # repr tells signed zeros apart, so this is a bitwise comparison
            assert repr(row) == repr(expect)


def test_scan_rows_against_linear_solve_oracle():
    rng = np.random.default_rng(22)
    grid = np.linspace(-1.85, 1.85, 25)
    for _ in range(4):
        model = LatticeModel({n: float(rng.normal()) for n in range(-2, 3)})
        for lam, row in zip(grid, sigma_scan(model, grid)["rows"]):
            t_ref, r_ref = scattering_oracle(model, lam)
            assert abs(row["t"] - t_ref) <= 1e-10
            assert abs(row["r"] - r_ref) <= 1e-10


@settings(max_examples=50, deadline=None, derandomize=True)
@given(start=st.integers(-6, 3),
       values=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
       grid=st.lists(st.floats(-1.95, 1.95), min_size=1, max_size=40))
def test_closed_form_sigmas_and_defect_match_lapack(start, values, grid):
    # the eigenvalues t +- sqrt(r r') and the defect |a + d|/2 + hypot((a - d)/2, |b|)
    # of S^H S - I = [[a, b], [b*, d]] against numpy's eigvals and 2-norm
    model = LatticeModel({start + j: v for j, v in enumerate(values)})
    grid = np.array(grid)
    try:
        _, S, sig, defect = scattering1d._scatter(model, grid)
    except (BandEdgeError, ScatteringBreakdownError):
        return
    ref = np.sort_complex(np.linalg.eigvals(S))
    assert np.max(np.abs(np.sort_complex(sig) - ref)) <= 1e-14
    assert np.all(np.abs(sig[:, 0] - 1.0) >= np.abs(sig[:, 1] - 1.0))
    expect = np.linalg.norm(S.conj().transpose(0, 2, 1) @ S - np.eye(2), 2, axis=(1, 2))
    assert np.max(np.abs(defect - expect)) <= 4 * np.finfo(float).eps


def _replace_transfer(monkeypatch, at, bad):
    # no lattice input reaches the M[1, 1] or unitarity guards, so the
    # transfer matrix is replaced by `bad` at the energies where `at` holds
    real = scattering1d.transfer_matrix

    def fake(model, lams):
        M = real(model, lams).copy()
        M[at(np.asarray(lams))] = bad
        return M
    monkeypatch.setattr(scattering1d, "transfer_matrix", fake)


def test_scan_raises_the_first_failure_in_grid_order(monkeypatch):
    model = LatticeModel.single_site(1.0)
    grid = np.array([-1.5, -1.0, -0.5, 0.3, 0.6, 0.9, 1.2, 2.5, 1.5])
    _replace_transfer(monkeypatch, lambda lams: lams == 0.3, 0.0)
    with pytest.raises(ScatteringBreakdownError, match=r"lambda=0\.3\b"):
        sigma_scan(model, grid)
    # the same two failures with their order reversed
    grid[3], grid[7] = 2.5, 0.3
    with pytest.raises(BandEdgeError, match=r"lambda=2\.5 outside"):
        sigma_scan(model, grid)


def test_scan_names_the_first_non_unitary_energy(monkeypatch):
    _replace_transfer(monkeypatch, lambda lams: lams >= 0.5, [[1.0, 0.5], [0.5, 1.0]])
    grid = np.array([-0.5, 0.0, 0.5, 0.7, 3.0])
    with pytest.raises(ScatteringBreakdownError, match=r"not unitary at lambda=0\.5:"):
        sigma_scan(LatticeModel.single_site(1.0), grid)


@pytest.mark.parametrize("bad", [float("nan"), 3.0, -2.0, float("inf"), 1.9999999999999])
def test_scan_band_edge_raises_no_numpy_warning(bad):
    grid = np.array([-0.4, 0.1, bad, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BandEdgeError, match=f"lambda={bad} "):
            sigma_scan(LatticeModel({0: 1.0, 1: -2.0}), grid)


OVERFLOW_MODEL = LatticeModel({0: 1e200, 1: 1e200})


def test_overflowing_site_product_gives_nan_transfer_rows():
    # the site product of two 1e200 sites is inf at every energy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = transfer_matrix(OVERFLOW_MODEL, np.array([-0.5, 0.3]))
        assert M.shape == (2, 2, 2)
        assert np.all(np.isnan(M))
        assert np.all(np.isfinite(transfer_matrix(LatticeModel({0: 1e100, 1: 1e100}), 0.3)))


def test_overflow_raises_breakdown_naming_the_energy_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScatteringBreakdownError, match=r"not finite at lambda=0\.3 "):
            smatrix(OVERFLOW_MODEL, 0.3)
        with pytest.raises(ScatteringBreakdownError, match=r"not finite at lambda=-1\.2 "):
            sigma_scan(OVERFLOW_MODEL, np.linspace(-1.2, 1.2, 7))


def test_overflow_takes_its_place_in_the_first_failure_order(monkeypatch):
    # a non-finite M from index 2 on, M[1, 1] = 0 at 0.6 and a band edge at 2.5
    real = scattering1d.transfer_matrix

    def fake(model, lams):
        M = real(model, lams).copy()
        M[2:] = np.inf
        M[np.asarray(lams) == 0.6, 1, 1] = 0.0
        return M
    monkeypatch.setattr(scattering1d, "transfer_matrix", fake)
    model = LatticeModel.single_site(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid, error, match in (([-1.0, 0.6, 0.3, 2.5], ScatteringBreakdownError,
                                    r"near-singular transfer matrix at lambda=0\.6$"),
                                   ([-1.0, 0.1, 0.6, 2.5], ScatteringBreakdownError,
                                    r"near-singular transfer matrix at lambda=0\.6$"),
                                   ([-1.0, 0.1, 0.3, 0.6], ScatteringBreakdownError,
                                    r"not finite at lambda=0\.3 "),
                                   ([-1.0, 2.5, 0.3, 0.6], BandEdgeError,
                                    r"lambda=2\.5 outside")):
            with pytest.raises(error, match=match):
                sigma_scan(model, np.array(grid))


def test_scan_calls_transfer_matrix_once(monkeypatch):
    calls, real = [], scattering1d.transfer_matrix
    monkeypatch.setattr(scattering1d, "transfer_matrix",
                        lambda model, lam: calls.append(np.shape(lam)) or real(model, lam))
    grid = -1.9 + 0.001 * np.arange(3801)
    out = sigma_scan(LatticeModel({-1: 1.3, 0: -0.6, 1: 1.7}), grid)
    assert len(out["rows"]) == 3801
    assert calls == [(3801,)]


def test_scan_empty_grid():
    assert sigma_scan(LatticeModel.single_site(1.0), []) == {"rows": [],
                                                              "max_dsigma_per_dlambda": 0.0}
