import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sho_spectra.cli import load_theta
from sho_spectra.dtheta import (
    BoxPair,
    JumpCollisionError,
    StepFunction,
    _free_count_above,
    _free_distance,
    _free_function,
    _free_modes,
    _nudged,
    _window_block,
    _zolotarev,
    _zolotarev_squares,
    band_filling_report,
    band_prediction,
    dtheta_eigenpairs,
    dtheta_matrix,
    evolution_localization,
    jump_operator_consistency,
    ladder_report,
    model_jump_operator,
)
from sho_spectra.scattering1d import LatticeModel, ScatteringData, smatrix
from sho_spectra.sho import window_evolution


def unit_step():
    return StepFunction(jumps=((0.0, 1.0),))


def make_scattering(lam, S):
    S = np.asarray(S, dtype=complex)
    sig = np.linalg.eigvals(S)
    sig = sig[np.argsort(-np.abs(sig - 1.0), kind="stable")]
    defect = float(np.linalg.norm(S.conj().T @ S - np.eye(2), 2))
    return ScatteringData(lam=lam, k=math.acos(lam / 2.0), S=S, sigmas=sig,
                          unitarity_defect=defect)


# ---------------------------------------------------------------------------
# step functions


def test_step_function_values_and_limits():
    th = StepFunction(jumps=((0.0, 1.0), (0.5, -2.0)), l_minus=0.25)
    assert th(-1.0) == 0.25
    assert th(0.2) == 1.25
    assert th(1.0) == pytest.approx(-0.75)
    assert th.l_plus == pytest.approx(-0.75)


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(jumps=((0.0, 0.0),))
    with pytest.raises(ValueError):
        StepFunction(jumps=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        StepFunction(base="quadratic")
    with pytest.raises(ValueError):
        load_theta({"jumps": [{"lambda": 0.0, "kappa": 1.0}],
                    "base": "step", "limits": [0.0, 5.0]})


# ---------------------------------------------------------------------------
# functional calculus


def test_identity_function_gives_perturbation():
    rng = np.random.default_rng(2)
    pair = BoxPair(12, LatticeModel(dict(zip(range(-3, 3), rng.normal(size=6)))))
    D, _ = dtheta_matrix(pair, StepFunction(base="linear"))
    assert np.max(np.abs(D - np.diag(pair.diagonal(True)))) <= 1e-10


def test_constant_function_gives_zero():
    D, _ = dtheta_matrix(BoxPair(16, LatticeModel.single_site(2.0)), StepFunction(l_minus=3.0))
    assert np.max(np.abs(D)) <= 1e-12


def test_jump_collision_error():
    with pytest.raises(JumpCollisionError):
        _nudged(unit_step(), lambda loc: 0.0, 0)


# ---------------------------------------------------------------------------
# box pairs and dtheta matrices


def test_box_requires_fitting_support():
    with pytest.raises(ValueError):
        BoxPair(8, LatticeModel({10: 1.0}))


def test_dtheta_zero_potential():
    D, _ = dtheta_matrix(BoxPair(64, LatticeModel()), unit_step())
    assert np.max(np.abs(D)) <= 1e-12


def test_dtheta_norm_bound():
    model = LatticeModel.single_site(2.0)
    theta = unit_step()
    D, info = dtheta_matrix(BoxPair(128, model), theta)
    norm = np.max(np.abs(np.linalg.eigvalsh(D)))
    assert norm <= 2.0 * info["sup_theta"] + 1e-12


def test_dtheta_nudges_on_collision():
    # odd box: the free spectrum contains 0 exactly, colliding with the jump
    model = LatticeModel.single_site(2.0)
    D, info = dtheta_matrix(BoxPair(65, model), unit_step(), seed=4)
    assert info["nudges"]
    assert all(abs(v) <= 1e-8 for v in info["nudges"].values())
    assert np.isfinite(D).all()


def test_dtheta_frozen_ladder():
    # dense-eigensolver oracle for v=2, unit step at 0:
    # N=512: 0.553272, N=1024: 0.566819, N=2048: 0.578608 (limit sqrt(2)/2)
    model = LatticeModel.single_site(2.0)
    theta = unit_step()
    tops = []
    for N in (512, 1024):
        D, _ = dtheta_matrix(BoxPair(N, model), theta)
        tops.append(float(np.max(np.abs(np.linalg.eigvalsh(D)))))
    assert tops[0] == pytest.approx(0.553272, abs=1e-5)
    assert tops[1] == pytest.approx(0.566819, abs=1e-5)
    assert tops[0] < tops[1] < math.sqrt(2.0) / 2.0


def test_smooth_theta_top_eigenvalues_stabilize():
    # compact case: the top eigenvalues converge instead of filling a band;
    # at these sizes they are N-independent to 6 digits (oracle: 0.400249)
    model = LatticeModel.single_site(2.0)
    theta = StepFunction(base="smooth")
    tops = []
    for N in (256, 512):
        D, _ = dtheta_matrix(BoxPair(N, model), theta)
        ev = np.sort(np.abs(np.linalg.eigvalsh(D)))[::-1]
        tops.append(ev[:2])
    assert np.max(np.abs(tops[0] - tops[1])) <= 1e-5
    assert tops[1][0] == pytest.approx(0.400249, abs=1e-4)


# ---------------------------------------------------------------------------
# the contour-factor route against dense eigvalsh(dtheta_matrix)

THREE_SITES = {-1: 0.7, 0: -1.3, 1: 0.4}


def _assert_factor_matches_dense(N, model, theta, seed=0):
    pair = BoxPair(N, model)
    ef, _, info = dtheta_eigenpairs(pair, theta, seed=seed)
    D, dense_info = dtheta_matrix(pair, theta, seed=seed)
    ed = np.linalg.eigvalsh(D)
    assert info["route"] == "contour-factor"
    assert info["nudges"] == dense_info["nudges"]
    assert ef.shape == (N,)
    assert np.max(np.abs(ef - ed)) <= 1e-12
    assert info["trace_defect"] <= 1e-10
    assert np.count_nonzero(ef) <= info["factor_rank"]
    return ef, ed, info


@pytest.mark.parametrize("N, sites, jumps", [
    (64, {0: 2.0}, ((0.0, 1.0),)),
    (1024, {0: 2.0}, ((0.0, 1.0),)),
    (4096, {0: 2.0}, ((0.0, 1.0),)),
    (512, {0: 2.0}, ((-0.5, 1.0), (0.8, 1.0))),
    (512, THREE_SITES, ((-0.5, 1.0), (0.8, -0.7))),
    # spread sites of mixed size
    (675, {-1: 1.5, 4: -1.32, -2: -0.09, -4: 2.88}, ((0.16, 0.77), (0.85, 0.57))),
], ids=["single-64", "single-1024", "single-4096", "single-two-jumps", "three-sites-two-jumps",
        "four-spread-sites-two-jumps"])
def test_factor_route_matches_dense_eigvalsh(N, sites, jumps):
    model, theta = LatticeModel(sites), StepFunction(jumps=jumps)
    ef, ed, info = _assert_factor_matches_dense(N, model, theta)
    # from N = 512 the low-rank core certifies its basis; at N = 64 a basis
    # of N / 4 = 16 columns cannot hold the spectrum, so it falls back
    if N >= 512:
        assert info["fallback"] is False
        assert info["residual_bound"] <= N * np.finfo(float).eps * np.max(np.abs(ef))
    else:
        assert info["fallback"] is True and info["factor_rank"] == N
    scats = [smatrix(model, loc) for loc, _ in jumps]
    bands = band_prediction(theta, scats)
    fac, den = band_filling_report(ef, bands), band_filling_report(ed, bands)
    assert fac["nonzero_count"] == den["nonzero_count"]
    assert fac["n_outside"] == den["n_outside"]


def test_factor_route_nudges_like_dense():
    # odd box: the free spectrum contains the jump at 0 exactly
    _, _, info = _assert_factor_matches_dense(65, LatticeModel.single_site(2.0), unit_step(),
                                              seed=4)
    assert info["nudges"]


def test_factor_route_measures_each_jump_once(monkeypatch):
    # one distance to the spectrum of H; the free one is in closed form.
    # N = 1024 is even, so the free spectrum misses the jump at 0 and
    # nothing is nudged
    import sho_spectra.dtheta as dtheta_module
    original, calls = dtheta_module.eigvalsh_tridiagonal, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dtheta_module, "eigvalsh_tridiagonal", counted)
    _, _, info = dtheta_eigenpairs(BoxPair(1024, LatticeModel.single_site(2.0)), unit_step())
    assert info["route"] == "contour-factor" and not info["nudges"]
    assert len(calls) == 1


def test_free_distance_matches_tridiagonal_eigenvalues():
    from scipy.linalg import eigvalsh_tridiagonal
    rng = np.random.default_rng(11)
    for N in (8, 9, 64, 1025):
        w0 = eigvalsh_tridiagonal(np.zeros(N), np.ones(N - 1))
        for x in np.concatenate([rng.uniform(-2.5, 2.5, 20), w0[:2], w0[-2:], [-2.0, 0.0, 2.0]]):
            assert _free_distance(N, x) == pytest.approx(np.min(np.abs(w0 - x)), abs=1e-14)
            # on a level (the w0 points, 0 for odd N) either side is right:
            # jumps closer than JUMP_TOL to a level are nudged or rejected
            counts = {np.count_nonzero(w0 > x), np.count_nonzero(w0 >= x - 1e-14)}
            assert _free_count_above(N, x) in counts


# ---------------------------------------------------------------------------
# Zolotarev's approximant to sign on [ell, 1]


@pytest.mark.parametrize("ell", [0.3, 1e-2, 1e-4, 1e-8, 1e-12])
def test_zolotarev_squares_match_mpmath(ell):
    import mpmath
    with mpmath.workdps(40):
        m = 1 - mpmath.mpf(ell) ** 2
        Kp = mpmath.ellipk(m)
        c = _zolotarev_squares(ell)
        n = c.size + 1
        ref = [float(mpmath.mpf(ell) ** 2 * mpmath.ellipfun("sc", i * Kp / n, m) ** 2)
               for i in range(1, n)]
    assert np.max(np.abs(c / ref - 1.0)) <= 2e-14
    # the reflection c_i c_{2r+1-i} = ell^2
    assert np.max(np.abs(c * c[::-1] / ell ** 2 - 1.0)) <= 1e-15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_ell=st.floats(math.log(1e-12), math.log(0.5)))
def test_zolotarev_sign_error_is_small(log_ell):
    ell = math.exp(log_ell)
    odd, a, M, error = _zolotarev(ell)
    assert 0.0 <= error <= 1e-13
    assert np.all(a > 0.0) and np.all(np.diff(odd) > 0.0)
    # a dense sample of [ell, 1], independent of the extremal points
    x = np.geomspace(ell, 1.0, 50 * (2 * odd.size + 1))
    Z = M * x * (1.0 + np.sum(a / (x[:, None] ** 2 + odd), axis=1))
    assert np.max(np.abs(1.0 - Z)) <= 1e-13


def test_c9_pole_counts():
    counts = []
    for N in (1024, 2048, 4096):
        _, _, info = dtheta_eigenpairs(BoxPair(N, LatticeModel.single_site(2.0)), unit_step())
        assert info["sign_error"] <= 1e-13
        counts.append(info["nodes"])
    assert counts == sorted(counts) and counts[-1] <= 45


@pytest.mark.parametrize("N, offset, seed", [(1024, 1e-9, 0), (1025, 0.0, 4)],
                         ids=["free-level-plus-1e-9", "nudged"])
def test_factor_route_matches_dense_at_tiny_gaps(N, offset, seed):
    # a jump 1e-9 above a free energy, and a jump on a free energy that the
    # seed nudges by 9.5e-9: ell ~ 1e-10 takes 77-86 poles against 34
    loc = 2.0 * math.cos(math.pi * (N // 2) / (N + 1)) + offset
    _, _, info = _assert_factor_matches_dense(N, LatticeModel.single_site(2.0),
                                              StepFunction(jumps=((loc, 1.0),)), seed=seed)
    assert bool(info["nudges"]) is (offset == 0.0)
    assert 45 < info["nodes"] <= 100 and info["sign_error"] <= 1e-13


def test_factor_route_zero_potential_has_rank_zero():
    evals, _, info = dtheta_eigenpairs(BoxPair(64, LatticeModel()), unit_step())
    assert info["factor_rank"] == 0
    assert info["trace_defect"] == 0.0
    assert np.all(evals == 0.0) and evals.shape == (64,)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(N=st.integers(16, 300),
       sites=st.dictionaries(st.integers(-3, 3), st.floats(0.2, 2.5) | st.floats(-2.5, -0.2),
                             min_size=1, max_size=3),
       jumps=st.lists(st.tuples(st.floats(-1.9, 1.9), st.floats(0.2, 2.0),
                                st.sampled_from([-1.0, 1.0])),
                      min_size=1, max_size=2, unique_by=lambda j: round(j[0], 3)))
def test_factor_route_matches_dense_property(N, sites, jumps):
    theta = StepFunction(jumps=tuple((loc, sign * size) for loc, size, sign in jumps))
    _assert_factor_matches_dense(N, LatticeModel(sites), theta)


@pytest.mark.parametrize("N", [256, 1024])
def test_factor_route_eigenvectors_match_dense(N):
    # N = 256 takes the dense fallback in H0 modes, N = 1024 the Ritz vectors
    pair = BoxPair(N, LatticeModel(THREE_SITES))
    theta = StepFunction(jumps=((-0.5, 1.0), (0.8, -0.7)))
    evals, evecs, info = dtheta_eigenpairs(pair, theta, vectors=True)
    D, _ = dtheta_matrix(pair, theta)
    assert info["fallback"] is (N == 256)
    assert evecs.shape == (N, info["factor_rank"]) == (N, evals.size)
    assert np.max(np.abs(evecs.T @ evecs - np.eye(evals.size))) <= 1e-12
    assert np.max(np.linalg.norm(D @ evecs - evecs * evals, axis=0)) <= 1e-12


def test_factor_route_is_matrix_free():
    # one N x N float64 array at N = 4096 is 134 MB; tracemalloc sees numpy
    # arrays, not LAPACK workspaces
    import tracemalloc
    pair = BoxPair(4096, LatticeModel.single_site(2.0))
    tracemalloc.start()
    try:
        dtheta_eigenpairs(pair, unit_step())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


# ---------------------------------------------------------------------------
# continuous bases: the window block on the contour-factor route

TWO_JUMPS = ((-0.5, 1.0), (0.8, -0.7))


@pytest.mark.parametrize("N", [512, 2048])
@pytest.mark.parametrize("jumps", [(), TWO_JUMPS], ids=["no-jump", "two-jumps"])
@pytest.mark.parametrize("base", ["smooth", "tanh-window", "linear"])
def test_factor_route_matches_dense_for_continuous_bases(base, jumps, N):
    ef, _, info = _assert_factor_matches_dense(N, LatticeModel(THREE_SITES),
                                               StepFunction(jumps=jumps, base=base))
    assert info["fallback"] is False
    assert info["residual_bound"] <= N * np.finfo(float).eps * np.max(np.abs(ef))
    assert (info["nodes"] > 0) == bool(jumps)
    # tanh-window needs Chebyshev degree ~250, so at N = 512 the window is the box
    if (base, N) == ("tanh-window", 512):
        assert info["window"] == N
    else:
        assert 0 < info["window"] < N


def test_linear_base_gives_the_potential():
    # theta(x) = x: D = V, whose nonzero spectrum is the potential values
    ef, _, info = dtheta_eigenpairs(BoxPair(1024, LatticeModel(THREE_SITES)),
                                    StepFunction(base="linear"))
    nonzero = ef[np.abs(ef) > 1e-12]
    assert np.max(np.abs(nonzero - np.sort(list(THREE_SITES.values())))) <= 1e-12
    assert info["trace_defect"] <= 1e-12


def test_smooth_base_spectrum_is_local():
    # no jump: D is a block on a window of about 2m sites, so the box size
    # only adds exact zeros
    model, theta = LatticeModel(THREE_SITES), StepFunction(base="smooth")
    ef, _, info = dtheta_eigenpairs(BoxPair(16384, model), theta)
    ed = np.linalg.eigvalsh(dtheta_matrix(BoxPair(512, model), theta)[0])
    assert info["window"] < 512
    top = [np.sort(e[np.argsort(-np.abs(e))[:8]]) for e in (ef, ed)]
    assert np.max(np.abs(top[0] - top[1])) <= 1e-12


def test_smooth_base_factor_route_is_matrix_free():
    # one N x N float64 array at N = 4096 is 134 MB; the dense route peaks
    # near 670 MB.  The 35 MB peak holds the Cauchy matrix of the 92
    # Zolotarev poles of the two jumps (6 MB), the window rows (6 MB) and
    # the Ritz basis Q and A Q at rank 160 (10.5 MB)
    import tracemalloc
    pair = BoxPair(4096, LatticeModel(THREE_SITES))
    tracemalloc.start()
    try:
        _, _, info = dtheta_eigenpairs(pair, StepFunction(jumps=TWO_JUMPS, base="smooth"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["window"] < 4096 and info["fallback"] is False
    assert peak < 48e6


@pytest.mark.parametrize("W", [1, 2, 65, 640])
def test_free_modes_are_the_free_box_eigensystem(W):
    w0, U0 = _free_modes(W, np.arange(W))
    H0 = np.eye(W, k=1) + np.eye(W, k=-1)
    assert np.max(np.abs(U0 @ U0.T - np.eye(W))) <= 1e-14
    assert np.max(np.abs(H0 @ U0 - U0 * w0)) <= 1e-14


@pytest.mark.parametrize("W", [1, 2, 65, 640])
def test_free_function_is_the_sine_sandwich(W):
    # Toeplitz minus Hankel from one DCT-I against U0 diag(f(w0)) U0^T, for
    # a smooth base and for values with no structure at all
    w0, U0 = _free_modes(W, np.arange(W))
    values = np.random.default_rng(W).standard_normal(W)
    for f in (StepFunction((), "smooth", 0.25), lambda w: values):
        ref = (U0 * f(w0)) @ U0.T
        got = _free_function(W, f)
        assert got.shape == (W, W)
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def _window_block_through_dtheta_matrix(pair, theta):
    # the window block as dtheta_matrix of the base alone on the W-box, where
    # both eigensystems come from eigh_tridiagonal
    Dw, phiW = _window_block(pair, theta)
    base = StepFunction((), theta.base, theta.l_minus)
    return dtheta_matrix(BoxPair(Dw.shape[0], pair.model), base)[0], phiW


@pytest.mark.parametrize("N", [512, 2048])
@pytest.mark.parametrize("base", ["smooth", "tanh-window"])
def test_window_block_matches_dtheta_matrix_of_the_base(base, N):
    pair = BoxPair(N, LatticeModel(THREE_SITES))
    theta = StepFunction(TWO_JUMPS, base, l_minus=0.25)
    Dw, _ = _window_block(pair, theta)
    ref, _ = _window_block_through_dtheta_matrix(pair, theta)
    assert np.max(np.abs(Dw - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def _no_eigh_tridiagonal(*args, **kwargs):
    raise AssertionError("eigh_tridiagonal called on the contour-factor route")


@pytest.mark.parametrize("N", [512, 2048])
@pytest.mark.parametrize("base", ["smooth", "tanh-window"])
def test_window_route_runs_without_eigh_tridiagonal(base, N, monkeypatch):
    # scipy's LAPACK with eigenvectors wakes the thread pool of scipy's own
    # OpenBLAS, which then slows numpy's GEMMs; the route must not call it.
    # The reference spectrum takes the window block through dtheta_matrix;
    # by Weyl the two spectra differ by at most both residual bounds plus
    # the 2-norm of the gap between the blocks
    import sho_spectra.dtheta as dtheta_module
    pair, theta = BoxPair(N, LatticeModel(THREE_SITES)), StepFunction(TWO_JUMPS, base)
    with monkeypatch.context() as patch:
        patch.setattr(dtheta_module, "_window_block", _window_block_through_dtheta_matrix)
        ref, _, ref_info = dtheta_eigenpairs(pair, theta)
    gap = np.linalg.norm(_window_block(pair, theta)[0]
                         - _window_block_through_dtheta_matrix(pair, theta)[0], 2)
    monkeypatch.setattr(dtheta_module, "eigh_tridiagonal", _no_eigh_tridiagonal)
    ef, _, info = dtheta_eigenpairs(pair, theta)
    assert info["window"] is not None and info["fallback"] is False
    assert np.max(np.abs(ef - ref)) <= info["residual_bound"] + ref_info["residual_bound"] + gap
    assert info["trace_defect"] <= 1e-12


# ---------------------------------------------------------------------------
# band prediction and jump operators


def test_band_prediction_reflection():
    th = unit_step()
    sd = make_scattering(0.0, np.diag([-1.0, 1.0]))
    bands = band_prediction(th, [sd])
    assert bands.entries == ((1.0, 1),)


def test_band_prediction_drops_identity():
    th = unit_step()
    sd = make_scattering(0.0, np.eye(2))
    bands = band_prediction(th, [sd])
    assert bands.entries == ()
    assert bands.max_half_width == 0.0


def test_band_prediction_phase():
    th = StepFunction(jumps=((0.0, 2.0),))
    sd = make_scattering(0.0, np.diag([1j, 1.0]))
    bands = band_prediction(th, [sd])
    assert bands.entries[0][0] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_band_prediction_requires_matching_data():
    th = unit_step()
    sd = make_scattering(0.5, np.eye(2))
    with pytest.raises(ValueError):
        band_prediction(th, [sd])
    with pytest.raises(ValueError):
        band_prediction(th, [])


def test_model_jump_operator_identity_scattering():
    sd = make_scattering(0.0, np.eye(2))
    K = model_jump_operator(1.0, sd)
    assert np.max(np.abs(K)) == 0.0


def test_model_jump_operator_single_site():
    model = LatticeModel.single_site(2.0)
    sd = smatrix(model, 0.0)
    K = model_jump_operator(1.0, sd)
    s = np.linalg.svd(K, compute_uv=False)
    assert s[0] / 2.0 == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    assert s[1] / 2.0 <= 1e-12


def test_jump_operator_consistency_triangle():
    model = LatticeModel.single_site(2.0)
    theta = unit_step()
    scats = [smatrix(model, 0.0)]
    assert jump_operator_consistency(theta, scats) <= 1e-12


def test_singular_values_invariant_under_basis_change():
    model = LatticeModel.single_site(1.3)
    sd = smatrix(model, 0.4)
    K = model_jump_operator(2.0, sd)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Q, _ = np.linalg.qr(X)
    s1 = np.linalg.svd(K, compute_uv=False)
    s2 = np.linalg.svd(Q @ K @ Q.conj().T, compute_uv=False)
    assert np.max(np.abs(s1 - s2)) <= 1e-12


# ---------------------------------------------------------------------------
# reports


def test_band_filling_zero_potential():
    model = LatticeModel()
    theta = unit_step()
    sd = smatrix(LatticeModel.single_site(2.0), 0.0)
    bands = band_prediction(theta, [sd])
    D, _ = dtheta_matrix(BoxPair(64, model), theta)
    rep = band_filling_report(np.linalg.eigvalsh(D), bands)
    assert rep["max_abs_eig"] <= 1e-12
    assert rep["n_outside"] == 0
    assert rep["nonzero_count"] == 0


def test_ladder_report_two_jumps():
    model = LatticeModel.single_site(2.0)
    theta = StepFunction(jumps=((-0.5, 1.0), (0.8, 1.0)))
    rep = ladder_report(model, theta, [128, 256])
    assert rep["consistency_gap"] <= 1e-12
    assert len(rep["bands"].entries) >= 2
    # this configuration carries a genuine eigenvalue outside the bands near
    # 1.05; it converges from above instead of filling a band
    assert rep["max_eig_ladder"][1] < rep["max_eig_ladder"][0]
    assert rep["max_eig_ladder"][1] == pytest.approx(1.048082, abs=1e-4)
    top = rep["rungs"][-1]
    assert top["nonzero_count"] >= rep["rungs"][0]["nonzero_count"]
    assert top["nonzero_count"] >= 4


def test_ladder_report_single_site():
    model = LatticeModel.single_site(2.0)
    rep = ladder_report(model, unit_step(), [128, 256, 512])
    a1 = math.sqrt(2.0) / 2.0
    assert rep["bands"].entries[0][0] == pytest.approx(a1, abs=1e-12)
    ladder = rep["max_eig_ladder"]
    assert ladder[0] < ladder[1] < ladder[2] < a1
    assert all(n <= 5 for n in rep["outside_ladder"])


# ---------------------------------------------------------------------------
# evolution


def _window_state(pair, window):
    w0, U0 = pair.eigensystem(False)
    chi = ((w0 >= window[0]) & (w0 <= window[1])).astype(float)
    delta = np.zeros(pair.N)
    delta[pair.N // 2] = 1.0
    f = U0 @ (chi * (U0.T @ delta))
    return f / np.linalg.norm(f)


def test_evolution_initial_window_mass_without_projection():
    model = LatticeModel.single_site(2.0)
    pair = BoxPair(128, model)
    window = (0.8, 1.5)
    f = _window_state(pair, window)
    out = evolution_localization(pair, unit_step(), f, [window], [0.0], eps0=0.0)
    assert out["curves"][0]["mass"][0] == pytest.approx(1.0, rel=1e-10)


def test_evolution_far_window_mass_decreases():
    model = LatticeModel.single_site(2.0)
    pair = BoxPair(256, model)
    window = (0.8, 1.5)
    f = _window_state(pair, window)
    short = _mean_window_mass(pair, f, window, 10.0)
    long = _mean_window_mass(pair, f, window, 1000.0)
    assert long < short


def _mean_window_mass(pair, f, window, horizon):
    """Mean window mass under the unit step over 32 times in [horizon, 2 horizon]."""
    times = np.linspace(horizon, 2.0 * horizon, 32)
    return float(np.mean(evolution_localization(pair, unit_step(), f, [window], times)
                         ["curves"][0]["mass"]))


def _assert_evolution_matches_dense(N, theta, monkeypatch):
    pair = BoxPair(N, LatticeModel(THREE_SITES))
    rng = np.random.default_rng(5)
    f = np.zeros(N)
    f[N // 2 - 16:N // 2 + 16] = rng.normal(size=32)
    f /= np.linalg.norm(f)
    windows = [(-2.0, -0.7), (0.9, 2.0)]
    times = np.linspace(0.0, 40.0, 9)
    # reference: eigh of the dense D, written in the eigh_tridiagonal basis of H0
    evals, evecs = np.linalg.eigh(dtheta_matrix(pair, theta)[0])
    w0, U0 = pair.eigensystem(False)
    ref = window_evolution(evals, U0.T @ evecs, U0.T @ f,
                           [(w0 >= lo) & (w0 <= hi) for lo, hi in windows], times)
    # the contour-factor route itself, window block included, never needs it
    import sho_spectra.dtheta as dtheta_module
    monkeypatch.setattr(dtheta_module, "eigh_tridiagonal", _no_eigh_tridiagonal)
    out = evolution_localization(pair, theta, f, windows, times)
    assert out["info"]["route"] == "contour-factor"
    assert out["projected_norm2"] == pytest.approx(ref["projected_norm2"], abs=1e-10)
    assert out["ac_proxy_dim"] == ref["ac_proxy_dim"]
    for curve, mass in zip(out["curves"], ref["masses"]):
        assert np.max(np.abs(curve["mass"] - mass)) <= 1e-10
    return out


def test_evolution_matches_dense_route(monkeypatch):
    _assert_evolution_matches_dense(256, StepFunction(jumps=((0.3, 1.2),)), monkeypatch)


def test_evolution_smooth_base_matches_dense_route(monkeypatch):
    out = _assert_evolution_matches_dense(1024, StepFunction(jumps=((0.3, 1.2),), base="smooth"),
                                          monkeypatch)
    assert out["info"]["window"] < 1024


def test_evolution_smooth_theta_flagged():
    model = LatticeModel.single_site(2.0)
    pair = BoxPair(128, model)
    window = (0.8, 1.5)
    f = _window_state(pair, window)
    out = evolution_localization(pair, StepFunction(base="smooth"), f, [window], [0.0])
    assert out["no_jump_case"] is True
