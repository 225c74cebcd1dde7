import functools
import math

import numpy as np
import pytest
from scipy.linalg import hilbert
from hypothesis import given, settings, strategies as st

from sho_spectra import dtheta, sho
from sho_spectra.sho import (
    HermitianTruncation,
    PiecewiseSymbol,
    SpectralBands,
    WeightQ,
    assemble_sho_circle,
    block_hat_K,
    cayley_angle,
    cayley_transport,
    compactness_refinement,
    fourier_coefficients,
    hat_K_eigenvectors,
    line_coordinate,
    localization_evolution,
    log_model_symbol,
    model_symbol,
    predict_bands,
    q0_weight,
    sandwich_singular_values,
    sawtooth_symbol,
    smooth_bump_symbol,
    symbol_difference,
    _phase_rotated_real,
    _sample_angles,
    _to_samples,
)
from sho_spectra.scattering1d import LatticeModel, smatrix
from sho_spectra.specfun import zeta_kernel

# ---------------------------------------------------------------------------
# symbols


def test_symbol_validation():
    with pytest.raises(ValueError):
        PiecewiseSymbol("disk")
    with pytest.raises(ValueError):
        sawtooth_symbol([(0.0, 1.0), (0.0, 2.0)])          # duplicate locations
    with pytest.raises(ValueError):
        sawtooth_symbol([(0.0, 0.0)])                       # zero jump
    with pytest.raises(ValueError):
        PiecewiseSymbol("line", jumps=((0.0, 1.0),), carrier="sawtooth")
    with pytest.raises(ValueError):
        model_symbol(0.0)


def test_sawtooth_jump_and_mean():
    sym = sawtooth_symbol([(math.pi, 1.0)])
    eps = 1e-9
    up = sym.values(math.pi + eps)[0]
    dn = sym.values(math.pi - eps)[0]
    assert (up - dn).real == pytest.approx(1.0, abs=1e-6)
    assert abs(sym.values(math.pi)[0]) <= 1e-12             # two-sided mean


def test_zeta_model_jump_matches_kernel():
    sym = model_symbol(2.0, lam0=0.5)
    lam = np.array([0.5 - 1e-9, 0.5 + 1e-9, 3.0])
    vals = sym.values(lam)
    assert (vals[1] - vals[0]).real == pytest.approx(2.0, abs=1e-6)
    assert vals[2] == pytest.approx(2.0 * zeta_kernel(2.5), abs=1e-14)
    # decay: |Xi(lam)| <= C/|lam - lam0| away from the jump
    far = np.geomspace(1.0, 100.0, 20)
    decay = np.abs(sym.values(0.5 + far)) * far
    assert np.max(decay) <= 2.0


# ---------------------------------------------------------------------------
# Fourier coefficients


def test_constant_symbol_coefficients():
    sym = PiecewiseSymbol("circle", continuous_part=lambda phi: 3.0 + 0.0 * phi)
    c = fourier_coefficients(sym, 8)
    assert c[8] == pytest.approx(3.0, abs=1e-12)
    c[8] = 0.0
    assert np.max(np.abs(c)) <= 1e-12


def test_sawtooth_coefficients_closed_form():
    sym = sawtooth_symbol([(0.0, 1.0)])
    M = 64
    c = fourier_coefficients(sym, M)
    n = np.arange(-M, M + 1)
    expect = np.where(n == 0, 0.0, 1.0 / (2.0j * math.pi * np.where(n == 0, 1, n)))
    assert np.max(np.abs(c - expect)) <= 1e-6


def test_single_mode_symbol():
    sym = PiecewiseSymbol("circle", continuous_part=lambda phi: np.exp(-1j * phi))
    c = fourier_coefficients(sym, 4)
    assert c[3] == pytest.approx(1.0, abs=1e-12)     # c[-1] sits at index -1 + 4
    c[3] = 0.0
    assert np.max(np.abs(c)) <= 1e-12


# ---------------------------------------------------------------------------
# truncations


def test_constant_symbol_annihilated():
    sym = PiecewiseSymbol("circle", continuous_part=lambda phi: 1.0 + 0.0 * phi)
    T = assemble_sho_circle(sym, 8)
    assert np.max(np.abs(T.matrix)) <= 1e-12


def test_analytic_symbol_annihilated():
    sym = PiecewiseSymbol("circle",
                          continuous_part=lambda phi: 1.0 + 3.0 * np.exp(1j * phi) + np.exp(2j * phi))
    T = assemble_sho_circle(sym, 16)
    assert np.max(np.abs(T.matrix)) <= 1e-12


def test_single_negative_mode_truncation():
    sym = PiecewiseSymbol("circle", continuous_part=lambda phi: np.exp(-1j * phi))
    T = assemble_sho_circle(sym, 2)
    ev = T.eigenvalues(method="eigh")
    assert np.allclose(np.sort(ev), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_truncation_hermitian_and_symmetric_spectrum():
    sym = sawtooth_symbol([(1.0, 1.0), (4.0, 0.5)])
    T = assemble_sho_circle(sym, 64)
    M = T.matrix
    assert np.array_equal(M, M.conj().T)
    ev = T.eigenvalues(method="eigh")
    assert np.max(np.abs(np.sort(ev) + np.sort(-ev)[::-1])) <= 1e-10


def test_svd_and_eigh_spectra_agree():
    sym = sawtooth_symbol([(2.0, 1.5)])
    T = assemble_sho_circle(sym, 48)
    a = np.sort(T.eigenvalues(method="eigh"))
    b = np.sort(T.eigenvalues(method="svd"))
    assert np.max(np.abs(a - b)) <= 1e-10


def test_sawtooth_ladder_frozen_values():
    # dense-eigensolver oracle values (exact-coefficient run):
    # N=256: 0.366663, N=512: 0.378679, N=1024: 0.389176; limit is 1/2
    sym = sawtooth_symbol([(0.0, 1.0)])
    tops = []
    for N in (256, 512, 1024):
        ev = assemble_sho_circle(sym, N).eigenvalues(method="svd")
        tops.append(float(np.max(ev)))
    assert tops[0] == pytest.approx(0.366663, abs=2e-4)
    assert tops[1] == pytest.approx(0.378679, abs=2e-4)
    assert tops[2] == pytest.approx(0.389176, abs=2e-4)
    assert tops[0] < tops[1] < tops[2] < 0.5


def test_matrix_symbol_truncation():
    K = np.array([[1.0, 0.5], [0.0, 1.0]])
    sym = sawtooth_symbol([(math.pi, K)], dim=2)
    T = assemble_sho_circle(sym, 16)
    assert T.size == 64
    M = T.matrix
    assert np.array_equal(M, M.conj().T)
    ev = T.eigenvalues(method="eigh")
    assert np.max(np.abs(np.sort(ev) + np.sort(-ev)[::-1])) <= 1e-10


@pytest.mark.parametrize("shape, N, dim", [((7,), 4, 1), ((7, 2, 2), 4, 2), ((1, 3, 3), 1, 3)])
def test_truncation_reads_size_off_its_coefficients(shape, N, dim):
    T = HermitianTruncation(np.ones(shape, dtype=complex))
    assert (T.N, T.dim, T.size, T.jump_locations) == (N, dim, 2 * N * dim, ())
    assert T.matrix.shape == (T.size, T.size)


@pytest.mark.parametrize("h", [np.arange(1, 7) + 0j, np.ones((7, 2, 3)), np.ones(0), np.ones((7, 2))])
def test_truncation_refuses_malformed_coefficients(h):
    # an even length would drop its last coefficient; blocks must be square
    with pytest.raises(ValueError, match="hankel_coeffs must have shape"):
        HermitianTruncation(h)


def test_diagonal_matrix_difference_is_its_scalar_differences():
    # a diagonal jump K splits the dim-2 line-minus-circle difference into
    # the two scalar ones, entry by entry, through the same code path
    K, lam0 = np.diag([1.0, -0.5 + 0.2j]), 0.3

    def difference(K):
        circle = sawtooth_symbol([(cayley_angle(lam0), K)], dim=len(np.atleast_2d(K)))
        return symbol_difference(circle, cayley_transport(model_symbol(K, lam0)))

    def uncancelled(K):
        # jumps that do not cancel are kept: the remainder, the other side's negated
        dim = len(np.atleast_2d(K))
        return symbol_difference(sawtooth_symbol([(0.0, K)], dim=dim),
                                 sawtooth_symbol([(0.0, 2 * K), (1.0, K)], dim=dim)).jumps

    matrix, scalars = difference(K), [difference(k) for k in np.diag(K)]
    assert matrix.jumps == () and all(s.jumps == () for s in scalars)
    kept, kept_scalar = uncancelled(K), [uncancelled(k) for k in np.diag(K)]
    assert [loc for loc, _ in kept] == [0.0, 1.0]
    for (_, Kj), parts in zip(kept, zip(*kept_scalar)):
        assert np.array_equal(Kj, -K) and np.array_equal(np.diag(Kj), [k for _, k in parts])
        assert all(type(k) is complex for _, k in parts)
    phi = np.linspace(0.0, 2.0 * math.pi, 257)
    T, Ts = assemble_sho_circle(matrix, 64), [assemble_sho_circle(s, 64) for s in scalars]
    for got, parts in ((matrix.values(phi), [s.values(phi) for s in scalars]),
                       (T.hankel_coeffs, [t.hankel_coeffs for t in Ts])):
        assert np.array_equal(got[:, [0, 1], [0, 1]], np.stack(parts, axis=1))
        assert not np.any(got[:, [0, 1], [1, 0]])
    union = np.sort(np.concatenate([t.eigenvalues() for t in Ts]))
    assert np.max(np.abs(T.eigenvalues() - union)) <= 1e-15


# ---------------------------------------------------------------------------
# eigensolver routes


@pytest.mark.parametrize("N", [64, 256, 512])
@pytest.mark.parametrize("K", [1.0, -0.7, 1.3 * np.exp(0.9j)], ids=["K1", "Kneg", "Kcomplex"])
def test_sawtooth_spectrum_is_hilbert_oracle(N, K):
    # rows reversed, the one-jump block is (i K / 2 pi) times the Hilbert matrix
    from scipy.linalg import hilbert
    s = abs(K) * np.linalg.svd(hilbert(N), compute_uv=False) / (2 * math.pi)
    expected = np.sort(np.concatenate([-s, s]))
    T = assemble_sho_circle(sawtooth_symbol([(0.0, K)]), N)
    ev, route, _ = T.solve()
    assert route == "real-hankel-lowrank"
    assert np.max(np.abs(ev - expected)) <= 1e-12


@pytest.mark.parametrize("symbol, route", [
    (sawtooth_symbol([(0.0, 2.0), (math.pi, -1.0)]), "real-hankel-lowrank"),
    (sawtooth_symbol([(2.0, 1.0 + 0.5j)]), "hankel-lowrank"),
    (sawtooth_symbol([(1.0, np.array([[1.0, 0.5j], [0.2, -1.0]]))], dim=2), "hankel-lowrank"),
    (model_symbol(1.0 - 0.3j, 0.4), "hankel-lowrank"),
], ids=["two-jump", "complex-jump", "dim-2", "zeta-model"])
def test_structured_route_matches_dense_eigh(symbol, route):
    T = assemble_sho_circle(symbol, 96)
    ev, got, _ = T.solve()
    dense, dense_route, _ = T.solve("eigh")
    assert (got, dense_route) == (route, "dense-eigh")
    assert np.max(np.abs(ev - dense)) <= 1e-10


def test_single_phase_matrix_jump_takes_real_svd(monkeypatch):
    # real arithmetic halves the work of the complex products
    K = (0.3 - 0.4j) * np.array([[1.0, 2.0], [2.0, -1.0]])
    T = assemble_sho_circle(sawtooth_symbol([(0.0, K)], dim=2), 32)
    dtypes, lowrank = [], sho._lowrank_eigenvalues

    def core(product, n, dtype, **kw):
        dtypes.append(dtype)
        return lowrank(product, n, dtype, **kw)

    monkeypatch.setattr(sho, "_lowrank_eigenvalues", core)
    ev, route, _ = T.solve()
    assert route == "hankel-lowrank" and dtypes == [np.float64]
    assert np.max(np.abs(ev - T.eigenvalues("eigh"))) <= 1e-10


def test_unknown_eigen_method_rejected():
    T = assemble_sho_circle(sawtooth_symbol([(0.0, 1.0)]), 8)
    for method in ("lanczos", "auto"):
        with pytest.raises(ValueError):
            T.eigenvalues(method)


# ---------------------------------------------------------------------------
# the matrix-free real-Hankel solver

EPS = np.finfo(float).eps


def dense_hankel_singular_values(h):
    """Singular values of H[p, q] = h[p + q] (scalars or d x d blocks),
    built densely by fancy indexing, descending."""
    N = (len(h) + 1) // 2
    H = h[np.add.outer(np.arange(N), np.arange(N))]          # (N, N) or (N, N, d, d)
    if h.ndim == 3:
        H = H.transpose(0, 2, 1, 3).reshape(N * h.shape[1], N * h.shape[1])
    if np.isrealobj(H) and np.array_equal(H, H.T):
        # a real symmetric matrix: |eigenvalues|, several times cheaper than an SVD
        return np.sort(np.abs(np.linalg.eigvalsh(H)))[::-1]
    return np.linalg.svd(H, compute_uv=False)


def hankel_truncation(h):
    """The truncation whose block B has the block-row reversal H[p, q] = h[p + q]."""
    return HermitianTruncation(np.asarray(h))


def singular_values(T):
    """(singular values of B, descending, route, health) from T.solve()."""
    ev, route, health = T.solve()
    return ev[T.size // 2:][::-1], route, health


def assert_matches_dense(T, s, health):
    # the phase rotation of solve keeps a real reference real (eigvalsh)
    h = _phase_rotated_real(T.hankel_coeffs)
    dense = dense_hankel_singular_values(T.hankel_coeffs if h is None else h)
    gap = float(np.max(np.abs(s - dense)))
    assert gap <= 1e-12 * max(1.0, dense[0])
    if not health["fallback"]:
        # the bound holds in exact arithmetic; both solvers also round, by a
        # few eps ||H|| (up to 4.6 eps ||H|| over 300 sums of this kind)
        assert gap <= health["residual_bound"] + math.sqrt(len(T.hankel_coeffs)) * EPS * dense[0]
    again, _, again_health = singular_values(T)
    assert np.array_equal(again, s) and again_health == health


@pytest.mark.parametrize("N", [512, 1024, 2048, 4096])
@pytest.mark.parametrize("symbol", [sawtooth_symbol([(0.0, 1.0)]),
                                    sawtooth_symbol([(0.0, 2.0), (math.pi, 1.0)])],
                         ids=["sawtooth", "two-jump"])
def test_lowrank_route_matches_dense_eigvalsh(symbol, N):
    T = assemble_sho_circle(symbol, N)
    ev, route, health = T.solve()
    assert route == "real-hankel-lowrank"
    assert not health["fallback"] and health["basis_rank"] <= N // 4
    assert health["residual_bound"] <= N * EPS * np.max(ev)
    s = dense_hankel_singular_values(_phase_rotated_real(T.hankel_coeffs))
    assert np.max(np.abs(ev - np.sort(np.concatenate([-s, s])))) <= 1e-12
    assert np.count_nonzero(ev) == 2 * health["basis_rank"]


@pytest.mark.parametrize("h, rank", [
    (np.zeros(399), 0),
    (0.9 ** np.arange(399.0), 1),
], ids=["zero", "geometric"])
def test_lowrank_exact_rank_inputs(h, rank):
    T = hankel_truncation(h)
    s, _, health = singular_values(T)
    assert not health["fallback"]
    assert np.count_nonzero(s > 1e-12) == rank
    assert_matches_dense(T, s, health)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(N=st.integers(256, 600),
       terms=st.lists(st.tuples(st.floats(0.1, 2.0), st.sampled_from([-1.0, 1.0]),
                                st.floats(0.05, 5.0)), min_size=1, max_size=3))
def test_lowrank_cauchy_hankel_sums(N, terms):
    # sum_j w_j / (p + q + a_j): numerically low rank (Beckermann-Townsend)
    k = np.arange(2 * N - 1)
    h = sum(sign * w / (k + a) for w, sign, a in terms)
    T = hankel_truncation(h)
    s, route, health = singular_values(T)
    assert route == "real-hankel-lowrank" and not health["fallback"]
    assert_matches_dense(T, s, health)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(N=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_full_rank_hankel_falls_back_to_eigvalsh(N, seed):
    h = np.random.default_rng(seed).standard_normal(2 * N - 1)
    T = hankel_truncation(h)
    s, route, health = singular_values(T)
    assert route == "real-hankel-lowrank"
    assert health["fallback"] and health["residual_bound"] is None
    assert health["basis_rank"] <= N // 4
    assert_matches_dense(T, s, health)


def test_lowrank_route_is_matrix_free():
    # one N x N float64 array at N = 4096 is 134 MB; tracemalloc sees numpy
    # arrays, not LAPACK workspaces (the no-fallback case is asserted above)
    import tracemalloc
    tracemalloc.start()
    try:
        assemble_sho_circle(sawtooth_symbol([(0.0, 1.0)]), 4096).eigenvalues()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


# ---------------------------------------------------------------------------
# the matrix-free route for every other assembled block


SINGLE_SITE_S = smatrix(LatticeModel.single_site(2.0), 0.3).S
DIM2_K = np.array([[1.0, 0.5], [0.5, -1.0]])


@functools.cache
def hilbert_singular_values(N):
    """Singular values of the N x N Hilbert matrix 1/(p + q + 1), descending."""
    return np.sort(np.abs(np.linalg.eigvalsh(hilbert(N))))[::-1]


@pytest.mark.parametrize("N", [512, 2048])
@pytest.mark.parametrize("symbol, K", [
    (sawtooth_symbol([(0.0, DIM2_K)], dim=2), DIM2_K),
    (sawtooth_symbol([(2.0, 1.0 + 0.5j)]), 1.0 + 0.5j),
    (sawtooth_symbol([(0.7, 1.0), (2.9, 0.5j)]), None),
    (model_symbol(0.3 + 0.7j, 0.5), None),
    (sawtooth_symbol([(0.0, SINGLE_SITE_S - np.eye(2))], dim=2), SINGLE_SITE_S - np.eye(2)),
], ids=["dim-2", "complex-jump", "two-complex-jumps", "zeta-model", "single-phase-S-I"])
def test_hankel_lowrank_route_matches_dense_svd(symbol, K, N):
    T = assemble_sho_circle(symbol, N)
    ev, route, health = T.solve()
    assert route == "hankel-lowrank"
    n = T.size                                      # the dilation [[0, B], [B^H, 0]]
    assert not health["fallback"] and health["basis_rank"] <= n // 4
    assert health["residual_bound"] <= n * EPS * np.max(ev)
    s = ev[T.size // 2:][::-1]
    assert np.array_equal(ev, np.sort(np.concatenate([-s, s])))
    if N == 2048 and K is not None:
        # one jump K at angle a: B is the Hilbert matrix over 2 pi, times K,
        # up to unitary phases, so its singular values are
        # s_i(Hilbert) s_j(K) / 2 pi exactly; built from K alone, this also
        # checks the assembly
        s_K = np.linalg.svd(np.atleast_2d(K), compute_uv=False)
        oracle = np.sort(np.outer(hilbert_singular_values(N), s_K).ravel())[::-1] / (2 * math.pi)
        assert np.max(np.abs(s - oracle)) <= health["residual_bound"]
    else:
        assert_matches_dense(T, s, health)


def test_multiple_eigenvalue_beyond_one_block():
    # an eigenvalue of multiplicity 24 > LOWRANK_BLOCK: one Krylov block
    # reaches only LOWRANK_BLOCK of its eigenvectors, the certificate probe
    # finds the rest; an exponential tail -0.6^k below it
    n, rng = 1024, np.random.default_rng(11)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.zeros(n)
    lam[:24], lam[24:84] = 1.0, -0.6 ** np.arange(1, 61)
    A = (U * lam) @ U.T
    A = 0.5 * (A + A.T)
    ritz, health = sho._lowrank_eigenvalues(lambda X: A @ X, n, float)
    assert not health["fallback"] and health["basis_rank"] <= n // 4
    assert np.count_nonzero(np.abs(ritz - 1.0) <= 1e-12) == 24
    ev = np.sort(np.concatenate([ritz, np.zeros(n - ritz.size)]))
    assert np.max(np.abs(ev - np.linalg.eigvalsh(A))) <= health["residual_bound"]


@pytest.mark.parametrize("symbol, N", [
    (sawtooth_symbol([(2.0, 1.0 + 0.5j)]), 2048),
    (sawtooth_symbol([(0.0, np.array([[1.0, 0.5], [0.5, -1.0]]))], dim=2), 1024),
    (model_symbol(0.3 + 0.7j, 0.5), 1024),
], ids=["complex-jump-2048", "dim-2-1024", "zeta-model-1024"])
def test_dilation_ritz_vectors_are_orthonormal(symbol, N):
    # every block that joins the basis, Krylov step or failed probe, is
    # projected against it twice: measured 2.8e-15 to 4.3e-15; one projection
    # gives 2.1e-13 at dim-2-1024 and no certificate at the other two
    T = assemble_sho_circle(symbol, N)
    (_, V), health = sho._lowrank_eigenvalues(T._product(), T.size, complex, vectors=True)
    assert not health["fallback"] and V.shape[1] == health["basis_rank"]
    assert np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1]), 2) <= 1e-14


# ---------------------------------------------------------------------------
# the core's orthonormal bases and norms


def conditioned_block(rng, cond, complex_, n=4096, k=16):
    """An n x k block with singular values logspaced from 1 down to 1/cond."""
    def gaussian(*shape):
        return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0)
    U, V = np.linalg.qr(gaussian(n, k))[0], np.linalg.qr(gaussian(k, k))[0]
    return (U * np.logspace(0, -math.log10(cond), k)) @ V.conj().T


def counting(monkeypatch, name="qr"):
    """Count the np.linalg.<name> calls made after this point."""
    calls, fn = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


def assert_orthonormal_basis_of(Q, X):
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1]), 2) <= 1e-14
    # X lies in the span of Q
    assert np.linalg.norm(X - Q @ (Q.conj().T @ X), 2) <= 1e-14 * np.linalg.norm(X, 2)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("cond", [1e4, 1e8, 1e12, 1e15])
def test_orthonormal_spans_the_block(monkeypatch, complex_, cond):
    # eight blocks each: at condition 1e15 this seed gives blocks whose
    # Cholesky factors succeed but leave the last Gram matrix far from I
    # (orthogonality 2.6e-13 without the Householder fallback)
    rng = np.random.default_rng(1)
    blocks = [conditioned_block(rng, cond, complex_) for _ in range(8)]
    calls = counting(monkeypatch)
    for X in blocks:
        Q = sho._orthonormal(X)
        assert Q.shape == X.shape and Q.dtype == X.dtype
        assert_orthonormal_basis_of(Q, X)
    if cond <= 1e12:                # past 1e13 a block may take Householder QR
        assert not calls
    assert_orthonormal_basis_of(np.linalg.qr(X)[0], X)      # the span Householder QR gives


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("cond, passes", [(None, 2), (1e4, 2), (1e5, 3), (1e8, 3), (1e12, 3)],
                         ids=["gaussian", "1e4", "1e5", "1e8", "1e12"])
def test_orthonormal_takes_choleskyqr2_where_it_is_stable(monkeypatch, complex_, cond, passes):
    # at 4096 x 16 the bound 8 kappa sqrt((n k + k (k + 1)) eps) <= 1 holds up
    # to kappa ~ 3e4; a Gaussian block has kappa ~ 1.1
    rng = np.random.default_rng(2)
    if cond is None:
        X = rng.standard_normal((4096, 16)) + (1j * rng.standard_normal((4096, 16)) if complex_ else 0)
    else:
        X = conditioned_block(rng, cond, complex_)
    calls = counting(monkeypatch, "cholesky")
    Q = sho._orthonormal(X)
    assert len(calls) == passes
    assert_orthonormal_basis_of(Q, X)


def test_orthonormal_falls_back_on_zero_and_rank_deficient_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    calls = counting(monkeypatch)
    Q = sho._orthonormal(np.zeros((4096, 16)))
    assert len(calls) == 1
    assert_orthonormal_basis_of(Q, np.zeros((4096, 16)))
    # a zero first column leaves the first column of the shifted pass zero,
    # so the next Cholesky factor fails
    X = rng.standard_normal((4096, 16))
    X[:, 0] = 0.0
    Q = sho._orthonormal(X)
    assert len(calls) == 2
    assert_orthonormal_basis_of(Q, X)
    # other rank-deficient blocks come out orthonormal by either path
    for rank in (1, 8, 15):
        X = rng.standard_normal((4096, rank)) @ rng.standard_normal((rank, 16))
        assert_orthonormal_basis_of(sho._orthonormal(X), X)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_spectral_norm_is_the_gram_norm(scale):
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((4096, 16)),
              rng.standard_normal((4096, 16)) + 1j * rng.standard_normal((4096, 16)),
              conditioned_block(rng, 1e8, False), conditioned_block(rng, 1e8, True)]
    for A in blocks:
        A = scale * A
        assert abs(sho._spectral_norm(A) - np.linalg.norm(A, 2)) <= 4 * EPS * np.linalg.norm(A, 2)
    assert sho._spectral_norm(np.zeros((64, 16))) == 0.0
    assert sho._spectral_norm(np.zeros((64, 0))) == 0.0


@pytest.mark.parametrize("symbol, route", [
    (lambda K: sawtooth_symbol([(0.0, K)]), "real-hankel-lowrank"),
    (lambda K: sawtooth_symbol([(2.0, K * (1.0 + 0.5j))]), "hankel-lowrank"),
], ids=["real", "dilation"])
def test_lowrank_spectrum_is_scale_invariant(symbol, route):
    # Gram matrices of the unscaled blocks underflow at K = 1e-160 and
    # overflow at K = 1e160
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = {K: assemble_sho_circle(symbol(K), 512).solve() for K in (1e-160, 1.0, 1e160)}
    ref, ref_route, ref_health = runs[1.0]
    for K, (ev, got_route, health) in runs.items():
        assert got_route == ref_route == route
        assert not health["fallback"] and health["basis_rank"] == ref_health["basis_rank"]
        assert np.max(np.abs(ev - K * ref)) <= 1e-14 * K * np.max(np.abs(ref))


def test_inner_forms_no_conjugated_copy_of_the_basis():
    import tracemalloc
    rng = np.random.default_rng(6)
    Q = rng.standard_normal((8192, 128)) + 1j * rng.standard_normal((8192, 128))
    X = rng.standard_normal((8192, 16)) + 1j * rng.standard_normal((8192, 16))
    ref = Q.conj().T @ X
    tracemalloc.start()
    try:
        got = sho._inner(Q, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - ref)) <= 4 * EPS * np.max(np.abs(ref))
    assert peak < Q.nbytes / 4
    R = Q.real
    assert np.array_equal(sho._inner(R, X.real), R.T @ X.real)


def hankel_rank(symbol, N):
    health = assemble_sho_circle(symbol, N).solve()[2]
    return health["basis_rank"], health["fallback"], health["products"]


def rung_rank(model, theta, N):
    info = dtheta.dtheta_eigenpairs(dtheta.BoxPair(N, model), theta)[2]
    return info["factor_rank"], info["fallback"], info["products"]


CORE_CASES = [
    (hankel_rank, (sawtooth_symbol([(0.0, 1.0)]), 4096), 32, 6),
    (hankel_rank, (sawtooth_symbol([(0.0, np.array([[1.0, 0.5], [0.5, -1.0]]))], dim=2), 1024),
     112, 11),
    (rung_rank, (LatticeModel.single_site(2.0), dtheta.StepFunction(((0.0, 1.0),)), 4096), 64, 8),
    (rung_rank, (LatticeModel({-1: 0.7, 0: -1.3, 1: 0.4}),
                 dtheta.StepFunction(((-0.5, 1.0), (0.8, -0.7)), base="smooth"), 2048), 144, 13),
]
CORE_IDS = ["sawtooth-4096", "dim-2-1024", "c9-rung-4096", "smooth-three-site-2048"]


@pytest.mark.parametrize("solve, args, rank, products", CORE_CASES, ids=CORE_IDS)
def test_core_takes_no_householder_fallback(monkeypatch, solve, args, rank, products):
    # every block of these runs is orthonormalised by CholeskyQR alone; the
    # operator products are pinned so that a costlier growth shows
    calls = counting(monkeypatch)
    assert solve(*args) == (rank, False, products)
    assert not calls


@pytest.mark.parametrize("solve, args", [case[:2] for case in CORE_CASES]
                         + [(hankel_rank, (sawtooth_symbol([(2.0, 1.0 + 0.5j)]), 1024))],
                         ids=CORE_IDS + ["complex-dilation-1024"])
def test_core_ritz_vectors_are_orthonormal(monkeypatch, solve, args):
    # each block joins the basis after two projections against it (the
    # residual, then one more pass), each followed by CholeskyQR
    seen, core = [], sho._lowrank_eigenvalues

    def with_vectors(product, n, dtype, vectors=False):
        (ritz, V), health = core(product, n, dtype, vectors=True)
        seen.append((V, health))
        return ((ritz, V) if vectors else ritz), health
    monkeypatch.setattr(sho, "_lowrank_eigenvalues", with_vectors)
    monkeypatch.setattr(dtheta, "_lowrank_eigenvalues", with_vectors)
    solve(*args)
    (V, health), = seen
    assert not health["fallback"] and V.shape[1] == health["basis_rank"]
    assert np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1]), 2) <= 1e-14


@settings(max_examples=25, deadline=None, derandomize=True)
@given(N=st.integers(256, 600), dim=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1),
       terms=st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 2 * math.pi),
                                st.floats(0.05, 5.0)), min_size=1, max_size=3))
def test_lowrank_complex_cauchy_hankel_sums(N, dim, seed, terms):
    # sum_j w_j e^{i theta_j} M_j / (p + q + a_j), M_j = 1 or a random complex
    # 2 x 2 matrix: numerically low rank (Beckermann-Townsend); H has N rows
    rng = np.random.default_rng(seed)
    k = np.arange(2 * (N // dim) - 1)
    h = 0
    for w, theta, a in terms:
        term = w * np.exp(1j * theta) / (k + a)
        if dim == 2:
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            term = np.multiply.outer(term, M)
        h = h + term
    T = hankel_truncation(h)
    s, _, health = singular_values(T)
    assert not health["fallback"]
    assert_matches_dense(T, s, health)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(N=st.integers(1, 100), dim=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1))
def test_full_rank_block_hankel_falls_back_to_svd(N, dim, seed):
    rng = np.random.default_rng(seed)
    shape = (2 * N - 1,) if dim == 1 else (2 * N - 1, dim, dim)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    T = hankel_truncation(h)
    s, _, health = singular_values(T)
    assert health["fallback"] and health["residual_bound"] is None
    assert_matches_dense(T, s, health)


def test_dim2_lowrank_route_is_matrix_free():
    # the N d x N d block at N = 2048, d = 2 is 134 MB as float64
    import tracemalloc
    T = assemble_sho_circle(sawtooth_symbol([(0.0, np.array([[1.0, 0.5], [0.5, -1.0]]))], dim=2),
                            2048)
    tracemalloc.start()
    try:
        _, route, health = T.solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert route == "hankel-lowrank" and not health["fallback"]
    assert peak < 48e6


def test_sandwich_is_matrix_free():
    # a dense sandwich holds several 2N x 2N complex arrays (67 MB each at N = 1024)
    import tracemalloc
    diff = symbol_difference(sawtooth_symbol([(math.pi, 1.0)]),
                             cayley_transport(model_symbol(1.0, 0.0)))
    T = assemble_sho_circle(diff, 1024)
    tracemalloc.start()
    try:
        rep = sandwich_singular_values(T, WeightQ((math.pi,)), 1.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep["health"]["fallback"]
    assert peak < 48e6


# ---------------------------------------------------------------------------
# Cayley transport


def test_cayley_map_points():
    assert cayley_angle(0.0) == pytest.approx(math.pi, abs=1e-15)
    assert line_coordinate(math.pi) == pytest.approx(0.0, abs=1e-15)
    # lam -> +-infinity approaches the angle 0 (mu = 1)
    assert min(cayley_angle(1e9), 2 * math.pi - cayley_angle(1e9)) < 1e-8
    with pytest.raises(ValueError):
        cayley_transport(model_symbol(1.0, lam0=1e15))


def test_cayley_transport_values_and_jumps():
    line = model_symbol(2.0, lam0=0.7)
    circ = cayley_transport(line)
    assert circ.domain == "circle"
    (phi0, K0), = circ.jumps
    assert phi0 == pytest.approx(cayley_angle(0.7))
    assert K0 == pytest.approx(2.0)
    phis = np.array([0.5, 1.5, 3.0, 5.2])
    lams = line_coordinate(phis)
    assert np.allclose(circ.values(phis), line.values(lams), atol=1e-14)
    # continuity at mu = 1: value equals the limit at infinity
    assert abs(circ.values(0.0)[0]) <= 1e-12


def test_transported_model_assembles():
    T = assemble_sho_circle(model_symbol(1.0, 0.0), 32)
    ev = T.eigenvalues(method="eigh")
    assert np.max(ev) < 0.5
    assert np.max(np.abs(np.sort(ev) + np.sort(-ev)[::-1])) <= 1e-10


# ---------------------------------------------------------------------------
# predicted bands


def test_predict_bands_scalar():
    bands = predict_bands(sawtooth_symbol([(0.0, 2.0)]))
    assert bands.entries == ((1.0, 1),)


def test_predict_bands_two_jumps():
    bands = predict_bands(sawtooth_symbol([(0.0, 2.0), (3.0, 1.0)]))
    assert bands.entries == ((1.0, 1), (0.5, 1))
    assert bands.multiplicity_at(0.25) == 2
    assert bands.multiplicity_at(0.75) == 1


def test_predict_bands_matrix_jump_drops_zero():
    K = np.diag([3.0, 0.0])
    bands = predict_bands(sawtooth_symbol([(1.0, K)], dim=2))
    assert bands.entries == ((1.5, 1),)


def test_predict_bands_tie_merging():
    bands = predict_bands(sawtooth_symbol([(0.0, 1.0), (2.0, 1.0)]))
    assert bands.entries == ((0.5, 2),)


def test_predict_bands_unimodular_invariance():
    K = np.array([[1.0, 2.0], [0.5, -1.0]])
    a = predict_bands(sawtooth_symbol([(0.0, K)], dim=2))
    b = predict_bands(sawtooth_symbol([(0.0, np.exp(0.7j) * K)], dim=2))
    for (aw, am), (bw, bm) in zip(a.entries, b.entries):
        assert aw == pytest.approx(bw, rel=1e-12)
        assert am == bm


def test_predict_bands_requires_jumps():
    with pytest.raises(ValueError):
        predict_bands(smooth_bump_symbol("circle"))
    with pytest.raises(ValueError):
        SpectralBands(((0.5, 1), (1.0, 1)))


# ---------------------------------------------------------------------------
# block diagonalization of jumps


def test_block_hat_scalar():
    _, ev = block_hat_K(2.0)
    assert np.allclose(np.sort(ev), [-2.0, 2.0], atol=1e-14)


def test_block_hat_zero():
    _, ev = block_hat_K(np.zeros((2, 2)))
    assert np.max(np.abs(ev)) == 0.0


def test_block_hat_matches_svd_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        K = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        _, ev = block_hat_K(K)
        s = np.linalg.svd(K, compute_uv=False)
        expect = np.sort(np.concatenate([s, -s]))
        assert np.max(np.abs(np.sort(ev) - expect)) <= 1e-10


def test_block_hat_kernel_dimension():
    K = np.array([[1.0, 0.0], [0.0, 0.0]])
    _, ev = block_hat_K(K)
    assert int(np.sum(np.abs(ev) < 1e-12)) == 2   # dim Ker K + dim Ker K*


def test_hat_eigenvectors_scalar():
    hat, _ = block_hat_K(2.0)
    pairs = hat_K_eigenvectors(2.0)
    assert len(pairs) == 2
    for lam, vec in pairs:
        assert np.max(np.abs(hat @ vec - lam * vec)) <= 1e-12
    vecs = {p[0]: p[1] for p in pairs}
    assert np.allclose(vecs[2.0], [2.0, 2.0j], atol=1e-14)
    assert np.allclose(vecs[-2.0], [2.0, -2.0j], atol=1e-14)


def test_hat_eigenvectors_diag():
    K = np.diag([3.0, 1.0])
    hat, _ = block_hat_K(K)
    pairs = hat_K_eigenvectors(K)
    assert len(pairs) == 4
    for lam, vec in pairs:
        assert np.max(np.abs(hat @ vec - lam * vec)) <= 1e-12


def test_hat_eigenvectors_random_residuals():
    rng = np.random.default_rng(23)
    K = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    hat, _ = block_hat_K(K)
    for lam, vec in hat_K_eigenvectors(K):
        assert np.linalg.norm(hat @ vec - lam * vec) <= 1e-10 * np.linalg.norm(vec)


def test_hat_eigenvectors_kernel_annihilated():
    K = np.array([[2.0, 0.0], [0.0, 0.0]])
    hat, _ = block_hat_K(K)
    # kernel vectors of K (and K*) pad to kernel vectors of the doubled block
    for vec in (np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])):
        assert np.max(np.abs(hat @ vec)) == 0.0
    assert len(hat_K_eigenvectors(K)) == 2


def test_hat_eigenvectors_degenerate_warning():
    with pytest.warns(UserWarning):
        hat_K_eigenvectors(np.eye(2))


# ---------------------------------------------------------------------------
# weights


def test_q0_values():
    assert q0_weight(math.e ** -2) == pytest.approx(0.5, abs=1e-14)
    assert q0_weight(1.0) == 1.0
    assert q0_weight(0.37) == 1.0       # just outside 1/e
    assert q0_weight(0.0) == 0.0


def test_weight_product():
    w = WeightQ((0.0, 1.0), domain="line")
    lam = 0.5 + 1e-3
    expect = q0_weight(lam) * q0_weight(lam - 1.0)
    assert w(lam) == pytest.approx(expect, rel=1e-14)
    assert w(0.5) == 1.0                # both distances equal 1/2 > 1/e


# ---------------------------------------------------------------------------
# sandwich diagnostics


def _mode_to_sample_unitary(N, dim):
    """The dense 2N d x 2N d unitary U[a, n] = e^{i phi_a n}/sqrt(2N) from the
    modes [-N, N) to the dual sample grid phi_a, each mode with d components."""
    U = np.exp(1j * np.outer(_sample_angles(N), np.arange(-N, N))) / math.sqrt(2 * N)
    return np.kron(U, np.eye(dim)) if dim > 1 else U


@pytest.mark.parametrize("N, dim", [(8, 1), (5, 2)])
def test_to_samples_matches_dense_unitary(N, dim):
    X = np.random.default_rng(0).standard_normal((2 * N * dim, 3)) + 0j
    row_phase = -1j * (-1.0) ** np.repeat(np.arange(2 * N), dim)
    got = row_phase[:, None] * _to_samples(X, N, dim)
    assert np.max(np.abs(got - _mode_to_sample_unitary(N, dim) @ X)) <= 1e-13


def test_sandwich_zero_difference():
    saw = sawtooth_symbol([(math.pi, 1.0)])
    diff = symbol_difference(saw, saw)
    assert diff.jumps == ()
    T = assemble_sho_circle(diff, 32)
    rep = sandwich_singular_values(T, WeightQ((math.pi,)), 1.1)
    assert np.max(rep["singular_values"]) <= 1e-10


@pytest.mark.parametrize("symbol", [
    symbol_difference(sawtooth_symbol([(math.pi, 1.0)]), cayley_transport(model_symbol(1.0, 0.0))),
    sawtooth_symbol([(1.0, 0.8 + 0.4j)]),
], ids=["difference", "complex-jump"])
def test_sandwich_matches_dense_svd(symbol):
    N, beta = 128, 1.4
    w = WeightQ((math.pi,))
    T = assemble_sho_circle(symbol, N)
    scale = w(_sample_angles(N)) ** (-beta)
    U = _mode_to_sample_unitary(N, 1)
    dense = (scale[:, None] * (U @ T.matrix @ U.conj().T)) * scale[None, :]
    expected = np.linalg.svd(dense, compute_uv=False)
    got = sandwich_singular_values(T, w, beta)["singular_values"]
    assert np.all(np.diff(got) <= 0)
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("N", [4, 128])
def test_sandwich_of_hand_built_block(N):
    # the assembled truncation against a dense SVD built by hand; N = 4
    # leaves no room for a basis, so the sandwich is a dense eigvalsh
    beta, w = 1.4, WeightQ((math.pi,))
    T = assemble_sho_circle(sawtooth_symbol([(1.0, 0.8 + 0.4j)]), N)
    scale = w(_sample_angles(N)) ** (-beta)
    U = _mode_to_sample_unitary(N, 1)
    expected = np.linalg.svd((scale[:, None] * (U @ T.matrix @ U.conj().T)) * scale[None, :],
                             compute_uv=False)
    rep = sandwich_singular_values(T, w, beta)
    assert rep["health"]["fallback"] is (N == 4)
    assert np.max(np.abs(rep["singular_values"] - expected)) <= 1e-12


def test_sandwich_tail_exponent_fits_values_above_roundoff():
    # at N = 256 only 48 of the top 64 values lie above 2N eps sigma_max; a fit
    # over all 64 gives -11.7 instead of -9.28
    N, beta = 256, 1.4
    w = WeightQ((math.pi,))
    diff = symbol_difference(sawtooth_symbol([(math.pi, 1.0)]),
                             cayley_transport(model_symbol(1.0, 0.0)))
    T = assemble_sho_circle(diff, N)
    scale = w(_sample_angles(N)) ** (-beta)
    U = _mode_to_sample_unitary(N, 1)
    dense = np.linalg.svd((scale[:, None] * (U @ T.matrix @ U.conj().T)) * scale[None, :],
                          compute_uv=False)
    top = dense[:2 * N // 8]
    top = top[top > 2 * N * EPS * dense[0]]
    expected = np.polyfit(np.log(np.arange(1, top.size + 1)), np.log(top), 1)[0]
    rep = sandwich_singular_values(T, w, beta)
    assert rep["tail_exponent"] == pytest.approx(expected, abs=0.01)
    zero = assemble_sho_circle(symbol_difference(diff, diff), 32)     # no value above the floor
    assert math.isnan(sandwich_singular_values(zero, w, beta)["tail_exponent"])


def test_sandwich_compact_case_stabilizes():
    saw = sawtooth_symbol([(math.pi, 1.0)])
    model = cayley_transport(model_symbol(1.0, 0.0))
    diff = symbol_difference(saw, model)
    w = WeightQ((math.pi,))
    rep = compactness_refinement(diff, w, 1.1, [128, 256, 512], tracked=8)
    top = rep["values"][:, 0]
    inc = np.diff(top)
    # finite sections grow toward the compact limit with shrinking increments
    assert np.all(inc > -1e-12)
    assert inc[1] < 0.75 * inc[0]


def test_growth_ratio_skips_values_below_roundoff():
    # the N = 128 sandwich is certified at basis rank 48, so 96 tracked
    # indices reach its exact zeros; a ratio over those would be about 1e287
    diff = symbol_difference(sawtooth_symbol([(math.pi, 1.0)]),
                             cayley_transport(model_symbol(1.0, 0.0)))
    rep = compactness_refinement(diff, WeightQ((math.pi,)), 1.4, [128, 512], tracked=96)
    first, last = rep["values"]
    assert rep["health"][0]["basis_rank"] < rep["tracked"] == 96
    resolved = first > 2 * 128 * EPS * first[0]
    assert 0 < np.sum(resolved) < rep["health"][0]["basis_rank"]
    assert rep["max_growth_ratio"] == np.max(last[resolved] / first[resolved])
    assert rep["max_growth_ratio"] < 1e3


def test_sandwich_log_violating_symbol_flagged():
    bad = cayley_transport(log_model_symbol(1.0, 0.0, beta0=1.0))
    saw = sawtooth_symbol([(math.pi, 1.0)])
    diff = symbol_difference(bad, saw)
    rep = compactness_refinement(diff, WeightQ((math.pi,)), 1.4, [128, 256, 512], tracked=8)
    top = rep["values"][:, 0]
    # beta = 1.4 > beta0/2: no stabilization, sustained growth
    assert top[1] > 1.2 * top[0]
    assert top[2] > 1.2 * top[1]
    assert not rep["all_decreasing"]


# ---------------------------------------------------------------------------
# evolution


def _window_state(N, window, center, width):
    phi = _sample_angles(N)
    chi = ((phi >= window[0]) & (phi <= window[1])).astype(float)
    xi = chi * np.exp(-((phi - center) / width) ** 2)
    return _mode_to_sample_unitary(N, 1).conj().T @ xi


def _mean_window_mass(T, f, window, horizon):
    """Mean window mass over 48 times in [horizon, 2 horizon]."""
    times = np.linspace(horizon, 2.0 * horizon, 48)
    return float(np.mean(localization_evolution(T, f, window, times)["mass"]))


def test_evolution_initial_mass():
    N = 64
    T = assemble_sho_circle(sawtooth_symbol([(math.pi, 1.0)]), N)
    window = (0.2, 1.2)
    f = _window_state(N, window, 0.7, 0.25)
    out = localization_evolution(T, f, window, [0.0])
    # at t = 0 the window mass equals the windowed norm of the projected state
    evals, evecs = np.linalg.eigh(T.matrix)
    coeff = evecs.conj().T @ f
    coeff[np.abs(evals) <= 1e-6] = 0.0
    proj = evecs @ coeff
    phi = _sample_angles(N)
    chi = ((phi >= window[0]) & (phi <= window[1])).astype(float)
    direct = np.sum(np.abs(chi * (_mode_to_sample_unitary(N, 1) @ proj)) ** 2)
    assert out["mass"][0] == pytest.approx(direct, rel=1e-10)
    assert out["no_ac_case"] is False


@pytest.mark.parametrize("symbol", [
    sawtooth_symbol([(1.0, 0.8 + 0.4j)]),
    sawtooth_symbol([(math.pi, np.array([[1.0, 0.5], [0.0, 1.0]]))], dim=2),
], ids=["complex-jump", "dim-2"])
def test_evolution_matches_dense_eigh(symbol):
    # the +-v_k pairing of the block SVD only shows once the phases differ (t > 0)
    N, times = 64, [0.0, 3.0, 17.0]
    T = assemble_sho_circle(symbol, N)
    window = (0.2, 1.2)
    phi = _sample_angles(N)
    chi = np.repeat((phi >= window[0]) & (phi <= window[1]), T.dim)
    f = _mode_to_sample_unitary(N, T.dim).conj().T @ (chi * np.cos(np.arange(T.size)))
    out = localization_evolution(T, f, window, times)
    evals, evecs = np.linalg.eigh(T.matrix)
    coeff = evecs.conj().T @ f
    coeff[np.abs(evals) <= 1e-6] = 0.0
    U = _mode_to_sample_unitary(N, T.dim)
    dense = [np.sum(np.abs(chi * (U @ (evecs @ (np.exp(-1j * evals * t) * coeff)))) ** 2)
             for t in times]
    assert out["mass"] == pytest.approx(dense, rel=1e-10)
    assert out["projected_norm2"] == pytest.approx(np.sum(np.abs(coeff) ** 2), rel=1e-10)


def test_evolution_is_matrix_free(monkeypatch):
    # the N x N block at N = 2048 is 67 MB as complex128
    import tracemalloc

    def no_svd(*args, **kwargs):
        raise AssertionError("localization_evolution took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    N = 2048
    T = assemble_sho_circle(sawtooth_symbol([(1.0, 0.8 + 0.4j)]), N)
    f = np.random.default_rng(3).standard_normal(T.size) + 0j
    f /= np.linalg.norm(f)
    tracemalloc.start()
    try:
        out = localization_evolution(T, f, (0.2, 1.2), [0.0, 5.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out["health"]["fallback"] and out["health"]["basis_rank"] < T.size // 4
    assert 0.0 < out["projected_norm2"] < 1.0
    assert peak < 48e6


def test_evolution_below_certified_level_is_dense():
    # eps0 = 0 asks for eigenvalues below the core's residual bound, so
    # every eigenvector of the dense matrix is kept
    N = 512
    T = assemble_sho_circle(sawtooth_symbol([(math.pi, 1.0)]), N)
    f = np.random.default_rng(4).standard_normal(T.size) + 0j
    f /= np.linalg.norm(f)
    window = (0.2, 1.2)
    out = localization_evolution(T, f, window, [0.0], eps0=0.0)
    assert not out["health"]["fallback"]
    assert 0.0 < out["health"]["residual_bound"]
    phi = _sample_angles(N)
    chi = (phi >= window[0]) & (phi <= window[1])
    direct = np.sum(np.abs((_mode_to_sample_unitary(N, 1) @ f)[chi]) ** 2)
    assert out["projected_norm2"] == pytest.approx(1.0, abs=1e-10)
    assert out["mass"][0] == pytest.approx(direct, abs=1e-10)


def test_evolution_mass_decreases_with_horizon():
    N = 128
    T = assemble_sho_circle(sawtooth_symbol([(math.pi, 1.0)]), N)
    window = (0.2, 1.2)
    f = _window_state(N, window, 0.7, 0.25)
    short = _mean_window_mass(T, f, window, 10.0)
    long = _mean_window_mass(T, f, window, 1000.0)
    assert long < short


def test_evolution_smooth_symbol_flagged():
    N = 128
    T = assemble_sho_circle(smooth_bump_symbol("circle", center=2.0, width=0.5), N)
    window = (0.2, 1.2)
    f = _window_state(N, window, 0.7, 0.25)
    out = localization_evolution(T, f, window, [0.0])
    assert out["no_ac_case"] is True
    # compact case: the averaged mass recurs instead of draining
    short = _mean_window_mass(T, f, window, 10.0)
    long = _mean_window_mass(T, f, window, 1000.0)
    assert long > 0.5 * short
