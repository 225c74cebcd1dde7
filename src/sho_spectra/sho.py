"""Symmetrised Hankel truncations with piecewise-continuous symbols.

A symbol on the unit circle is multiplied against Hardy projections; in the
Fourier-mode basis over the window [-N, N) the operator is the Hermitian
block matrix [[0, B], [B*, 0]] with B built from the symbol coefficients.
Line symbols are transported to the circle by the Cayley map before any
discretization.  Spectra of truncations, predicted spectral bands from jump
data, weighted compactness diagnostics, and spectral-window evolution live
here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import zeta_kernel

TWO_PI = 2.0 * math.pi
JUMP_ALIGN_TOL = 1e-12
BAND_DROP_TOL = 1e-12
AC_PROXY_EPS = 1e-6
LOWRANK_BLOCK = 16          # columns added to the Ritz basis per product
LOWRANK_POWER_STEPS = 2     # power steps with P H P per certificate probe
LOWRANK_SEED = 0            # Gaussian start blocks are seeded: results repeat bit for bit


def _as_matrix(K, dim=None):
    arr = np.atleast_2d(np.asarray(K, dtype=complex))
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("jump matrices must be square")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError("jump matrix dimension mismatch")
    return arr


def _wrap_angle(phi):
    return np.mod(phi, TWO_PI)


def _sawtooth(delta):
    # jump +1 at delta = 0, linear in between, two-sided mean at the jump
    d = _wrap_angle(delta)
    out = (math.pi - d) / TWO_PI
    return np.where(np.abs(np.minimum(d, TWO_PI - d)) < JUMP_ALIGN_TOL, 0.0, out)


@dataclass(frozen=True)
class PiecewiseSymbol:
    """Scalar- or matrix-valued symbol with jump data.

    jumps: list of (location, K); on the circle locations are angles in
    [0, 2pi), on the line real numbers.  carrier selects how jumps enter the
    pointwise values ('sawtooth' on the circle, 'zeta-model' or 'log-model'
    on the line / transported); continuous_part is an optional smooth
    vectorized callable added on top.
    """

    domain: str
    dim: int = 1
    jumps: tuple = ()
    carrier: str | None = None
    carrier_beta0: float = 3.0
    continuous_part: object = None

    def __post_init__(self):
        if self.domain not in ("line", "circle"):
            raise ValueError("domain must be 'line' or 'circle'")
        jumps = []
        for loc, K in self.jumps:
            K = _as_matrix(K, self.dim) if self.dim > 1 else complex(np.asarray(K).reshape(()))
            if np.max(np.abs(K)) == 0.0:
                raise ValueError("jump matrices must be nonzero")
            loc = float(loc) if self.domain == "line" else float(_wrap_angle(loc))
            jumps.append((loc, K))
        locs = [loc for loc, _ in jumps]
        if len(set(locs)) != len(locs):
            raise ValueError("jump locations must be distinct")
        object.__setattr__(self, "jumps", tuple(jumps))
        if self.carrier not in (None, "sawtooth", "zeta-model", "log-model"):
            raise ValueError(f"unknown carrier {self.carrier!r}")
        if self.carrier == "sawtooth" and self.domain != "circle":
            raise ValueError("sawtooth carrier lives on the circle")
        if self.carrier in ("zeta-model", "log-model") and self.domain != "line":
            raise ValueError("zeta/log carriers live on the line")

    # -- evaluation ---------------------------------------------------------

    def _carrier_values(self, x):
        out = 0.0
        for loc, K in self.jumps:
            if self.carrier == "sawtooth":
                base = _sawtooth(x - loc)
            elif self.carrier == "zeta-model":
                d = x - loc
                base = np.where(np.abs(d) < JUMP_ALIGN_TOL, 0.0,
                                zeta_kernel(np.where(np.abs(d) < JUMP_ALIGN_TOL, 1.0, d)))
            else:
                base = _log_carrier_line(x - loc, self.carrier_beta0)
            out = out + np.multiply.outer(base, K)     # a scalar K keeps shape (n,)
        return out

    def _value_shape(self, n):
        """Shape of n values: (n,) for scalars, (n, dim, dim) otherwise."""
        return (n,) if self.dim == 1 else (n, self.dim, self.dim)

    def values(self, x):
        """Symbol values; shape (n,) for scalars, (n, dim, dim) otherwise."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        shape = self._value_shape(x.size)
        out = np.zeros(shape, dtype=complex)
        if self.continuous_part is not None:
            out = out + np.asarray(self.continuous_part(x), dtype=complex).reshape(shape)
        if self.jumps and self.carrier is not None:
            # carrier-less symbols (transported or differences) keep jump data
            # as metadata; their values live in continuous_part
            out = out + self._carrier_values(x)
        return out

    # -- structure ----------------------------------------------------------

    def jump_at(self, loc):
        for jl, K in self.jumps:
            if abs(jl - loc) < JUMP_ALIGN_TOL:
                return K
        raise KeyError(f"no jump at {loc}")


def _log_carrier_line(delta, beta0):
    d = np.asarray(delta, dtype=float)
    r = np.abs(d)
    g = np.zeros_like(r)
    inner = (r > 0) & (r < math.e ** -1)
    g[inner] = 1.0 - np.abs(np.log(r[inner])) ** -beta0
    return 0.5 * np.sign(d) * g


# ---------------------------------------------------------------------------
# constructors


def sawtooth_symbol(jumps, dim: int = 1) -> PiecewiseSymbol:
    """Circle symbol carrying each jump on a linear sawtooth profile."""
    return PiecewiseSymbol("circle", dim=dim, jumps=tuple(jumps), carrier="sawtooth")


def model_symbol(K, lam0: float = 0.0) -> PiecewiseSymbol:
    """Line model symbol zeta(lam - lam0) K for a single jump K at lam0."""
    return PiecewiseSymbol("line", dim=_as_matrix(K).shape[0], jumps=((lam0, K),),
                           carrier="zeta-model")


def smooth_bump_symbol(domain: str, amplitude: float = 1.0, center: float = 0.0,
                       width: float = 1.0) -> PiecewiseSymbol:
    """Jump-free smooth symbol; its symmetrised Hankel operator is compact."""
    if domain == "circle":
        cont = lambda phi: amplitude * np.exp((np.cos(phi - center) - 1.0) / width)
    else:
        cont = lambda lam: amplitude * np.exp(-((lam - center) / width) ** 2)
    return PiecewiseSymbol(domain, dim=1, continuous_part=cont)


def log_model_symbol(K, lam0: float = 0.0, beta0: float = 3.0) -> PiecewiseSymbol:
    """Line symbol whose jump has exactly the log-Hoelder modulus exponent beta0."""
    return PiecewiseSymbol("line", dim=1, jumps=((lam0, K),), carrier="log-model",
                           carrier_beta0=beta0)


def symbol_difference(a: PiecewiseSymbol, b: PiecewiseSymbol) -> PiecewiseSymbol:
    """Pointwise difference with matching jumps cancelled."""
    if a.domain != b.domain or a.dim != b.dim:
        raise ValueError("incompatible symbols")
    jumps = []
    for loc, K in a.jumps:
        try:
            Kb = b.jump_at(loc)
        except KeyError:
            jumps.append((loc, K))
            continue
        diff = np.asarray(K) - np.asarray(Kb)
        if np.max(np.abs(diff)) > JUMP_ALIGN_TOL:
            jumps.append((loc, diff))
    for loc, Kb in b.jumps:
        try:
            a.jump_at(loc)
        except KeyError:
            jumps.append((loc, -np.asarray(Kb)))
    cont = lambda x, _a=a, _b=b: _a.values(x) - _b.values(x)
    return PiecewiseSymbol(a.domain, dim=a.dim, jumps=tuple(jumps), carrier=None,
                           continuous_part=cont)


# ---------------------------------------------------------------------------
# Cayley transport


def cayley_angle(lam: float) -> float:
    """Angle of (lam - i)/(lam + i) on the unit circle, in [0, 2pi)."""
    mu = (lam - 1j) / (lam + 1j)
    return float(_wrap_angle(np.angle(mu)))


def line_coordinate(phi):
    """Inverse Cayley map: lam = -cot(phi/2); phi = 0 is the point at infinity."""
    phi = np.asarray(phi, dtype=float)
    with np.errstate(divide="ignore"):
        return -1.0 / np.tan(0.5 * phi)


def transported_angle(lam: float) -> float:
    """cayley_angle of a line jump; a jump that lands at mu = 1 (the point at
    infinity, where transported symbols vanish) raises ValueError."""
    phi = cayley_angle(lam)
    if min(phi, TWO_PI - phi) < JUMP_ALIGN_TOL:
        raise ValueError("transported jump lands at mu = 1 (the point at infinity)")
    return phi


def cayley_transport(symbol: PiecewiseSymbol) -> PiecewiseSymbol:
    """Transport a line symbol to the circle; jumps keep their matrices."""
    if symbol.domain != "line":
        raise ValueError("cayley_transport expects a line symbol")
    jump_angles = tuple((transported_angle(loc), K) for loc, K in symbol.jumps)

    def circle_values(phi, _sym=symbol):
        # the line symbols vanish at infinity, phi = 0
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        wrapped = _wrap_angle(phi)
        at_inf = np.minimum(wrapped, TWO_PI - wrapped) < 1e-14
        safe = np.where(at_inf, math.pi, wrapped)
        vals = _sym.values(line_coordinate(safe))
        vals[at_inf] = 0.0
        return vals

    return PiecewiseSymbol("circle", dim=symbol.dim, jumps=jump_angles, carrier=None,
                           continuous_part=circle_values)


# ---------------------------------------------------------------------------
# Fourier side


def fourier_coefficients(symbol: PiecewiseSymbol, num_modes: int):
    """Coefficients c[n], |n| <= num_modes, jump part exact plus FFT remainder.

    Each declared jump is peeled off on a sawtooth profile whose coefficients
    K e^{-i n phi_l}/(2 pi i n) are closed-form; the continuous remainder is
    sampled on the least power of two >= max(16 num_modes, 16) uniform
    points (two-sided mean at jumps by carrier construction) and transformed
    by FFT.  Without the peel-off the O(1/n) coefficient tail of a jump symbol
    would alias at O(n/n_samples^2).
    Returns the 2 num_modes + 1 coefficients, c[n] at index n + num_modes,
    as an array of scalars or dim x dim blocks like symbol.values.
    """
    if symbol.domain != "circle":
        raise ValueError("fourier_coefficients expects a circle symbol")
    n = np.arange(-num_modes, num_modes + 1)
    coeffs = np.zeros(symbol._value_shape(n.size), dtype=complex)
    nz = n != 0
    base = np.zeros(n.size, dtype=complex)
    for loc, K in symbol.jumps:
        base[nz] = np.exp(-1j * n[nz] * loc) / (2j * math.pi * n[nz])
        coeffs += np.multiply.outer(base, K)

    needs_fft = symbol.continuous_part is not None or (symbol.jumps and symbol.carrier != "sawtooth")
    if needs_fft:
        n_samples = 1 << (max(16 * num_modes, 16) - 1).bit_length()
        phi = TWO_PI * np.arange(n_samples) / n_samples
        vals = symbol.values(phi)
        for loc, K in symbol.jumps:
            saw = _sawtooth(phi - loc)
            vals -= np.multiply.outer(saw, K)
        spec = np.fft.fft(vals, axis=0) / n_samples
        idx = np.concatenate([np.arange(-num_modes, 0) % n_samples, np.arange(0, num_modes + 1)])
        coeffs += spec[idx]
    return coeffs


def _hankel_product(h, N):
    """X -> H X for the Hankel matrix H[p, q] = h[p + q], by FFT.

    h holds 2N - 1 scalars, or d x d blocks with shape (2N - 1, d, d), and X
    has N d rows.  (H X)[p] = sum_q h[p + q] X[q] is entry N - 1 + p of the
    convolution of h with X reversed (block rows reversed, blocks kept); a
    transform length L >= 2N - 1 keeps those entries free of wrap-around,
    so no N d x N d array is formed.  Real h takes real transforms.
    """
    L = 1 << (2 * N - 2).bit_length()
    fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(h) else (np.fft.rfft, np.fft.irfft)
    h_hat = fft(h, L, axis=0)
    if h.ndim == 1:
        def product(X):
            X_hat = fft(X[::-1], L, axis=0)
            return ifft(h_hat[:, None] * X_hat, L, axis=0)[N - 1:2 * N - 1]
    else:
        d = h.shape[1]

        def product(X):
            X_hat = fft(X.reshape(N, d, -1)[::-1], L, axis=0)
            return ifft(h_hat @ X_hat, L, axis=0)[N - 1:2 * N - 1].reshape(N * d, -1)
    return product


def _reverse_block_rows(X, N):
    """J X: the N block rows of X in reverse order, each block kept."""
    return X.reshape(N, -1, X.shape[1])[::-1].reshape(X.shape)


def _scaled(A):
    """(big, A / big) for the power of two big with big <= m < 2 big, m the
    largest |Re| or |Im| of an entry of A, or (0, A) for a zero or empty A.
    m is read off the real view of A, so a complex block takes no modulus
    pass, and the division is an exact exponent shift (np.ldexp), not a
    complex division.  Gram matrices of the scaled block neither overflow
    nor underflow."""
    parts = np.ascontiguousarray(A).view(np.float64)
    m = max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))
    if not m:
        return 0.0, A
    e = math.frexp(m)[1] - 1
    return math.ldexp(1.0, e), np.ldexp(parts, -e).view(A.dtype)


def _inner(Q, X):
    """Q^H X as conj(Q^T conj(X)): only X is conjugated, so a complex n x m
    basis Q is never copied (Q.conj() would be)."""
    return (Q.T @ X.conj()).conj()


def _gram(X):
    """(norm, Y, G, w) for an n x k block X: Y = X / big (_scaled), its Gram
    matrix G = Y^H Y, the eigenvalues w of G, ascending, and
    norm = big sqrt(w_max) = ||X||_2 to about eps relative; (0, X, None,
    None) for a zero or empty X."""
    big, Y = _scaled(X)
    if not big:
        return 0.0, Y, None, None
    G = _inner(Y, Y)
    w = np.linalg.eigvalsh(G)
    return big * float(np.sqrt(w[-1])), Y, G, w


def _orthonormal(X, gram=None):
    """Orthonormal basis of the span of the n x k block X, n >= k; gram is
    _gram(X) when the caller has already formed it for the norm.

    CholeskyQR on Y = X / big (_gram), passes Y <- Y L^-H with
    L L^H = G.  The eigenvalues w of G = Y^H Y decide how many:
    when 64 (w_max / w_min) (n k + k (k + 1)) eps <= 1, i.e. the condition
    number kappa of X has 8 kappa sqrt(n k eps + k (k + 1) eps) <= 1,
    CholeskyQR2 (two passes, the first on G itself) is orthonormal to working
    precision (Yamamoto, Nakatsukasa, Yanagisawa and Fukaya, ETNA 2015);
    otherwise shifted CholeskyQR3 (Fukaya, Kannan, Nakatsukasa, Yamamoto and
    Yanagisawa, SIAM J. Sci. Comput. 2020) runs three, the first on
    G + s I with s = 11 (n k + k (k + 1)) eps w_max.  A block that is all
    zero, whose Cholesky factor fails, or whose last G lies farther than 1/2
    from I in the Frobenius norm (so the last pass would not reach working
    precision) is factored by Householder QR instead.
    """
    norm, Y, G, w = _gram(X) if gram is None else gram
    if norm:
        n, k = Y.shape
        roundoff = (n * k + k * (k + 1)) * np.finfo(float).eps * w[-1]
        passes = 2 if 64 * roundoff <= w[0] else 3
        if passes == 3:
            G[np.diag_indices(k)] += 11 * roundoff
        try:
            for step in range(passes):
                if step:
                    G = _inner(Y, Y)
                Y = Y @ np.linalg.inv(np.linalg.cholesky(G)).conj().T
        except np.linalg.LinAlgError:
            pass
        else:
            if np.linalg.norm(G - np.eye(k)) <= 0.5:
                return Y
    return np.linalg.qr(X)[0]


def _complement_basis(Q, X):
    """Orthonormal basis of the span of X with the span of Q projected out,
    for a block X not yet projected (the certificate probe): two Gram-Schmidt
    passes against Q, each followed by _orthonormal, keep it orthogonal to
    working precision."""
    for _ in range(2):
        X = _orthonormal(X - Q @ _inner(Q, X))
    return X


def _spectral_norm(A) -> float:
    """||A||_2 = big sqrt(lambda_max(B^H B)), B = A / big (_gram): the
    k x k Gram matrix of an n x k block gives it to about eps relative."""
    return _gram(A)[0]


def _lowrank_eigenvalues(product, n, dtype, vectors=False):
    """Eigenvalues of an n x n Hermitian operator A, given X -> A X.

    A Rayleigh-Ritz basis Q grows by block Krylov steps of LOWRANK_BLOCK
    columns (Musco and Musco, NeurIPS 2015), one product per block: the
    first block spans A G for seeded Gaussian columns G (complex ones for a
    complex dtype; G is not kept), each next one the residual P A Z of the
    last block Z.  With P = I - Q Q^H and T = Q^H A Q, A - Q T Q^H has the
    off-diagonal part P A Q and the complement part P A P, so by Weyl's
    inequality the Ritz values of T, padded with zeros, lie within
    ||P A Q|| + ||P A P|| of the eigenvalues of A.  The first term is exact
    (from A Q, already computed).  Once ||P A Z|| <= n eps ||T||_F and
    ||P A Q|| <= n eps ||T||, the second is estimated by ||P A P Z|| on a
    certificate probe: fresh seeded Gaussian columns taken through
    LOWRANK_POWER_STEPS power steps with P A P (the adaptive range finder of
    Halko, Martinsson and Tropp, SIAM Rev. 2011, sections 4.2 and 4.4), and
    the basis stops growing once the bound is at most n eps ||T||.  A probe
    that fails is not kept: the next block spans the dominant columns of the
    residuals P A Q and P A P Z (top eigenvectors of their Gram matrix), so
    a residual left behind by an earlier block, or the eigenspace of a
    multiple eigenvalue that one Krylov block cannot reach, still joins.
    Each power iterate is projected against Q once and made orthonormal by
    _orthonormal (CholeskyQR2, or shifted CholeskyQR3 for an ill-conditioned
    block: two or three passes of GEMMs on the n x 16 block).  A block
    appended to Q is projected and orthonormalised twice, as in block
    Gram-Schmidt with reorthogonalisation (Barlow and Smoktunowicz, Numer.
    Math. 2013): the residual R = A Z - Q T[:, -16:] (or the residual
    columns E) already is the first projection, so the new block is
    _orthonormal(R) projected against Q once more and orthonormalised again;
    the fresh probe block takes both passes in _complement_basis.  This
    keeps Q orthonormal to working precision.  Every Q^H X is formed as
    conj(Q^T conj(X)) (_inner), so a complex Q is never copied.  The
    residual norms are Gram-matrix norms (_gram; the Gram matrix of R also
    starts _orthonormal(R)), and like the
    Frobenius norm of T they are taken on blocks divided by their largest
    real or imaginary part, so the result scales with A and no Gram matrix
    over- or underflows.  Growth stops at n / 4 columns, where a probe may still
    certify the basis; if none does, A is not numerically low rank: the
    product builds it from identity column blocks of 256, and the result is
    its dense eigvalsh (or eigh with vectors), all n eigenvalues.

    Returns the Ritz values, or with vectors the pair (Ritz values, Ritz
    vectors Q W) from eigh(T) = (ritz, W); and a health record: basis_rank
    (columns of Q), residual_bound (None after the dense fallback),
    fallback and products (calls of product, the fallback's column blocks
    included).  The seed makes repeated calls bit-identical.
    """
    rng = np.random.default_rng(LOWRANK_SEED)
    scale, complex_ = n * np.finfo(float).eps, np.issubdtype(dtype, np.complexfloating)

    def gaussian():
        G = rng.standard_normal((n, LOWRANK_BLOCK))
        return G + 1j * rng.standard_normal(G.shape) if complex_ else G

    Q, AQ, T = np.zeros((n, 0), dtype), np.zeros((n, 0), dtype), np.zeros((0, 0), dtype)
    products = 0
    if LOWRANK_BLOCK <= n // 4:         # no product before the fallback when no block fits
        R, products = product(_orthonormal(gaussian())), 1      # A G; G is not kept
    while products:                     # until a certificate, or growth reaches n / 4
        # the Frobenius norm bounds ||T|| from above: a cheap necessary test
        big, scaled_T = _scaled(T)
        threshold = scale * big * np.linalg.norm(scaled_T)
        Z, gram = R, _gram(R)          # ||R||, and the start of _orthonormal(R)
        if gram[0] <= threshold:
            ritz, W = np.linalg.eigh(T) if vectors else (np.linalg.eigvalsh(T), None)
            E = AQ - Q @ T
            off, floor = _spectral_norm(E), scale * np.max(np.abs(ritz), initial=0.0)
            if off <= floor:
                Z = gaussian()
                for _ in range(LOWRANK_POWER_STEPS):
                    Z = product(_orthonormal(Z - Q @ _inner(Q, Z)))
                AZ = product(_complement_basis(Q, Z))
                products += LOWRANK_POWER_STEPS + 1
                R = AZ - Q @ _inner(Q, AZ)
                inner = _spectral_norm(R)                   # ||P A P Z||, Z = P Z orthonormal
                if inner <= threshold and inner + off <= floor:
                    health = {"basis_rank": Q.shape[1], "residual_bound": inner + off,
                              "fallback": False, "products": products}
                    return ((ritz, Q @ W) if vectors else ritz), health
                E = np.hstack([E, R])
            E /= np.max(np.abs(E))      # grow from the dominant columns of the residuals
            Z, gram = E @ np.linalg.eigh(_inner(E, E))[1][:, -LOWRANK_BLOCK:], None
            del E                       # n x k: not held while the basis grows
        if Q.shape[1] + LOWRANK_BLOCK > n // 4:
            break
        # Z, the residual R or a mix of residual columns E, is already
        # projected once: block Gram-Schmidt with reorthogonalisation needs
        # one more projection, each pass followed by _orthonormal
        Z = _orthonormal(Z, gram)
        if Q.shape[1]:
            Z = _orthonormal(Z - Q @ _inner(Q, Z))
        AZ = product(Z)
        products += 1
        Q, AQ = np.hstack([Q, Z]), np.hstack([AQ, AZ])
        C = _inner(Q, AZ)                               # the new columns of T
        D = C[-LOWRANK_BLOCK:]
        D[...] = 0.5 * (D + D.conj().T)
        T = np.block([[T, C[:-LOWRANK_BLOCK]], [C.conj().T]])
        R = AZ - Q @ C                                  # P A Z with Z in Q
    # 256 identity columns per product bound the product's intermediates
    I = np.eye(n, dtype=dtype)
    A = np.hstack([product(I[:, lo:lo + 256]) for lo in range(0, n, 256)])
    out = np.linalg.eigh(A) if vectors else np.linalg.eigvalsh(A)
    return out, {"basis_rank": Q.shape[1], "residual_bound": None, "fallback": True,
                 "products": products + math.ceil(n / 256)}


def _descending_padded(values, n):
    s = np.zeros(n)
    s[:values.size] = np.sort(values)[::-1][:n]
    return s


def _phase_rotated_real(M):
    """M rotated by the phase of its largest entry, as a real array, when
    that leaves imaginary parts at most 1e-13 of the largest modulus; else None."""
    magnitude = np.abs(M)
    largest = int(np.argmax(magnitude))
    mx = magnitude.flat[largest]
    if mx > 0:
        rotated = M * (mx / M.flat[largest])
        if np.max(np.abs(rotated.imag)) <= 1e-13 * mx:
            return rotated.real
    return None


@dataclass(frozen=True)
class HermitianTruncation:
    """Finite section over Fourier modes [-N, N), the Hermitian matrix
    [[0, B], [B^H, 0]] given through its lower-left block B (negative-mode
    rows, nonnegative-mode columns).

    B is stored as hankel_coeffs, the 2N - 1 coefficients h[k] = c[-1 - k]
    (scalars, or d x d blocks with shape (2N - 1, d, d): N and d are read
    off the shape; any other shape is refused) of its block-row reversal
    H[p, q] = h[p + q]; the dense matrix is built on demand.  jump_locations
    are the symbol's jump angles on the circle (empty for a jump-free
    symbol).
    """

    hankel_coeffs: np.ndarray
    jump_locations: tuple = ()

    def __post_init__(self):
        shape = self.hankel_coeffs.shape
        if len(shape) not in (1, 3) or shape[0] % 2 == 0 or shape[1:2] != shape[2:]:
            raise ValueError("hankel_coeffs must have shape (2N - 1,) or (2N - 1, d, d) "
                             f"with N >= 1, not {shape}")

    @property
    def N(self) -> int:
        return (self.hankel_coeffs.shape[0] + 1) // 2

    @property
    def dim(self) -> int:
        return math.prod(self.hankel_coeffs.shape[2:])     # 1 for scalars

    @property
    def size(self) -> int:
        return 2 * self.N * self.dim

    @property
    def matrix(self) -> np.ndarray:
        """The dense 2N d x 2N d matrix, for cross-checks."""
        N, d = self.N, self.dim
        nd = N * d
        # H[p, :, :, q] = h[p + q], blocks (N, d, d, N) -> (N d, N d); d = 1 for scalars
        H = sliding_window_view(self.hankel_coeffs.reshape(-1, d, d), N, axis=0)[:N]
        B = _reverse_block_rows(H.transpose(0, 1, 3, 2).reshape(nd, nd), N)
        full = np.zeros((2 * nd, 2 * nd), dtype=complex)
        full[:nd, nd:] = B
        full[nd:, :nd] = B.conj().T
        return full

    def _product(self, h=None):
        """X -> [[0, J H], [H^H J, 0]] X for blocks of columns, with
        H[p, q] = h[p + q] and J the block-row reversal, so J H = B for the
        own coefficients.  H and H^H (block Hankel in the h[k]^H) apply as FFT
        correlations, in real arithmetic for real h.  h defaults to
        hankel_coeffs as complex, so complex X keeps its imaginary part."""
        h = self.hankel_coeffs.astype(complex, copy=False) if h is None else h
        hH = np.conj(h) if h.ndim == 1 else np.conj(h).transpose(0, 2, 1)
        N, nd = self.N, self.N * self.dim
        H, HH = _hankel_product(h, N), _hankel_product(hH, N)
        return lambda X: np.vstack([_reverse_block_rows(H(X[nd:]), N),
                                    HH(_reverse_block_rows(X[:nd], N))])

    def solve(self, method: str = "svd"):
        """(eigenvalues ascending, route, health) of the truncation.

        'svd' uses the block structure: the spectrum is +- the singular
        values of B, which are those of its block-row reversal
        H[p, q] = h[p + q].  The coefficients are rotated by the phase of
        their largest entry (a test on the 2N - 1 coefficients, not on B),
        and kept as a real array when that leaves them real.  The route is
        - "real-hankel-lowrank" for a scalar block with real rotated
          coefficients.  H is real symmetric (for the one-jump sawtooth
          c[n] = K/(2 pi i n) makes it exactly |K| times the Hilbert matrix
          1/(p + q + 1) over 2 pi), so _lowrank_eigenvalues runs on H itself,
          n = N, and the singular values are the |eigenvalues|;
        - "hankel-lowrank" for every other block (complex scalar jumps,
          zeta-model symbols, dim > 1 jumps).  _lowrank_eigenvalues runs on
          the dilation _product(h), n = 2 N d, in real arithmetic when the
          rotated coefficients are real (a matrix jump with a single phase);
          its eigenvalues are +- the singular values, which are its top N d
          Ritz values clamped at 0.
        Either certifies its values within n eps ||B|| of a dense SVD, or is
        the core's dense solve when the block is not numerically low rank.
        'eigh' is the dense cross-check, route "dense-eigh", on the
        2N d x 2N d matrix built on demand.  health is the core's record
        (basis_rank, residual_bound, fallback, products) on the two low-rank
        routes and None on "dense-eigh".
        """
        if method == "eigh":
            return np.linalg.eigvalsh(self.matrix), "dense-eigh", None
        if method != "svd":
            raise ValueError(f"unknown method {method!r}")
        nd = self.N * self.dim
        h = _phase_rotated_real(self.hankel_coeffs)
        if h is not None and self.dim == 1:
            ev, health = _lowrank_eigenvalues(_hankel_product(h, self.N), self.N, float)
            route, s = "real-hankel-lowrank", _descending_padded(np.abs(ev), nd)
        else:
            h = self.hankel_coeffs if h is None else h
            ev, health = _lowrank_eigenvalues(self._product(h), self.size, np.result_type(h, float))
            route, s = "hankel-lowrank", np.maximum(_descending_padded(ev, nd), 0.0)
        return np.sort(np.concatenate([-s, s])), route, health

    def eigenvalues(self, method: str = "svd") -> np.ndarray:
        """Spectrum of the truncation, ascending (see solve).

        'svd' gives exact +-singular-value pairs, the numerically zero ones
        exact zeros; 'eigh' diagonalizes the dense 2N d x 2N d matrix and
        serves as a cross-check.
        """
        return self.solve(method)[0]


def assemble_sho_circle(symbol: PiecewiseSymbol, N: int) -> HermitianTruncation:
    """Finite section of the symmetrised Hankel operator over modes [-N, N)."""
    if symbol.domain == "line":
        symbol = cayley_transport(symbol)
    coeffs = fourier_coefficients(symbol, 2 * N - 1)
    # B[p, q] = c[p - q - N] (row mode p - N, column mode q); its block-row
    # reversal is H[p, q] = h[p + q] with h = c[-1], ..., c[1 - 2N]
    h = coeffs[::-1][2 * N:]
    return HermitianTruncation(h, jump_locations=tuple(loc for loc, _ in symbol.jumps))


# ---------------------------------------------------------------------------
# predicted bands and the block diagonalization of jumps


@dataclass(frozen=True)
class SpectralBands:
    """Symmetric intervals [-a, a] with multiplicities, sorted by half-width."""

    entries: tuple

    def __post_init__(self):
        ent = tuple((float(a), int(m)) for a, m in self.entries)
        if any(a <= 0.0 or m < 1 for a, m in ent):
            raise ValueError("band entries need positive half-width and multiplicity")
        if list(ent) != sorted(ent, key=lambda am: -am[0]):
            raise ValueError("band entries must be sorted by descending half-width")
        object.__setattr__(self, "entries", ent)

    @property
    def max_half_width(self) -> float:
        return self.entries[0][0] if self.entries else 0.0

    def multiplicity_at(self, x: float) -> int:
        return sum(m for a, m in self.entries if a >= abs(x))

    def to_json(self) -> list:
        return [{"half_width": a, "multiplicity": m} for a, m in self.entries]


def _merge_half_widths(values):
    out = []
    for a in sorted(values, reverse=True):
        if a <= BAND_DROP_TOL:
            continue
        if out and abs(out[-1][0] - a) <= 1e-9 * max(1.0, out[-1][0]):
            out[-1][1] += 1
        else:
            out.append([a, 1])
    return SpectralBands(tuple((a, m) for a, m in out))


def predict_bands(symbol: PiecewiseSymbol) -> SpectralBands:
    """Half-widths s_n(K)/2 over all jumps; zero widths dropped, ties merged."""
    if not symbol.jumps:
        raise ValueError("band prediction needs at least one jump")
    widths = []
    for _, K in symbol.jumps:
        s = np.linalg.svd(np.atleast_2d(np.asarray(K, dtype=complex)), compute_uv=False)
        widths.extend(0.5 * s)
    return _merge_half_widths(widths)


def block_hat_K(K):
    """Hermitian doubling [[0, -i K*], [i K, 0]] and its eigenvalues."""
    K = _as_matrix(K)
    d = K.shape[0]
    hat = np.zeros((2 * d, 2 * d), dtype=complex)
    hat[:d, d:] = -1j * K.conj().T
    hat[d:, :d] = 1j * K
    return hat, np.linalg.eigvalsh(hat)


def hat_K_eigenvectors(K):
    """Eigenvectors (s_n a_n, +-i K a_n) of the doubled block from the SVD of K.

    Returns a list of (eigenvalue, vector) pairs for the singular values above
    1e-10 max(1, s_0); warns when two of them are that close (individual
    vectors then only span the right eigenspaces jointly).
    """
    K = _as_matrix(K)
    _, s, vh = np.linalg.svd(K)
    tol = 1e-10 * max(1.0, s[0])
    if len(s) > 1 and np.any(np.abs(np.diff(s)) < tol):
        warnings.warn("degenerate singular values: eigenvectors span the eigenspace jointly",
                      stacklevel=2)
    pairs = []
    for n in range(len(s)):
        if s[n] <= tol:
            continue
        a = vh[n].conj()
        for sign in (+1.0, -1.0):
            vec = np.concatenate([s[n] * a, sign * 1j * (K @ a)])
            pairs.append((sign * s[n], vec))
    return pairs


# ---------------------------------------------------------------------------
# singular weights and compactness diagnostics


def q0_weight(y):
    """Logarithmically vanishing factor: 1/|log|y|| inside |y| < 1/e, else 1."""
    y = np.asarray(y, dtype=float)
    r = np.abs(y)
    out = np.ones_like(r)
    inner = r < math.e ** -1
    small = r[inner]
    vals = np.zeros_like(small)
    pos = small > 0
    vals[pos] = 1.0 / np.abs(np.log(small[pos]))
    out[inner] = vals
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class WeightQ:
    """Product of q0 factors centered at singular points."""

    singular_points: tuple
    domain: str = "circle"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x, dtype=float)
        for p in self.singular_points:
            if self.domain == "circle":
                d = np.abs(_wrap_angle(x - p))
                d = np.minimum(d, TWO_PI - d)
            else:
                d = x - p
            out = out * q0_weight(d)
        return out


def _sample_angles(N):
    # half-offset dual grid: never collides with mode-aligned jump points,
    # so singular weights stay finite
    return TWO_PI * (np.arange(2 * N) + 0.5) / (2 * N)


def _to_samples(X, N, d):
    """Y with U X = -i (-1)^a Y[a] row by row, for X over modes [-N, N)
    with d components each: U[a, n] = e^{i phi_a n}/sqrt(2N) on
    phi_a = pi (2a + 1)/(2N) is that phase times an inverse FFT with the
    pre-phase e^{i pi m/(2N)} on m = n + N, so no 2N x 2N array is formed."""
    phase = np.exp(1j * math.pi * np.arange(2 * N) / (2 * N))[:, None, None]
    return np.fft.ifft(phase * X.reshape(2 * N, d, -1), axis=0, norm="ortho").reshape(X.shape)


def sandwich_singular_values(T: HermitianTruncation, w: WeightQ, beta: float) -> dict:
    """Singular values of q^{-beta} T q^{-beta} with q sampled on the dual grid.

    The mode-basis truncation is rotated to the 2N uniform circle samples,
    where the weight acts diagonally: A = S U T U^H S with S = q^{-beta}.
    A is Hermitian, so its singular values are the |eigenvalues| that
    _lowrank_eigenvalues gives from products alone, certified within
    2N d eps ||A|| (or from the core's dense fallback).  U is applied by
    FFT (_to_samples) up to a diagonal unitary on the rows, which commutes
    with S and so leaves the singular values as they are.  The report
    carries the singular values, the solver's health record and a
    tail-decay exponent for refinement comparisons: the log-log slope over
    the top max(8, 2N d / 8) values, fitted only to those above the
    roundoff floor 2N d eps sigma_max (nan when fewer than two are).
    """
    beta = float(beta)
    N, d = T.N, T.dim
    n = 2 * N * d
    scale = np.repeat(w(_sample_angles(N)) ** (-beta), d)[:, None]
    phase = np.exp(1j * math.pi * np.arange(2 * N) / (2 * N))[:, None, None]
    apply_T = T._product()

    def product(V):                     # U^H is the pre-phase after an FFT
        y = np.fft.fft((scale * V).reshape(2 * N, d, -1), axis=0, norm="ortho")
        return scale * _to_samples(apply_T((phase.conj() * y).reshape(n, -1)), N, d)

    ev, health = _lowrank_eigenvalues(product, n, complex)
    svals = _descending_padded(np.abs(ev), n)
    top = svals[: max(8, n // 8)]
    top = top[top > n * np.finfo(float).eps * svals[0]]         # above roundoff
    slope = math.nan
    if top.size > 1:
        slope = np.polyfit(np.log(np.arange(1, top.size + 1)), np.log(top), 1)[0]
    return {"beta": beta, "N": N, "singular_values": svals, "tail_exponent": float(slope),
            "health": health}


def compactness_refinement(symbol_diff: PiecewiseSymbol, w: WeightQ, beta: float,
                           Ns, tracked: int = 48) -> dict:
    """Weighted singular values of a difference symbol along an N ladder.

    Flags, per tracked index, whether the values decrease with refinement;
    growth at the tracked indices is the non-compactness signal.
    max_growth_ratio is the largest last-rung / first-rung ratio over the
    tracked indices whose first-rung value lies above that rung's roundoff
    floor 2N d eps sigma_max (nan when none does): below it the value, or
    the exact zero past the solver's basis, measures nothing.  health holds
    the sandwich solver's record for each rung.
    """
    reports = []
    for N in Ns:
        T = assemble_sho_circle(symbol_diff, N)
        reports.append(sandwich_singular_values(T, w, beta))
    k = min(tracked, min(len(r["singular_values"]) for r in reports))
    table = np.vstack([r["singular_values"][:k] for r in reports])
    decreasing = np.all(np.diff(table, axis=0) <= 1e-12 + 1e-6 * table[:-1], axis=0)
    first = reports[0]["singular_values"]
    resolved = table[0] > first.size * np.finfo(float).eps * first[0]
    growth = table[-1, resolved] / table[0, resolved]
    return {
        "Ns": list(Ns),
        "beta": beta,
        "tracked": k,
        "values": table,
        "decreasing_per_index": decreasing,
        "all_decreasing": bool(np.all(decreasing)),
        "max_growth_ratio": float(np.max(growth)) if growth.size else math.nan,
        "health": [r["health"] for r in reports],
    }


# ---------------------------------------------------------------------------
# spectral-window evolution


def window_evolution(evals, evecs, f, masks, times, eps0: float = AC_PROXY_EPS) -> dict:
    """Mass of exp(-i A t) P f in each window, A = evecs diag(evals) evecs^H.

    The columns of evecs are orthonormal eigenvectors of the Hermitian A,
    written like f in an orthonormal basis of frame vectors; P projects onto
    those with |eigenvalue| > eps0 (the numerically nonzero part of the
    spectrum).  Each window is a boolean mask over the rows, the frame
    vectors spanning it; its mass at time t is the squared norm of those
    rows of the evolved state.  All times go through one GEMM per window.
    """
    times = np.asarray(times, dtype=float)
    keep = np.abs(evals) > eps0
    evals, evecs = evals[keep], evecs[:, keep]
    coeff = _inner(evecs, np.asarray(f, dtype=complex))
    phases = np.exp(-1j * np.outer(times, evals)) * coeff
    masses = [np.sum(np.abs(phases @ evecs[mask].T) ** 2, axis=1) for mask in masks]
    return {
        "times": times,
        "masses": masses,
        "projected_norm2": float(np.sum(np.abs(coeff) ** 2)),
        "ac_proxy_dim": int(np.sum(keep)),
    }


def localization_evolution(T: HermitianTruncation, f: np.ndarray, window, times,
                           eps0: float = AC_PROXY_EPS) -> dict:
    """Mass of the evolved state inside an angular window of the circle.

    f is given over the Fourier modes of T and projected onto the
    eigenvectors with |eigenvalue| > eps0 before evolving; the window is an
    (angle_lo, angle_hi) pair on the dual sample grid.  The eigenpairs are
    those of _lowrank_eigenvalues on the product of T; if it certified a
    basis only to a residual_bound above eps0, the eigenvalues asked for are
    not resolved and they come from eigh of the dense matrix instead.
    Eigenvectors and f are moved to the sample grid by FFT (_to_samples),
    where the window is the set of rows at its angles.  The report carries
    the core's health record, and no_ac_case, true when T has no
    jump_locations.
    """
    (evals, evecs), health = _lowrank_eigenvalues(T._product(), T.size, complex, vectors=True)
    if health["residual_bound"] is not None and eps0 < health["residual_bound"]:
        evals, evecs = np.linalg.eigh(T.matrix)
    phi = _sample_angles(T.N)
    lo, hi = window
    inside = _wrap_angle(phi - lo) <= _wrap_angle(hi - lo)
    out = window_evolution(evals, _to_samples(evecs, T.N, T.dim),
                           _to_samples(np.asarray(f, dtype=complex), T.N, T.dim),
                           [np.repeat(inside, T.dim)], times, eps0)
    return {
        "times": out["times"],
        "mass": out["masses"][0],
        "projected_norm2": out["projected_norm2"],
        "ac_proxy_dim": out["ac_proxy_dim"],
        "no_ac_case": not T.jump_locations,
        "health": health,
    }

