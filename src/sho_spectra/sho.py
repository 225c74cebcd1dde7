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

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import zeta_kernel

TWO_PI = 2.0 * math.pi
JUMP_ALIGN_TOL = 1e-12
BAND_DROP_TOL = 1e-12
AC_PROXY_EPS = 1e-6
LOWRANK_BLOCK = 16          # columns added to the Ritz basis per step
LOWRANK_POWER_STEPS = 2     # power steps with P H P per block
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
    limit_at_infinity: object = 0.0
    label: str = ""

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
            out = out + (np.multiply.outer(base, K) if self.dim > 1 else base * K)
        return out

    def values(self, x):
        """Symbol values; shape (n,) for scalars, (n, dim, dim) otherwise."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        shape = (x.size,) if self.dim == 1 else (x.size, self.dim, self.dim)
        out = np.zeros(shape, dtype=complex)
        if self.domain == "line":
            lim = self.limit_at_infinity
            out += np.asarray(lim, dtype=complex) if self.dim > 1 else complex(lim)
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

    def fingerprint(self) -> str:
        payload = {
            "domain": self.domain, "dim": self.dim, "carrier": self.carrier,
            "label": self.label,
            "jumps": [[loc, np.atleast_1d(np.asarray(K, dtype=complex)).view(float).tolist()]
                      for loc, K in self.jumps],
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def _log_carrier_line(delta, beta0):
    d = np.asarray(delta, dtype=float)
    r = np.abs(d)
    g = np.zeros_like(r)
    inner = (r > 0) & (r < math.e ** -1)
    g[inner] = 1.0 - np.abs(np.log(r[inner])) ** -beta0
    return 0.5 * np.sign(d) * g


# ---------------------------------------------------------------------------
# constructors


def sawtooth_symbol(jumps, dim: int = 1, label: str = "sawtooth") -> PiecewiseSymbol:
    """Circle symbol carrying each jump on a linear sawtooth profile."""
    return PiecewiseSymbol("circle", dim=dim, jumps=tuple(jumps), carrier="sawtooth", label=label)


def model_symbol(K, lam0: float = 0.0, dim: int | None = None) -> PiecewiseSymbol:
    """Line model symbol zeta(lam - lam0) K for a single jump K at lam0."""
    Karr = np.asarray(K, dtype=complex)
    if np.max(np.abs(Karr)) == 0.0:
        raise ValueError("model symbol requires a nonzero jump")
    d = dim if dim is not None else (1 if Karr.ndim == 0 else Karr.shape[0])
    return PiecewiseSymbol("line", dim=d, jumps=((lam0, K),), carrier="zeta-model",
                           label=f"zeta-model@{lam0}")


def smooth_bump_symbol(domain: str, amplitude: float = 1.0, center: float = 0.0,
                       width: float = 1.0) -> PiecewiseSymbol:
    """Jump-free smooth symbol; its symmetrised Hankel operator is compact."""
    if domain == "circle":
        cont = lambda phi: amplitude * np.exp((np.cos(phi - center) - 1.0) / width)
    else:
        cont = lambda lam: amplitude * np.exp(-((lam - center) / width) ** 2)
    return PiecewiseSymbol(domain, dim=1, continuous_part=cont, label="smooth-bump")


def log_model_symbol(K, lam0: float = 0.0, beta0: float = 3.0) -> PiecewiseSymbol:
    """Line symbol whose jump has exactly the log-Hoelder modulus exponent beta0."""
    return PiecewiseSymbol("line", dim=1, jumps=((lam0, K),), carrier="log-model",
                           carrier_beta0=beta0, label=f"log-model-b{beta0}")


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
            jumps.append((loc, diff if a.dim > 1 else complex(diff.reshape(()))))
    for loc, Kb in b.jumps:
        try:
            a.jump_at(loc)
        except KeyError:
            jumps.append((loc, -np.asarray(Kb) if a.dim > 1 else -complex(np.asarray(Kb).reshape(()))))
    cont = lambda x, _a=a, _b=b: _a.values(x) - _b.values(x)
    return PiecewiseSymbol(a.domain, dim=a.dim, jumps=tuple(jumps), carrier=None,
                           continuous_part=cont, label=f"({a.label})-({b.label})")


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


def cayley_transport(symbol: PiecewiseSymbol) -> PiecewiseSymbol:
    """Transport a line symbol to the circle; jumps keep their matrices."""
    if symbol.domain != "line":
        raise ValueError("cayley_transport expects a line symbol")
    jump_angles = []
    for loc, K in symbol.jumps:
        phi = cayley_angle(loc)
        if min(phi, TWO_PI - phi) < JUMP_ALIGN_TOL:
            raise ValueError("transported jump lands at mu = 1 (the point at infinity)")
        jump_angles.append((phi, K))

    lim = symbol.limit_at_infinity

    def circle_values(phi, _sym=symbol, _lim=lim):
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        wrapped = _wrap_angle(phi)
        at_inf = np.minimum(wrapped, TWO_PI - wrapped) < 1e-14
        safe = np.where(at_inf, math.pi, wrapped)
        vals = _sym.values(line_coordinate(safe))
        if _sym.dim == 1:
            return np.where(at_inf, complex(_lim), vals)
        vals[at_inf] = np.asarray(_lim, dtype=complex)
        return vals

    return PiecewiseSymbol("circle", dim=symbol.dim, jumps=tuple(jump_angles), carrier=None,
                           continuous_part=circle_values, label=f"cayley({symbol.label})")


# ---------------------------------------------------------------------------
# Fourier side


def fourier_coefficients(symbol: PiecewiseSymbol, num_modes: int, oversample: int = 8):
    """Coefficients c[n], |n| <= num_modes, jump part exact plus FFT remainder.

    Each declared jump is peeled off on a sawtooth profile whose coefficients
    K e^{-i n phi_l}/(2 pi i n) are closed-form; the continuous remainder is
    sampled on 2^k >= 8*num_modes uniform points (two-sided mean at jumps by
    carrier construction) and transformed by FFT.  Without the peel-off the
    O(1/n) coefficient tail of a jump symbol aliases at O(n/n_samples^2),
    which is why oversample < 4 is rejected.
    Returns (coeffs, offset) with c[n] = coeffs[n + offset].
    """
    if symbol.domain != "circle":
        raise ValueError("fourier_coefficients expects a circle symbol")
    if oversample < 4:
        raise ValueError("oversample factor below 4 aliases the coefficient tail")
    n = np.arange(-num_modes, num_modes + 1)
    shape = (n.size,) if symbol.dim == 1 else (n.size, symbol.dim, symbol.dim)
    coeffs = np.zeros(shape, dtype=complex)
    nz = n != 0
    base = np.zeros(n.size, dtype=complex)
    for loc, K in symbol.jumps:
        base[nz] = np.exp(-1j * n[nz] * loc) / (2j * math.pi * n[nz])
        coeffs += np.multiply.outer(base, K) if symbol.dim > 1 else base * K

    needs_fft = symbol.continuous_part is not None or (symbol.jumps and symbol.carrier != "sawtooth")
    if needs_fft:
        n_samples = 1 << max(int(math.ceil(math.log2(max(8 * num_modes, 2 * oversample * num_modes, 16)))), 4)
        phi = TWO_PI * np.arange(n_samples) / n_samples
        vals = symbol.values(phi)
        for loc, K in symbol.jumps:
            saw = _sawtooth(phi - loc)
            vals -= np.multiply.outer(saw, K) if symbol.dim > 1 else saw * K
        spec = np.fft.fft(vals, axis=0) / n_samples
        idx = np.concatenate([np.arange(-num_modes, 0) % n_samples, np.arange(0, num_modes + 1)])
        coeffs += spec[idx]
    return coeffs, num_modes


def _hankel_product(h, N):
    """X -> H X for the N x N Hankel matrix H[p, q] = h[p + q], by FFT.

    (H x)[p] = sum_q h[p + q] x[q] is entry N - 1 + p of the convolution of
    h with x reversed; a transform length L >= 2N - 1 keeps those entries
    free of wrap-around, so no N x N array is formed.
    """
    L = 1 << (2 * N - 2).bit_length()
    h_hat = np.fft.rfft(h, L)

    def product(X):
        X_hat = np.fft.rfft(X[::-1], L, axis=0)
        return np.fft.irfft(h_hat[:, None] * X_hat, L, axis=0)[N - 1:2 * N - 1]

    return product


def _complement_basis(Q, X):
    """Orthonormal basis of the span of X with the span of Q projected out
    (two Gram-Schmidt passes against Q keep it orthogonal to working precision)."""
    for _ in range(2):
        X = np.linalg.qr(X - Q @ (Q.T @ X))[0]
    return X


def _spectral_norm(A) -> float:
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def real_hankel_singular_values(h):
    """Singular values of the real N x N Hankel matrix H[p, q] = h[p + q].

    h holds the 2N - 1 coefficients.  H is symmetric, so its singular values
    are |eigenvalues|.  A Rayleigh-Ritz basis Q grows in blocks of
    LOWRANK_BLOCK columns, every product with H being an FFT correlation of
    h.  With P = I - Q Q^T and T = Q^T H Q, H - Q T Q^T has the
    off-diagonal part P H Q and the complement part P H P, so by Weyl's
    inequality the Ritz values of T, padded with zeros, lie within
    ||P H Q|| + ||P H P|| of the eigenvalues of H.  The first term is exact
    (from H Q, already computed).  The second is estimated by ||P H P Z||,
    where the next block Z starts from seeded Gaussian columns and takes
    LOWRANK_POWER_STEPS power steps with P H P.  The basis stops growing
    once this residual bound is at most N eps ||T||; if it would pass N / 4
    columns first, H is built from h and the result is |eigvalsh(H)|.

    Returns the singular values, descending, and a health record:
    basis_rank (columns of Q), residual_bound (None after the dense
    fallback) and fallback.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size % 2 == 0:
        raise ValueError("an N x N Hankel matrix has 2N - 1 coefficients")
    N = (h.size + 1) // 2
    product = _hankel_product(h, N)
    rng = np.random.default_rng(LOWRANK_SEED)
    scale = N * np.finfo(float).eps
    Q, HQ, T = np.zeros((N, 0)), np.zeros((N, 0)), np.zeros((0, 0))
    while Q.shape[1] + LOWRANK_BLOCK <= N // 4:
        Z = _complement_basis(Q, rng.standard_normal((N, LOWRANK_BLOCK)))
        for _ in range(LOWRANK_POWER_STEPS):
            Z = _complement_basis(Q, product(Z))
        HZ = product(Z)
        C = Q.T @ HZ
        inner = _spectral_norm(HZ - Q @ C)          # ||P H P Z||, Z = P Z orthonormal
        # the Frobenius norm bounds ||T|| from above: a cheap necessary test
        if inner <= scale * np.linalg.norm(T):
            ritz = np.linalg.eigvalsh(T)
            bound = inner + _spectral_norm(HQ - Q @ T)
            if bound <= scale * np.max(np.abs(ritz), initial=0.0):
                s = np.zeros(N)
                s[:ritz.size] = np.sort(np.abs(ritz))[::-1]
                return s, {"basis_rank": Q.shape[1], "residual_bound": bound, "fallback": False}
        D = Z.T @ HZ
        T = np.block([[T, C], [C.T, 0.5 * (D + D.T)]])
        Q, HQ = np.hstack([Q, Z]), np.hstack([HQ, HZ])
    s = np.sort(np.abs(np.linalg.eigvalsh(sliding_window_view(h, N)[:N])))[::-1]
    return s, {"basis_rank": Q.shape[1], "residual_bound": None, "fallback": True}


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
    """Finite section over Fourier modes [-N, N), stored through its
    lower-left block B (negative-mode rows, nonnegative-mode columns).

    A scalar block from assemble_sho_circle also carries hankel_coeffs, the
    2N - 1 coefficients h[k] = c[-1 - k] of its row reversal
    H[p, q] = h[p + q]; hand-built blocks leave it None.
    """

    block: np.ndarray
    N: int
    dim: int = 1
    meta: dict = field(default_factory=dict)
    hankel_coeffs: np.ndarray | None = None

    @property
    def size(self) -> int:
        return 2 * self.N * self.dim

    @property
    def matrix(self) -> np.ndarray:
        nd = self.N * self.dim
        full = np.zeros((2 * nd, 2 * nd), dtype=complex)
        full[:nd, nd:] = self.block
        full[nd:, :nd] = self.block.conj().T
        return full

    def solver_route(self, method: str = "auto"):
        """Route that eigenvalues(method) takes, and the operand it works on.

        'eigh' is the dense cross-check: route "dense-eigh", whose 2N x 2N
        matrix is built on demand (None here).  'svd' and 'auto' use the
        block structure: the spectrum is +- the singular values of B.
        Reversing the rows of the Toeplitz block B[p, q] = c[p - q - N]
        gives the symmetric Hankel matrix H[p, q] = h[p + q] with
        h[k] = c[-1 - k], which assemble_sho_circle keeps as hankel_coeffs.
        The 2N - 1 coefficients are rotated by the phase of the largest one;
        if they are then real, H is real symmetric and the route is
        "real-hankel-lowrank" on the real coefficients (see
        real_hankel_singular_values): its spectrum lies within
        N eps ||H|| of dense eigvalsh, or it is dense eigvalsh when H is not
        numerically low rank.  For the one-jump sawtooth, c[n] = K/(2 pi i n)
        makes H exactly |K| times the Hilbert matrix 1/(p + q + 1) over
        2 pi.  Blocks that stay complex, matrix jumps and hand-built blocks
        take "block-svd"; a block that the same rotation makes real (a matrix
        jump with a single phase) goes to the SVD as a real array.
        """
        if method == "eigh":
            return "dense-eigh", None
        if method not in ("auto", "svd"):
            raise ValueError(f"unknown method {method!r}")
        if self.hankel_coeffs is None:
            B = _phase_rotated_real(self.block)
            return "block-svd", self.block if B is None else B
        h = _phase_rotated_real(self.hankel_coeffs)
        return ("block-svd", self.block) if h is None else ("real-hankel-lowrank", h)

    def solve(self, method: str = "auto"):
        """(eigenvalues ascending, route, health) of the truncation.

        health is the record of real_hankel_singular_values on the
        "real-hankel-lowrank" route and None on the others.
        """
        route, M = self.solver_route(method)
        if route == "dense-eigh":
            return np.linalg.eigvalsh(self.matrix), route, None
        health = None
        if route == "real-hankel-lowrank":
            s, health = real_hankel_singular_values(M)
        else:
            s = np.linalg.svd(M, compute_uv=False)
        return np.sort(np.concatenate([-s, s])), route, health

    def eigenvalues(self, method: str = "auto") -> np.ndarray:
        """Spectrum of the truncation, ascending.

        'svd' and 'auto' are the same structured route (see solver_route);
        eigenvalues come in exact +-singular-value pairs, and on the
        real-Hankel route the numerically zero ones are exact zeros.  'eigh'
        diagonalizes the dense 2N x 2N matrix and serves as a cross-check.
        """
        return self.solve(method)[0]


def assemble_sho_circle(symbol: PiecewiseSymbol, N: int, oversample: int = 8) -> HermitianTruncation:
    """Finite section of the symmetrised Hankel operator over modes [-N, N)."""
    if symbol.domain == "line":
        symbol = cayley_transport(symbol)
    coeffs, _ = fourier_coefficients(symbol, 2 * N - 1, oversample)
    # B[p, q] = c[p - q - N] (row mode p - N, column mode q); its row reversal
    # H[p, q] = h[p + q] is a read-only Hankel view of h = c[-1], ..., c[1 - 2N]
    h = coeffs[::-1][2 * N:]
    H = sliding_window_view(h, N, axis=0)[:N]
    if symbol.dim == 1:
        block, hankel_coeffs = H[::-1], h
    else:
        blocks = H[::-1]                         # (N, d, d, N)
        block = blocks.transpose(0, 1, 3, 2).reshape(N * symbol.dim, N * symbol.dim)
        hankel_coeffs = None
    meta = {"symbol": symbol.fingerprint(), "label": symbol.label, "oversample": oversample,
            "jump_locations": [loc for loc, _ in symbol.jumps]}
    return HermitianTruncation(block=block, N=N, dim=symbol.dim, meta=meta,
                               hankel_coeffs=hankel_coeffs)


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


def hat_K_eigenvectors(K, degenerate_tol: float = 1e-10):
    """Eigenvectors (s_n a_n, +-i K a_n) of the doubled block from the SVD of K.

    Returns a list of (eigenvalue, vector) pairs for the nonzero singular
    values; warns when singular values are degenerate (individual vectors
    then only span the right eigenspaces jointly).
    """
    K = _as_matrix(K)
    _, s, vh = np.linalg.svd(K)
    if len(s) > 1 and np.any(np.abs(np.diff(s)) < degenerate_tol * max(1.0, s[0])):
        warnings.warn("degenerate singular values: eigenvectors span the eigenspace jointly",
                      stacklevel=2)
    pairs = []
    for n in range(len(s)):
        if s[n] <= degenerate_tol * max(1.0, s[0]):
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


def _mode_to_sample_unitary(N, dim, phi=None):
    # rows at the sample angles phi (default: the whole dual grid)
    phi = _sample_angles(N) if phi is None else phi
    n = np.arange(-N, N)
    U = np.exp(1j * np.outer(phi, n)) / math.sqrt(2 * N)
    if dim > 1:
        U = np.kron(U, np.eye(dim))
    return U


def sandwich_singular_values(T: HermitianTruncation, w: WeightQ, beta: float) -> dict:
    """Singular values of q^{-beta} T q^{-beta} with q sampled on the dual grid.

    The mode-basis truncation is rotated to the 2N uniform circle samples,
    where the weight acts diagonally.  The rotated sandwich is Hermitian, so
    its singular values are the |eigenvalues| of a symmetric eigensolver.
    The report carries the singular values and a crude tail-decay exponent
    for refinement comparisons.
    """
    beta = float(beta)
    N = T.N
    phi = _sample_angles(N)
    q = w(phi)
    scale = np.repeat(q ** (-beta), T.dim)
    U = _mode_to_sample_unitary(N, T.dim)
    nd = N * T.dim
    X = U[:, :nd] @ T.block @ U[:, nd:].conj().T      # U T U^H = X + X^H
    A = (scale[:, None] * (X + X.conj().T)) * scale[None, :]
    svals = np.sort(np.abs(np.linalg.eigvalsh(A)))[::-1]
    k = np.arange(1, len(svals) + 1)
    top = svals[: max(8, len(svals) // 8)]
    with np.errstate(divide="ignore"):
        slope = np.polyfit(np.log(k[: len(top)]), np.log(np.maximum(top, 1e-300)), 1)[0]
    return {"beta": beta, "N": N, "singular_values": svals, "tail_exponent": float(slope)}


def compactness_refinement(symbol_diff: PiecewiseSymbol, w: WeightQ, beta: float,
                           Ns, tracked: int = 48, oversample: int = 8) -> dict:
    """Weighted singular values of a difference symbol along an N ladder.

    Flags, per tracked index, whether the values decrease with refinement;
    growth at the tracked indices is the non-compactness signal.
    """
    reports = []
    for N in Ns:
        T = assemble_sho_circle(symbol_diff, N, oversample)
        reports.append(sandwich_singular_values(T, w, beta))
    k = min(tracked, min(len(r["singular_values"]) for r in reports))
    table = np.vstack([r["singular_values"][:k] for r in reports])
    decreasing = np.all(np.diff(table, axis=0) <= 1e-12 + 1e-6 * table[:-1], axis=0)
    return {
        "Ns": list(Ns),
        "beta": beta,
        "tracked": k,
        "values": table,
        "decreasing_per_index": decreasing,
        "all_decreasing": bool(np.all(decreasing)),
        "max_growth_ratio": float(np.max(table[-1] / np.maximum(table[0], 1e-300))),
    }


# ---------------------------------------------------------------------------
# spectral-window evolution


def window_evolution(evals, evecs, f, windows, times, eps0: float = AC_PROXY_EPS) -> dict:
    """Mass of exp(-i A t) P f in each window, A = evecs diag(evals) evecs^H.

    The columns of evecs are orthonormal eigenvectors of the Hermitian A; P
    projects onto those with |eigenvalue| > eps0 (the numerically nonzero part
    of the spectrum).  Each window is a matrix whose rows are the frame vectors
    spanning it; its mass at time t is the squared norm of those rows applied
    to the evolved state.  All times go through one GEMM per window.
    """
    times = np.asarray(times, dtype=float)
    keep = np.abs(evals) > eps0
    evals, evecs = evals[keep], evecs[:, keep]
    coeff = evecs.conj().T @ np.asarray(f, dtype=complex)
    phases = np.exp(-1j * np.outer(times, evals)) * coeff
    masses = [np.sum(np.abs(phases @ (W @ evecs).T) ** 2, axis=1) for W in windows]
    return {
        "times": times,
        "masses": masses,
        "projected_norm2": float(np.sum(np.abs(coeff) ** 2)),
        "ac_proxy_dim": int(np.sum(keep)),
    }


def localization_evolution(T: HermitianTruncation, f: np.ndarray, window, times,
                           eps0: float = AC_PROXY_EPS) -> dict:
    """Mass of the evolved state inside an angular window of the circle.

    The eigenpairs come from the block: with B = U S V^H, the vectors
    (u_k, +-v_k)/sqrt(2) have eigenvalues +-s_k.  f is projected onto the
    eigenvectors with |eigenvalue| > eps0 before evolving; the window is an
    (angle_lo, angle_hi) pair on the dual sample grid.
    """
    u, s, vh = np.linalg.svd(T.block)
    v = vh.conj().T
    evecs = np.block([[u, u], [v, -v]]) / math.sqrt(2.0)
    phi = _sample_angles(T.N)
    lo, hi = window
    inside = _wrap_angle(phi - lo) <= _wrap_angle(hi - lo)
    frame = _mode_to_sample_unitary(T.N, T.dim, phi[inside])
    out = window_evolution(np.concatenate([s, -s]), evecs, f, [frame], times, eps0)
    return {
        "times": out["times"],
        "mass": out["masses"][0],
        "projected_norm2": out["projected_norm2"],
        "ac_proxy_dim": out["ac_proxy_dim"],
        "no_ac_case": not T.meta.get("jump_locations", []),
    }


def time_averaged_window_mass(T: HermitianTruncation, f: np.ndarray, window,
                              horizon: float, samples: int = 48, eps0: float = AC_PROXY_EPS) -> float:
    """Average window mass over [horizon, 2 horizon]."""
    times = np.linspace(horizon, 2.0 * horizon, samples)
    return float(np.mean(localization_evolution(T, f, window, times, eps0)["mass"]))
