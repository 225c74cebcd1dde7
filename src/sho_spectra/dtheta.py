"""Differences theta(H) - theta(H0) on finite lattice boxes.

H0 is the Dirichlet truncation of the hopping operator u(n+1) + u(n-1) on a
centered box, H adds the finite-support potential V.  theta is a continuous
base plus finitely many jump steps, and D = theta(H) - theta(H0) splits the
same way.  Each jump is a difference of two signs, and Zolotarev's best
rational approximant to sign on the gap around the jump turns it into a few
dozen resolvents at poles on the vertical line through the jump; the
resolvent identity R - R0 = -R V R0 and Krein's formula write each through
the free resolvent alone, and H0 has a closed-form sine eigenbasis, so the
step part of D applies to a block of vectors without solving anything of
size N.  The continuous part is local: the bases are analytic, a Chebyshev
polynomial of degree m resolves them to roundoff, and p(H) - p(H0) only
couples sites within m of supp V, so it is a dense block on a window of
about 2m + |supp V| sites whatever N is.  This "contour-factor" route hands
the summed product to the low-rank Rayleigh-Ritz core of the sho module,
which forms an N x N array only when D is not numerically low rank; it is
the one route for every base.  dtheta_matrix applies theta through the
eigendecompositions of H and H0; it is kept as the cross-check.  Predicted
spectral bands come from the scattering matrix at the jump energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, dst
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from . import fields
from .scattering1d import LatticeModel, ScatteringData, smatrix
from .sho import (AC_PROXY_EPS, SpectralBands, _lowrank_eigenvalues, _merge_half_widths,
                  window_evolution)

JUMP_TOL = 1e-12
NUDGE_MAX = 1e-8

# Each jump replaces sign by Zolotarev's best rational approximant on
# [ell, 1], of the degree whose closed-form error is SIGN_EPS; an error
# above SIGN_TOL at the extremal points raises SignApproximationError.
SIGN_EPS = 1e-15
SIGN_TOL = 1e-13
# The continuous part of theta is cut to Chebyshev degree m on [-R, R],
# R = 2 + max |v|: the last coefficient above WINDOW_CUTOFF of the largest.
# The coefficients have a noise floor near 1e-15 of the largest, so a cutoff
# much closer to eps never settles.  The window adds WINDOW_MARGIN sites.
WINDOW_CUTOFF = 1e-14
WINDOW_MARGIN = 16


class JumpCollisionError(RuntimeError):
    """An eigenvalue of the box operator sits on a jump of theta."""


class SignApproximationError(RuntimeError):
    """Zolotarev's approximant misses sign by more than SIGN_TOL."""


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-continuous real function with finitely many jumps.

    base selects the continuous part: 'step' is the constant l_minus (pure
    jump steps on top), 'smooth' a Gaussian bump, 'tanh-window' a smoothed
    plateau, 'linear' the identity (diagnostics only, unbounded).
    """

    jumps: tuple = ()
    base: str = "step"
    l_minus: float = 0.0

    def __post_init__(self):
        jumps = tuple((float(l), float(k)) for l, k in self.jumps)
        if any(k == 0.0 for _, k in jumps):
            raise ValueError("jumps must be nonzero")
        locs = [l for l, _ in jumps]
        if len(set(locs)) != len(locs):
            raise ValueError("jump locations must be distinct")
        if self.base not in ("step", "smooth", "tanh-window", "linear"):
            raise ValueError(f"unknown base preset {self.base!r}")
        object.__setattr__(self, "jumps", jumps)

    @property
    def l_plus(self) -> float:
        return self.l_minus + sum(k for _, k in self.jumps)

    def _base_values(self, lam):
        if self.base == "step":
            return np.full_like(lam, self.l_minus)
        if self.base == "smooth":
            return self.l_minus + np.exp(-4.0 * lam ** 2)
        if self.base == "linear":
            return self.l_minus + lam
        return self.l_minus + 0.5 * (np.tanh(4.0 * (lam + 1.0)) - np.tanh(4.0 * (lam - 1.0)))

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = self._base_values(lam)
        for loc, kappa in self.jumps:
            out = out + kappa * (lam > loc)
        return out

    def sup_abs(self) -> float:
        """max |theta| on 4001 points of [-4, 4]."""
        return float(np.max(np.abs(self(np.linspace(-4.0, 4.0, 4001)))))

    def shifted(self, offsets: dict) -> "StepFunction":
        jumps = tuple((l + offsets.get(l, 0.0), k) for l, k in self.jumps)
        return StepFunction(jumps, self.base, self.l_minus)

    @classmethod
    def from_dict(cls, data: dict) -> "StepFunction":
        """Step function from a theta.json payload; a malformed field raises
        ConfigError (a ValueError) naming it."""
        jumps = tuple((fields.number(j, "lambda", f"theta.jumps[{i}]"),
                       fields.number(j, "kappa", f"theta.jumps[{i}]"))
                      for i, j in enumerate(fields.items(data, "jumps", "theta")))
        base = data.get("base", "step")
        limits = data.get("limits")
        if limits is not None:
            if not (isinstance(limits, list) and len(limits) == 2):
                raise fields.ConfigError(f"theta.limits = {limits!r} is not a [lower, upper] pair",
                                         ["theta.limits"])
            limits = [fields.as_number(v, f"theta.limits[{k}]") for k, v in enumerate(limits)]
        try:
            obj = cls(jumps, base, limits[0] if limits else 0.0)
        except ValueError as exc:
            raise fields.ConfigError(f"theta: {exc}", ["theta.jumps", "theta.base"]) from None
        if limits is not None and base == "step" and abs(obj.l_plus - limits[1]) > 1e-12:
            raise fields.ConfigError(f"theta.limits = {limits} inconsistent with jump sum "
                                     f"{obj.l_plus - obj.l_minus!r}", ["theta.limits"])
        return obj

    def to_dict(self) -> dict:
        return {"jumps": [{"lambda": l, "kappa": k} for l, k in self.jumps],
                "base": self.base, "limits": [self.l_minus, self.l_plus]}


# ---------------------------------------------------------------------------
# finite boxes


@dataclass
class BoxPair:
    """Dirichlet box of size N for the pair (free hopping, hopping + V).

    Lattice sites n are mapped to indices N//2 + n, so the potential sits at
    the center of the box.
    """

    N: int
    model: LatticeModel

    def __post_init__(self):
        supp = self.model.support
        if supp is not None:
            lo, hi = self.N // 2 + supp[0], self.N // 2 + supp[1]
            if lo < 0 or hi >= self.N:
                raise ValueError("potential support does not fit in the box")

    def diagonal(self, perturbed: bool) -> np.ndarray:
        d = np.zeros(self.N)
        if perturbed:
            for n, v in self.model.potential.items():
                d[self.N // 2 + n] = v
        return d

    def eigensystem(self, perturbed: bool):
        return eigh_tridiagonal(self.diagonal(perturbed), np.ones(self.N - 1))


def _check_collisions(eigs, theta: StepFunction):
    for loc, _ in theta.jumps:
        d = np.min(np.abs(eigs - loc))
        if d < JUMP_TOL:
            raise JumpCollisionError(f"eigenvalue within {d:.1e} of the jump at {loc}")


def _nudged(theta: StepFunction, distance, seed: int):
    """theta with every jump closer than JUMP_TOL to a box eigenvalue moved by
    a seeded random offset <= NUDGE_MAX (below the level spacing, invisible at
    band scale), and the offsets applied.  distance(loc) is the distance from
    loc to the spectra of both H and H0; dtheta_matrix and dtheta_eigenpairs
    both draw through here, so a seed gives them the same offsets.
    """
    offsets = {}
    rng = np.random.default_rng(seed)
    for loc, _ in theta.jumps:
        if distance(loc) < JUMP_TOL:
            offsets[loc] = float(rng.uniform(2e-9, NUDGE_MAX) * rng.choice([-1.0, 1.0]))
    return (theta.shifted(offsets) if offsets else theta), offsets


def dtheta_matrix(pair: BoxPair, theta: StepFunction, seed: int = 0):
    """D = theta(H) - theta(H0) on the box, through both eigendecompositions.

    Jumps colliding with box eigenvalues are nudged (see _nudged); the
    applied offsets are reported.
    """
    w0, U0 = pair.eigensystem(False)
    w1, U1 = pair.eigensystem(True)
    theta, offsets = _nudged(
        theta, lambda loc: min(np.min(np.abs(w0 - loc)), np.min(np.abs(w1 - loc))), seed)
    _check_collisions(w0, theta)
    _check_collisions(w1, theta)
    D = (U1 * theta(w1)) @ U1.T - (U0 * theta(w0)) @ U0.T
    return D, {"N": pair.N, "nudges": offsets, "sup_theta": theta.sup_abs()}


# ---------------------------------------------------------------------------
# low-rank factor: resolvent contour for the jumps, window block for the base


def _distance_to_spectrum(diag: np.ndarray, x: float) -> float:
    """Distance from x to the spectrum of the box operator with diagonal diag,
    or the lower bound 16/N when no eigenvalue lies that close (the free level
    spacing is below 2 pi/(N + 1))."""
    r = 16.0 / diag.size
    w = eigvalsh_tridiagonal(diag, np.ones(diag.size - 1), select="v",
                             select_range=(x - r, x + r), check_finite=False)
    return float(np.min(np.abs(w - x), initial=r))


def _free_count_above(N: int, x: float) -> int:
    """Number of free energies 2 cos(pi k/(N+1)), k = 1..N, above x: the k
    below (N+1)/pi arccos(x/2)."""
    return min(N, math.floor((N + 1) / math.pi * math.acos(min(1.0, max(-1.0, x / 2.0)))))


def _free_distance(N: int, x: float) -> float:
    """Distance from x to the free energies: the nearest is the last one
    above x or the first one below."""
    k = _free_count_above(N, x)
    ks = np.clip([k, k + 1], 1, N)
    return float(np.min(np.abs(2.0 * np.cos(np.pi / (N + 1) * ks) - x)))


def _count_above(diag: np.ndarray, x: float) -> int:
    """Number of eigenvalues above x of the box operator with diagonal diag:
    a Sturm count of the negative LDL^T pivots of H - x."""
    below, pivot = 0, math.inf
    for a in diag.tolist():
        pivot = a - x - 1.0 / pivot
        if pivot == 0.0:
            pivot = -np.finfo(float).tiny
        below += pivot < 0.0
    return diag.size - below


def _step_trace(d1: np.ndarray, theta: StepFunction) -> float:
    """trace D = sum kappa (#eig(H) > loc - #eig(H0) > loc) for a step base,
    H having the diagonal d1: a Sturm count for H, the closed form for H0."""
    return float(sum(k * (_count_above(d1, loc) - _free_count_above(d1.size, loc))
                     for loc, k in theta.jumps))


def _free_modes(N: int, idx):
    """Energies 2 cos(pi k/(N+1)), k = 1..N, of the free box H0 and the rows
    sqrt(2/(N+1)) sin(pi j k/(N+1)) of its eigenvector matrix for j = idx + 1.
    The matrix is symmetric and its own inverse; j k is reduced mod 2(N+1)
    first, so each sine argument stays below 2 pi."""
    k = np.arange(1, N + 1)
    jk = np.outer(np.asarray(idx, dtype=np.int64) + 1, k) % (2 * (N + 1))
    return (2.0 * np.cos(np.pi / (N + 1) * k),
            math.sqrt(2.0 / (N + 1)) * np.sin(np.pi / (N + 1) * jk))


def _contour_product(N: int, sites, v, zs, weights, v_weight: float):
    """X -> D X in H0 modes for a step base, from the poles zs with weights
    w_n and the weight v_weight of V (see dtheta_eigenpairs).

    In H0 modes R0 E is Y_n = phi * K[:, n], phi the sine rows at the sites
    and K[k, n] = 1/(E_k - z_n) the Cauchy matrix shared by all sites, and
    Krein's formula gives D = phi diag(v_weight v) phi^T
    + Re sum_n Y_n C_n Y_n^T with C_n = w_n (diag(1/v) + phi^T Y_n)^-1.
    K is kept as its real and imaginary parts, so every product is four
    real GEMMs with it; the V term joins the (N, s, b) block before the
    last contraction with phi.
    """
    energies, phi = _free_modes(N, sites)
    phi = phi.T  # (N, s): the H0 modes at the sites
    s, nodes = phi.shape[1], zs.size
    # 1/(E - loc - i t) = (E - loc + i t) / ((E - loc)^2 + t^2), built in place
    Kr = energies[:, None] - zs.real
    Ki = Kr * Kr
    Ki += zs.imag ** 2
    np.divide(Kr, Ki, out=Kr)
    np.divide(zs.imag, Ki, out=Ki)
    pairs = (phi[:, :, None] * phi[:, None, :]).reshape(N, s * s)
    G0 = (Kr.T @ pairs + 1j * (Ki.T @ pairs)).reshape(nodes, s, s)
    C = weights[:, None, None] * np.linalg.inv(np.diag(1.0 / v) + G0)
    vw = (v_weight * v)[:, None]

    def product(X):
        b = X.shape[1]
        Z = (phi[:, :, None] * X[:, None, :]).reshape(N, s * b)
        W = (C @ (Kr.T @ Z + 1j * (Ki.T @ Z)).reshape(nodes, s, b)).reshape(nodes, s * b)
        # Re(K W) as (W^T K^T)^T: in this order OpenBLAS leaves about 7 MB
        # less resident after the call (N = 4096, 2 threads)
        DX = (W.real.T @ Kr.T - W.imag.T @ Ki.T).T.reshape(N, s, b)
        DX += vw * (phi.T @ X)
        return np.einsum("kj,kjb->kb", phi, DX)

    return product


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a >= b > 0."""
    while a - b > 4e-16 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _zolotarev_squares(ell: float) -> np.ndarray:
    """c_i = ell^2 sc^2(i K'/(2r + 1); ell'), i = 1..2r, for Zolotarev's
    approximant to sign on [ell, 1] (see _zolotarev).

    K and K' are the complete elliptic integrals of moduli ell and
    ell' = sqrt(1 - ell^2), both from the AGM, and r is the least degree
    whose error 4 exp(-(2r + 1) pi K/K') is below SIGN_EPS.  Jacobi's
    imaginary transformation turns sc(u; ell') into -i sn(i u; ell), whose
    Fourier series in the nome exp(-pi K'/K) is written with exponents so
    that nothing overflows at ell ~ 1e-12.  For i <= r its terms fall
    faster than exp(-(2n + 1) W/2), W = pi K'/(2K), and c_{2r+1-i} =
    ell^2/c_i gives the rest.
    """
    K = math.pi / (2.0 * _agm(1.0, math.sqrt((1.0 - ell) * (1.0 + ell))))
    Kp = math.pi / (2.0 * _agm(1.0, ell))
    r = max(0, math.ceil((math.log(4.0 / SIGN_EPS) * Kp / (math.pi * K) - 1.0) / 2.0))
    W = math.pi * Kp / (2.0 * K)
    w = math.pi * Kp / (2.0 * K * (2 * r + 1)) * np.arange(1, r + 1)
    m = 2.0 * np.arange(math.ceil(40.0 / W) + 1)[:, None] + 1.0
    terms = np.exp(m * (w - W)) * np.expm1(-2.0 * m * w) / np.expm1(-2.0 * m * W)
    c = np.empty(2 * r)
    c[:r] = (math.pi / K * np.sum(terms, axis=0)) ** 2
    c[r:] = ell ** 2 / c[r - 1::-1]
    return c


def _zolotarev(ell: float):
    """Zolotarev's best odd rational approximant of type (2r + 1, 2r) to
    sign on [ell, 1], Z(x) = M x (1 + sum_j a_j/(x^2 + c_{2j-1})), with the
    c_i of _zolotarev_squares (Zolotarev 1877; Nakatsukasa and Freund, SIAM
    Rev. 2016).  The residues a_j of the partial fractions of
    prod_j (x^2 + c_{2j})/(x^2 + c_{2j-1}) are products of ratios, all
    positive (the plain products underflow at r ~ 40).  The error
    equioscillates at x_k = sqrt((ell^2 + c_k)/(1 + c_k)), k = 0..2r + 1
    (c_0 = 0, c_{2r+1} = inf), and M = 2/(min + max of Z/M over the x_k)
    makes its largest and smallest value there equally far from 1.

    Returns (c_{2j-1}, a_j, M, max |1 - Z| at the x_k); that error above
    SIGN_TOL raises SignApproximationError.
    """
    # the diagonal of ratio is 0/0; where ell^2 underflows, so are the c_i
    # and the error comes out nan, which raises below
    with np.errstate(divide="ignore", invalid="ignore"):
        c = _zolotarev_squares(ell)
        odd, even = c[0::2], c[1::2]
        ratio = (even - odd[:, None]) / (odd - odd[:, None])
        np.fill_diagonal(ratio, 1.0)
        a = (even - odd) * np.prod(ratio, axis=1)
        c = np.concatenate([[0.0], c])
        x = np.append(np.sqrt((ell ** 2 + c) / (1.0 + c)), 1.0)
        f = x * (1.0 + np.sum(a / (x[:, None] ** 2 + odd), axis=1))
        M = 2.0 / (np.min(f) + np.max(f))
        error = float(np.max(np.abs(1.0 - M * f)))
    if not error <= SIGN_TOL:
        raise SignApproximationError(f"Zolotarev sign error {error:.1e} at ell = {ell:.1e}")
    return odd, a, M, error


def _chebyshev_degree(f, R: float, limit: int) -> int:
    """Degree of the last Chebyshev coefficient of f(R x) on [-1, 1] above
    WINDOW_CUTOFF of the largest.  The coefficients are the DCT-II of f at n
    first-kind Chebyshev points; n doubles from 64 until the degree lies
    below n / 2, or the degree passes limit."""
    n = 64
    while True:
        c = np.abs(dct(f(R * np.cos(np.pi / n * (np.arange(n) + 0.5))), type=2))
        c[0] /= 2.0
        big = np.flatnonzero(c > WINDOW_CUTOFF * np.max(c))
        m = int(big[-1]) if big.size else n         # f vanishes on every point: unresolved
        if m < n // 2 or m > limit:
            return m
        n *= 2


def _window_block(pair: BoxPair, theta: StepFunction):
    """The continuous part of D as a dense block (see dtheta_eigenpairs):
    the block Dw of the base of theta alone on a centered box of W sites,
    and the sine rows phiW of H0 at those sites, shape (W, N)."""
    N, (lo, hi) = pair.N, pair.model.support
    R = 2.0 + max(abs(v) for v in pair.model.potential.values())
    m = _chebyshev_degree(StepFunction((), theta.base)._base_values, R, N // 2)
    W = min(N, 2 * (m + max(-lo, hi)) + WINDOW_MARGIN)
    Dw, _ = dtheta_matrix(BoxPair(W, pair.model), StepFunction((), theta.base, theta.l_minus))
    return Dw, _free_modes(N, N // 2 - W // 2 + np.arange(W))[1]


def dtheta_eigenpairs(pair: BoxPair, theta: StepFunction, seed: int = 0,
                      vectors: bool = False):
    """Spectrum of D = theta(H) - theta(H0) on the box, ascending, with
    eigenvectors on request, and a record of how it was computed.

    D is the sum of a step part, sum kappa (P(H > loc) - P(H0 > loc)) over
    the jumps, and the continuous part b(H) - b(H0) of the base b.

    Each jump is kappa (sign(H - loc) - sign(H0 - loc)) / 2.  With
    R = 2 + max |v| + |loc| every eigenvalue of H - loc and H0 - loc lies
    in [-R, R], and none closer to 0 than min(g, g0), g and g0 being the
    distances from loc to the spectra of H and H0; so sign(x) on
    ell <= |x| <= 1, ell = min(g, g0)/R, is replaced by Zolotarev's
    Z(x) = M x (1 + sum_j a_j/(x^2 + c_j)) (see _zolotarev; 34-39 poles
    for C9 at N = 1024..4096).  Each term is R Re 1/(R x - i R sqrt(c_j)),
    a resolvent at the pole z_j = loc + i R sqrt(c_j), so with
    R(z) - R0(z) = -R(z) V R0(z) the jump adds (kappa M/(2R)) V and
    -(kappa/2) R M a_j Re R(z_j) V R0(z_j) for each pole.  With
    V = E diag(v) E^T over the site columns E, Krein's formula gives
    R V R0 = R0 E C E^T R0, C = (diag(1/v) + E^T R0 E)^-1 of size |supp V|;
    in the sine eigenbasis of H0, R0 E is the sine rows at the sites times
    the Cauchy matrix 1/(E_k - z), built once for all poles, so the step
    part of D X, V included, is a few real GEMMs with the same sine rows
    (see _contour_product).

    A non-constant base is resolved to roundoff by its Chebyshev series of
    degree m on [-R, R], R = 2 + max |v| (m is the last coefficient above
    WINDOW_CUTOFF of the largest).  p(H) - p(H0) for a polynomial of degree
    m couples only sites within m of supp V, so b(H) - b(H0) is the dense
    block Dw = dtheta_matrix of the base alone on a centered box of
    W = min(N, 2 (m + max |n| over supp V) + WINDOW_MARGIN) sites (2m +
    span + WINDOW_MARGIN for a support centered at 0), embedded at the
    window sites: phiW^T Dw phiW X in H0 modes, phiW the sine rows at the
    window.  A 'step' base has a constant continuous part and no window.

    sho._lowrank_eigenvalues runs on the summed product: its Ritz values,
    padded with exact zeros, lie within residual_bound <= N eps max |Ritz
    value| of the eigenvalues of D.  The eigenvectors are its Ritz vectors,
    taken from H0 modes back to lattice sites by one DST-I.  Memory is the
    Cauchy matrix (2 N poles floats), phiW (W N floats) plus O(N rank).
    When D is not numerically low rank, the core's dense fallback builds D
    in H0 modes from the same product.  dtheta_matrix is the dense
    cross-check.

    Jumps within JUMP_TOL of a box eigenvalue are nudged as dtheta_matrix
    nudges them.  Returns (eigenvalues, eigenvectors, info).  eigenvectors
    is None unless vectors is set; then the eigenvalues are the factor_rank
    Ritz values with computed eigenvectors (the rest are exact zeros).
    info holds N, nudges, sup_theta, route ("contour-factor"), factor_rank
    (the number of Ritz values, N after a fallback), nodes (the pole
    count), window (W, None when the base is constant or V = 0), sign_error
    (the largest Zolotarev error over the jumps, None without poles), the
    core's residual_bound (None after a fallback) and fallback; and
    trace_defect = |sum of eigenvalues - (sum kappa (#eig(H) > loc -
    #eig(H0) > loc) + trace Dw)|, counting the eigenvalues of H by Sturm
    sequences and those of H0 in closed form, so that it does not rest on
    the contour.
    """
    N, d1 = pair.N, pair.diagonal(True)
    sites = np.flatnonzero(d1)
    v = d1[sites]

    def distance(loc):
        """Distance from loc to the spectra of H and H0."""
        return min(_distance_to_spectrum(d1, loc), _free_distance(N, loc))

    gaps = {loc: distance(loc) for loc, _ in theta.jumps}
    theta, offsets = _nudged(theta, gaps.get, seed)
    # a nudged jump's distance before the nudge is below JUMP_TOL and would
    # misplace its contour
    gaps.update((loc + off, distance(loc + off)) for loc, off in offsets.items())
    # built before the Cauchy matrix, so the transients of phiW stay below its peak
    window = _window_block(pair, theta) if theta.base != "step" and sites.size else None
    zs, weights, sign_errors, v_weight = [], [], [], 0.0
    for loc, kappa in theta.jumps:
        if gaps[loc] < JUMP_TOL:
            raise JumpCollisionError(f"eigenvalue within {gaps[loc]:.1e} of the jump at {loc}")
        if sites.size:
            R = 2.0 + np.max(np.abs(v)) + abs(loc)
            c, a, M, error = _zolotarev(gaps[loc] / R)
            zs.append(loc + 1j * R * np.sqrt(c))
            weights.append(-0.5 * kappa * R * M * a)
            v_weight += 0.5 * kappa * M / R
            sign_errors.append(error)
    zs = np.concatenate([np.zeros(0, dtype=complex), *zs])
    step = (_contour_product(N, sites, v, zs, np.concatenate(weights), v_weight)
            if zs.size else np.zeros_like)
    if window is None:
        product, window_trace = step, 0.0
    else:
        Dw, phiW = window
        window_trace = float(np.trace(Dw))

        def product(X):
            return step(X) + phiW.T @ (Dw @ (phiW @ X))

    out, health = _lowrank_eigenvalues(product, N, float, vectors=vectors)
    if vectors:
        evals, evecs = out[0], dst(out[1], type=1, norm="ortho", axis=0)
        rank = evals.size
    else:
        rank, evecs = out.size, None
        evals = np.sort(np.concatenate([out, np.zeros(N - rank)]))
    info = {"N": N, "nudges": offsets, "sup_theta": theta.sup_abs(), "route": "contour-factor",
            "factor_rank": int(rank), "nodes": int(zs.size),
            "window": None if window is None else Dw.shape[0],
            "sign_error": max(sign_errors, default=None),
            "residual_bound": health["residual_bound"], "fallback": health["fallback"],
            "trace_defect": abs(float(np.sum(evals)) - (_step_trace(d1, theta) + window_trace))}
    return evals, evecs, info


# ---------------------------------------------------------------------------
# predicted bands


def band_prediction(theta: StepFunction, scats: list) -> SpectralBands:
    """Half-widths |kappa| |sigma_n - 1| / 2 over all jumps; zeros dropped."""
    if len(scats) != len(theta.jumps):
        raise ValueError("need one scattering datum per jump")
    widths = []
    for (loc, kappa), sd in zip(theta.jumps, scats):
        if abs(sd.lam - loc) > 1e-9:
            raise ValueError(f"scattering datum at {sd.lam} does not match jump at {loc}")
        for sig in sd.sigmas:
            widths.append(0.5 * abs(kappa) * abs(sig - 1.0))
    return _merge_half_widths(widths)


def model_jump_operator(kappa: float, scat: ScatteringData) -> np.ndarray:
    """Jump matrix kappa (S - I) of the model symbol at one jump energy."""
    return kappa * (scat.S - np.eye(2))


def jump_operator_consistency(theta: StepFunction, scats: list) -> float:
    """Max gap between s_n(kappa (S-I))/2 and the predicted half-widths."""
    bands = band_prediction(theta, scats)
    expected = []
    for a, m in bands.entries:
        expected.extend([a] * m)
    got = []
    for (_, kappa), sd in zip(theta.jumps, scats):
        s = np.linalg.svd(model_jump_operator(kappa, sd), compute_uv=False)
        got.extend(0.5 * s)
    got = sorted((g for g in got if g > 1e-12), reverse=True)
    if len(got) != len(expected):
        return math.inf
    if not expected:
        return 0.0
    return float(np.max(np.abs(np.array(got) - np.array(expected))))


# ---------------------------------------------------------------------------
# reports


def band_filling_report(eigs: np.ndarray, bands: SpectralBands, N: int) -> dict:
    """Counts of eigenvalues inside/outside the predicted bands.

    18 equal bins cover [-a_max, a_max]; the outside count takes
    |e| > a_max + 0.05, and nonzero_count the |e| > AC_PROXY_EPS.
    """
    eigs = np.asarray(eigs, dtype=float)
    a_max = bands.max_half_width
    inside_edges = np.linspace(-a_max, a_max, 19)
    counts, _ = np.histogram(eigs, bins=inside_edges)
    outside = eigs[np.abs(eigs) > a_max + 0.05]
    max_abs = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return {
        "N": N,
        "a_max": a_max,
        "max_abs_eig": max_abs,
        "edge_gap": a_max - max_abs,
        "nonzero_count": int(np.sum(np.abs(eigs) > AC_PROXY_EPS)),
        "bin_edges": inside_edges,
        "bin_counts": counts,
        "n_outside": int(outside.size),
        "outside_values": np.sort(np.abs(outside))[::-1],
    }


def ladder_report(model: LatticeModel, theta: StepFunction, Ns, seed: int = 0) -> dict:
    """dtheta spectra along an N ladder plus the scattering-side prediction."""
    scats = [smatrix(model, loc) for loc, _ in theta.jumps]
    bands = band_prediction(theta, scats)
    rungs = []
    for N in Ns:
        eigs, _, info = dtheta_eigenpairs(BoxPair(N, model), theta, seed=seed)
        rungs.append(band_filling_report(eigs, bands, N) | info)
    return {
        "bands": bands,
        "consistency_gap": jump_operator_consistency(theta, scats),
        "rungs": rungs,
        "max_eig_ladder": [r["max_abs_eig"] for r in rungs],
        "outside_ladder": [r["n_outside"] for r in rungs],
    }


# ---------------------------------------------------------------------------
# evolution in the spectral windows of H0


def evolution_localization(pair: BoxPair, theta: StepFunction, f: np.ndarray,
                           windows, times, seed: int = 0,
                           eps0: float = AC_PROXY_EPS) -> dict:
    """Window mass of exp(-i D t) f measured in the spectral frame of H0.

    f is projected onto the span of D eigenvectors with |eigenvalue| > eps0;
    each window is an interval of H0 energies, spanned by the H0
    eigenvectors whose energies lie in it.  Those are the sine vectors
    sqrt(2/(N+1)) sin(pi j k/(N+1)) of energy 2 cos(pi k/(N+1)), the DST-I,
    which is its own inverse: one DST takes the eigenvectors and f to H0
    modes, where a window is the set of modes with energies in it.  The
    eigenpairs come from dtheta_eigenpairs; if the low-rank core certified
    them only to a residual_bound above eps0, the eigenvalues asked for are
    not resolved and they come from eigh of dtheta_matrix instead.  The
    report carries the record of dtheta_eigenpairs.
    """
    evals, evecs, info = dtheta_eigenpairs(pair, theta, seed=seed, vectors=True)
    if info["residual_bound"] is not None and eps0 < info["residual_bound"]:
        evals, evecs = np.linalg.eigh(dtheta_matrix(pair, theta, seed=seed)[0])
    energies, _ = _free_modes(pair.N, ())
    masks = [(energies >= lo) & (energies <= hi) for lo, hi in windows]
    out = window_evolution(evals, dst(evecs, type=1, norm="ortho", axis=0),
                           dst(np.asarray(f), type=1, norm="ortho"), masks, times, eps0)
    return {
        "times": out["times"],
        "curves": [{"window": (float(lo), float(hi)), "mass": mass}
                   for (lo, hi), mass in zip(windows, out["masses"])],
        "projected_norm2": out["projected_norm2"],
        "ac_proxy_dim": out["ac_proxy_dim"],
        "no_jump_case": not theta.jumps,
        "info": info,
    }

