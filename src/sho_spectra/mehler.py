"""Half-line kernel operator 1/(pi(2+t+s)), its conical-Legendre transform
pair, and the oscillatory Fourier integrals w_tau used in spectral weights.

Grids: the t half-line is discretized by Gauss-Legendre nodes under the
substitution t = sinh(u)^2, which resolves both t -> 0 and the algebraic
tail; the tau axis uses a plain trapezoid grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import conical_legendre_values, m_tau

TAIL_WARN_RATIO = 1e-8


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes/weights pair on the half line."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")

    def __len__(self):
        return self.nodes.size

    def norm(self, values) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(values) ** 2)))


@dataclass(frozen=True)
class SampledFunction:
    """Function values on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid")

    def norm(self) -> float:
        return self.grid.norm(self.values)


def transformed_gauss_grid(n: int = 400, u_max: float = 18.0) -> QuadratureGrid:
    """Gauss-Legendre nodes in u on [0, u_max] mapped through t = sinh(u)^2.

    u_max = 18 puts the last node near t = 2.9e15; the slowly decaying
    Legendre kernels are below 1e-7 there, which the identity checks need.
    """
    u, wu = np.polynomial.legendre.leggauss(n)
    u = 0.5 * u_max * (u + 1.0)
    wu = 0.5 * u_max * wu
    return QuadratureGrid(np.sinh(u) ** 2, wu * np.sinh(2.0 * u))


def trapezoid_grid(lo: float, hi: float, step: float) -> QuadratureGrid:
    n = int(round((hi - lo) / step)) + 1
    x = np.linspace(lo, hi, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return QuadratureGrid(x, w)


def default_grids(refined: bool = False):
    """(t grid, tau grid) pair; the refined level doubles resolution and
    widens the tau window.

    The tau window reaches to 12 (16 refined): transforms of generic bumps
    carry near-percent mass between 6 and 12, so stopping at 6 would cap the
    isometry defect at ~5e-3.
    """
    if refined:
        return transformed_gauss_grid(800, 20.0), trapezoid_grid(0.0025, 16.0, 0.00625)
    return transformed_gauss_grid(400, 18.0), trapezoid_grid(0.01, 12.0, 0.0125)


def kernel_matrix(grid: QuadratureGrid) -> np.ndarray:
    """Matrix of the operator (1/pi) int f(s)/(2+t+s) ds on the grid."""
    t = grid.nodes
    return (1.0 / math.pi) / (2.0 + t[:, None] + t[None, :]) * grid.weights[None, :]


def symmetrized_kernel(grid: QuadratureGrid) -> np.ndarray:
    """Weight-symmetrized kernel sqrt(w) K sqrt(w); Hermitian, spectrum in [0, 1]."""
    t = grid.nodes
    sw = np.sqrt(grid.weights)
    return (1.0 / math.pi) / (2.0 + t[:, None] + t[None, :]) * sw[:, None] * sw[None, :]


def mehler_apply(f: SampledFunction) -> SampledFunction:
    """Apply the kernel operator to a sampled function.

    Warns when the last node does not satisfy the decay precondition
    |f(t_max)| <= 1e-8 max|f|; the quadrature then misses tail mass.
    """
    mx = float(np.max(np.abs(f.values)))
    if mx > 0.0 and abs(f.values[-1]) > TAIL_WARN_RATIO * mx:
        warnings.warn("far-end tail of f exceeds 1e-8 of its maximum; "
                      "tail truncation may dominate the error", stacklevel=2)
    return SampledFunction(f.grid, kernel_matrix(f.grid) @ f.values)


def legendre_kernel(taus, grid: QuadratureGrid) -> np.ndarray:
    """Rows P_{-1/2+i tau}(1 + t) over the grid, one row per tau."""
    return conical_legendre_values(np.atleast_1d(taus), 1.0 + grid.nodes)


def _forward_matrix(taus, grid: QuadratureGrid) -> np.ndarray:
    # the forward transform as one matrix: sqrt(tau tanh(pi tau)) P_{-1/2+i tau}(1+t) w(t)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus <= 0.0):
        raise ValueError("tau values must be positive")
    pref = np.sqrt(taus * np.tanh(math.pi * taus))
    return pref[:, None] * legendre_kernel(taus, grid) * grid.weights


def mehler_fock_forward(f: SampledFunction, taus) -> np.ndarray:
    """Forward transform sqrt(tau tanh(pi tau)) int P_{-1/2+i tau}(t+1) f(t) dt."""
    return _forward_matrix(taus, f.grid) @ f.values


def mehler_fock_inverse(g: SampledFunction, ts) -> np.ndarray:
    """Adjoint transform of tau-grid data, evaluated at the t points ts."""
    ts = np.asarray(ts, dtype=float)
    taus = g.grid.nodes
    pref = np.sqrt(taus * np.tanh(math.pi * taus))
    P = conical_legendre_values(taus, 1.0 + ts.ravel())
    return (P.T @ (g.grid.weights * pref * g.values)).reshape(ts.shape)


def mehler_identity_residual(tau: float, grid: QuadratureGrid | None = None) -> float:
    """Max-norm residual of the kernel eigenfunction identity for one tau."""
    if grid is None:
        grid = default_grids()[0]
    p = conical_legendre_values(tau, 1.0 + grid.nodes)
    f = SampledFunction(grid, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = mehler_apply(f)
    return float(np.max(np.abs(out.values - p / math.cosh(math.pi * tau))))


def _unitarity_test_functions(grid: QuadratureGrid):
    # smooth decaying profiles pushed once through the kernel operator, which
    # confines their transform content to the tau window of the default grids
    t = grid.nodes
    K = kernel_matrix(grid)
    profiles = [np.exp(-(t - 1.0) ** 2 / 0.5), np.exp(-(t - 2.0) ** 2 / 2.0),
                np.exp(-t), t * np.exp(-t / 2.0), np.exp(-(t - 0.5) ** 2 / 0.2)]
    return [SampledFunction(grid, K @ g) for g in profiles]


def verify_identity(kind: str, taus=None, refined: bool = False) -> dict:
    """Residual table for one of the kernel identities.

    kind 'f1': eigenfunction identity of the kernel operator;
    kind 'f3': transform diagonalization; 'unitarity': isometry defects.
    """
    t_grid, tau_grid = default_grids(refined)
    if kind == "f1":
        taus = [0.25, 0.5, 1.0, 2.0, 3.0] if taus is None else list(taus)
        rows = [{"tau": tau, "residual": mehler_identity_residual(tau, t_grid)} for tau in taus]
        return {"identity": "f1", "rows": rows, "max_residual": max(r["residual"] for r in rows)}
    if kind not in ("f3", "unitarity"):
        raise ValueError(f"unknown identity {kind!r}")
    taus = tau_grid.nodes if kind == "unitarity" or taus is None else np.atleast_1d(taus).astype(float)
    # one forward matrix per call, applied to the five test functions as columns
    fs = _unitarity_test_functions(t_grid)
    F = _forward_matrix(taus, t_grid)
    G = F @ np.column_stack([f.values for f in fs])
    if kind == "f3":
        lhs = F @ np.column_stack([mehler_apply(f).values for f in fs])
        residuals = np.max(np.abs(lhs - G / np.cosh(math.pi * taus)[:, None]), axis=0)
        rows = [{"residual": float(r)} for r in residuals]
        return {"identity": "f3", "rows": rows, "max_residual": max(r["residual"] for r in rows)}
    rows = [{"isometry_defect": abs(tau_grid.norm(g) / f.norm() - 1.0)} for g, f in zip(G.T, fs)]
    return {"identity": "unitarity", "rows": rows,
            "max_defect": max(r["isometry_defect"] for r in rows)}


# ---------------------------------------------------------------------------
# oscillatory integral w_tau


@dataclass(frozen=True)
class FilonScheme:
    """Panel layout and tail handling for the half-line Fourier integral."""

    t_linear: float = 2.0
    n_linear: int = 8
    ratio: float = 1.15
    t_min_cut: float = 200.0
    tail_factor: float = 60.0
    byparts_terms: int = 8
    series_terms: int = 4

    def refine(self) -> "FilonScheme":
        return FilonScheme(self.t_linear, 2 * self.n_linear, math.sqrt(self.ratio),
                           2.0 * self.t_min_cut, 2.0 * self.tail_factor,
                           self.byparts_terms + 2, self.series_terms + 1)

    def cut(self, tau: float, lam: float) -> float:
        return max(self.t_min_cut, self.tail_factor * (1.0 + abs(tau)) / abs(lam))

    def panels(self, T: float) -> np.ndarray:
        edges = list(np.linspace(0.0, self.t_linear, self.n_linear + 1))
        t = self.t_linear
        while t < T:
            t = min(t * self.ratio, T)
            edges.append(t)
        return np.asarray(edges)


_GAUSS5 = np.polynomial.legendre.leggauss(5)


def _filon_panel_weights(a: float, b: float, lam: float):
    # returns (points, complex weights) integrating g(t) e^{-i lam t} over [a, b];
    # quadratic Filon when the phase is fast, otherwise 5-point Gauss
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    if abs(lam) * h < 0.5:
        x, w = _GAUSS5
        pts = c + h * x
        return pts, h * w * np.exp(-1j * lam * pts)
    lh = lam * h
    s, co = math.sin(lh), math.cos(lh)
    m0 = 2.0 * s / lam
    m1 = 2.0j * (lh * co - s) / lam ** 2
    m2 = 2.0 * h * h * s / lam + 4.0 * h * co / lam ** 2 - 4.0 * s / lam ** 3
    phase = np.exp(-1j * lam * c)
    wa = phase * (-m1 / (2 * h) + m2 / (2 * h * h))
    wc = phase * (m0 - m2 / (h * h))
    wb = phase * (m1 / (2 * h) + m2 / (2 * h * h))
    return np.array([a, c, b]), np.array([wa, wc, wb])


def _power_tail(rho: complex, X: float, lam: float, terms: int) -> complex:
    # int_X^inf x^rho e^{-i lam x} dx by repeated integration by parts
    acc = 0.0j
    coeff = 1.0 + 0.0j
    for k in range(terms):
        acc += coeff * X ** (rho - k) / (1j * lam) ** (k + 1)
        coeff *= rho - k
    return np.exp(-1j * lam * X) * acc


def _tail_integral(tau: float, lam: float, T: float, scheme: FilonScheme) -> complex:
    # int_T^inf P_{-1/2+i tau}(1+t) e^{-i lam t} dt from the descending series
    X = 1.0 + T
    sig = -0.5 + 1j * tau
    a, b, c = 0.25 - 0.5j * tau, 0.75 - 0.5j * tau, 1.0 - 1j * tau
    m = m_tau(tau)
    p = 1.0 + 0.0j
    up = 0.0j   # contribution of m * sum p_n x^{sigma-2n}
    dn = 0.0j   # same series with lam -> -lam, conjugated afterwards
    for n in range(scheme.series_terms):
        if n > 0:
            p *= (a + n - 1) * (b + n - 1) / ((c + n - 1) * n)
        up += p * _power_tail(sig - 2 * n, X, lam, scheme.byparts_terms)
        dn += p * _power_tail(sig - 2 * n, X, -lam, scheme.byparts_terms)
    # shift x = 1 + t back to the t variable
    return np.exp(1j * lam) * 0.5 * (m * up + np.conj(m * dn))


def w_tau(tau: float, lam: float, scheme: FilonScheme = FilonScheme()) -> complex:
    """Fourier coefficient (2 pi)^{-1/2} int_0^inf P_{-1/2+i tau}(1+t) e^{-i lam t} dt.

    Composite Filon quadrature up to a lam-dependent cut, then an
    integration-by-parts tail built on the descending Legendre series.
    """
    if lam == 0.0:
        raise ValueError("w_tau undefined at lam = 0")
    T = scheme.cut(tau, lam)
    edges = scheme.panels(T)
    panels = [_filon_panel_weights(aa, bb, lam) for aa, bb in zip(edges[:-1], edges[1:])]
    pts = np.concatenate([p for p, _ in panels])
    wts = np.concatenate([w for _, w in panels])
    vals = conical_legendre_values(tau, 1.0 + pts)
    main = np.sum(wts * vals)
    return (main + _tail_integral(tau, lam, T, scheme)) / math.sqrt(2.0 * math.pi)


def check_w_derivative_bounds(taus, lambdas, eval_fn=None) -> dict:
    """Empirical constants in the decay bounds of w_tau and its tau derivative.

    Large-lambda scaling |w| |lam| and small-lambda scalings |w| |lam|^{1/2},
    |dw/dtau| |lam|^{1/2} / |ln lam| are tabulated, w from eval_fn(tau, lam)
    (default w_tau on the default FilonScheme) and dw/dtau its central
    difference with step 1e-3; the report flags any non-finite entries
    rather than asserting specific constants.
    """
    taus = np.asarray(taus, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    ev = w_tau if eval_fn is None else eval_fn
    dtau = 1e-3
    sup_w_large = 0.0
    sup_w_small = 0.0
    sup_dw_large = 0.0
    sup_dw_small = 0.0
    for tau in taus:
        for lam in lambdas:
            w = ev(tau, lam)
            dw = (ev(tau + dtau, lam) - ev(tau - dtau, lam)) / (2 * dtau)
            al = abs(lam)
            if al >= 0.5:
                sup_w_large = max(sup_w_large, abs(w) * al)
                sup_dw_large = max(sup_dw_large, abs(dw) * al)
            else:
                sup_w_small = max(sup_w_small, abs(w) * math.sqrt(al))
                sup_dw_small = max(sup_dw_small, abs(dw) * math.sqrt(al) / abs(math.log(al)))
    report = {
        "sup_w_times_lambda": sup_w_large,
        "sup_dw_times_lambda": sup_dw_large,
        "sup_w_times_sqrt_lambda": sup_w_small,
        "sup_dw_log_weighted": sup_dw_small,
    }
    report["violations"] = [k for k, v in report.items() if not np.isfinite(v)]
    return report
