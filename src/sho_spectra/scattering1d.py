"""Scattering data for the 1D lattice pair H0, H0 + V.

H0 acts by (H0 u)(n) = u(n+1) + u(n-1); its spectrum is [-2, 2] with
multiplicity two, parametrized by lam = 2 cos k, k in (0, pi).  V is a real
potential of finite support.  Plane-wave channels are labelled so that
e^{ikn} carries the "from the left" flux; the scattering-matrix eigenvalues
are invariant under relabelling, which is all downstream band formulas use.

Every energy grid goes through one batched core: one stacked (L, 2, 2)
matmul per site for the transfer product, one stacked solve against the wave
bases, and closed forms for the eigenvalues of S and its unitarity defect.
smatrix is that core on a one-point grid, and sigma_scan reads its rows
from the stacked arrays, so a scan row and smatrix at the same energy agree
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BAND_EDGE_GUARD = 1e-6
UNITARITY_TOL = 1e-10


class BandEdgeError(ValueError):
    """Energy too close to the band edges +-2, where plane waves degenerate."""


class ScatteringBreakdownError(ValueError):
    """The scattering data at one energy cannot be trusted: the transfer
    matrix is near-singular or the computed S is not unitary."""


@dataclass(frozen=True)
class LatticeModel:
    """Finite-support real potential, site -> value."""

    potential: dict = field(default_factory=dict)

    def __post_init__(self):
        pot = {int(n): float(v) for n, v in self.potential.items() if float(v) != 0.0}
        object.__setattr__(self, "potential", pot)

    @property
    def support(self):
        if not self.potential:
            return None
        sites = sorted(self.potential)
        return sites[0], sites[-1]

    @classmethod
    def single_site(cls, v: float) -> "LatticeModel":
        return cls({0: v})


def _band_guard(lams: np.ndarray):
    """k = arccos(lam/2) per energy (pi/2 where the guard fails) and the two
    failure masks: outside the open band (NaN included) and within the guard."""
    outside = ~((lams > -2.0) & (lams < 2.0))
    k = np.arccos(0.5 * np.where(outside, 0.0, lams))
    near = ~outside & (np.sin(k) < BAND_EDGE_GUARD)
    return k, outside, near


def _band_edge_error(lam: float, outside: bool) -> BandEdgeError:
    where = "outside the open band (-2, 2)" if outside else "within the band-edge guard"
    return BandEdgeError(f"lambda={lam} {where}")


def _not_unitary_error(lam: float, defect: float) -> ScatteringBreakdownError:
    return ScatteringBreakdownError(f"scattering matrix not unitary at lambda={lam}: "
                                    f"defect {defect:.2e} (near-singular energy?)")


def _guarded_momenta(lams: np.ndarray) -> np.ndarray:
    k, outside, near = _band_guard(lams)
    bad = outside | near
    if bad.any():
        i = int(np.argmax(bad))
        raise _band_edge_error(float(lams[i]), bool(outside[i]))
    return k


def momentum(lam: float) -> float:
    """k with lam = 2 cos k, k in (0, pi); guards the band edges."""
    return float(_guarded_momenta(np.array([float(lam)]))[0])


def _wave_basis(k: np.ndarray, n: int) -> np.ndarray:
    # per energy, columns (e^{ikm}, e^{-ikm}) evaluated at rows m = n+1 and m = n
    return np.exp(1j * k[:, None, None] * (np.array([[n + 1], [n]]) * np.array([1, -1])))


def transfer_matrix(model: LatticeModel, lam) -> np.ndarray:
    """Plane-wave transfer matrix across the potential support.

    Maps (in, out) amplitudes on the left of the support to those on the
    right; det = 1 expresses flux conservation.  An array of energies gives
    one 2x2 matrix per energy (shape (L, 2, 2)); a scalar gives one 2x2.
    Where the site product overflows the matrix is NaN, without a numpy
    warning; smatrix and sigma_scan raise ScatteringBreakdownError there.
    """
    lams = np.asarray(lam, dtype=float)
    flat = lams.reshape(-1)
    k = _guarded_momenta(flat)
    supp = model.support
    n_min, n_max = supp if supp is not None else (0, -1)
    # the site product is real: one stacked 2x2 matmul per site
    P = np.eye(2)
    step = np.zeros((flat.size, 2, 2))
    step[:, 0, 1], step[:, 1, 0] = -1.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_min, n_max + 1):
            step[:, 0, 0] = flat - model.potential.get(n, 0.0)
            P = step @ P
        M = np.linalg.solve(_wave_basis(k, n_max), P @ _wave_basis(k, n_min - 1))
    M[~np.isfinite(P).all(axis=(-2, -1))] = np.nan
    return M.reshape(lams.shape + (2, 2))


@dataclass(frozen=True)
class ScatteringData:
    """Unitary 2x2 scattering matrix at one energy with sorted eigenvalues."""

    lam: float
    k: float
    S: np.ndarray
    sigmas: np.ndarray
    unitarity_defect: float

    def __post_init__(self):
        if self.unitarity_defect > UNITARITY_TOL:
            raise _not_unitary_error(self.lam, self.unitarity_defect)


def _scatter(model: LatticeModel, lams: np.ndarray):
    """k, S = [[t, r'], [r, t]], sorted eigenvalues and unitarity defect for
    every energy of a 1-d grid, as stacked arrays.

    Both come in closed form from the entries.  The eigenvalues of S are
    t +- sqrt(r r'), sorted stably by |sigma - 1|, largest first.  The
    defect ||S^H S - I||_2 is the largest |eigenvalue| of the Hermitian
    [[a, b], [b*, d]] = S^H S - I, that is |a + d|/2 + hypot((a - d)/2, |b|).

    Each energy passes the band-edge guard, then the near-singular guard on
    M[1, 1], then the finiteness of M (an overflowing site product), then
    the unitarity check; the first energy in grid order that fails one
    raises that guard's error.  Failing energies are masked before any
    arccos or division, so no numpy warning is raised.
    """
    k, outside, near = _band_guard(lams)
    edge = outside | near
    M = transfer_matrix(model, np.where(edge, 0.0, lams))
    singular = ~edge & (np.abs(M[:, 1, 1]) < 1e-8)
    overflow = ~edge & ~np.isfinite(M).all(axis=(1, 2))
    M = np.where((edge | singular | overflow)[:, None, None], np.eye(2), M)
    S = np.empty(M.shape, dtype=complex)
    S[:, 0, 0] = S[:, 1, 1] = 1.0 / M[:, 1, 1]
    S[:, 0, 1] = M[:, 0, 1] / M[:, 1, 1]
    S[:, 1, 0] = -M[:, 1, 0] / M[:, 1, 1]
    t, rp, r = S[:, 0, 0], S[:, 0, 1], S[:, 1, 0]
    t2 = t.real ** 2 + t.imag ** 2
    a = t2 + (r.real ** 2 + r.imag ** 2) - 1.0
    d = t2 + (rp.real ** 2 + rp.imag ** 2) - 1.0
    defect = 0.5 * np.abs(a + d) + np.hypot(0.5 * (a - d), np.abs(t.conj() * rp + r.conj() * t))
    bad = edge | singular | overflow | (defect > UNITARITY_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        lam = float(lams[i])
        if edge[i]:
            raise _band_edge_error(lam, bool(outside[i]))
        if singular[i]:
            raise ScatteringBreakdownError(f"near-singular transfer matrix at lambda={lam}")
        if overflow[i]:
            raise ScatteringBreakdownError(f"transfer matrix not finite at lambda={lam} "
                                           "(the site product overflows)")
        raise _not_unitary_error(lam, float(defect[i]))
    root = np.sqrt(rp * r)
    sig = np.stack([t + root, t - root], axis=1)
    sig = np.take_along_axis(sig, np.argsort(-np.abs(sig - 1.0), axis=1, kind="stable"), 1)
    return k, S, sig, defect


def smatrix(model: LatticeModel, lam: float) -> ScatteringData:
    """S = [[t, r'], [r, t]] built from the transfer matrix."""
    k, S, sig, defect = _scatter(model, np.array([float(lam)]))
    return ScatteringData(lam=float(lam), k=float(k[0]), S=S[0], sigmas=sig[0],
                          unitarity_defect=float(defect[0]))


def sigma_scan(model: LatticeModel, lambdas) -> dict:
    """Tabulate t, r, sigma_1, sigma_2 over an energy grid.

    Every energy goes through one batched pass; a failing energy raises as
    smatrix would.  Returns the rows plus a continuity summary: the largest
    step-to-step eigenvalue increment divided by the grid spacing.
    """
    lambdas = np.asarray(lambdas, dtype=float).reshape(-1)
    _, S, sig, _ = _scatter(model, lambdas)
    rows = [{"lambda": lam, "t": t, "r": r, "sigma1": s1, "sigma2": s2,
             "abs_sigma1_minus_1": abs(s1 - 1.0)}
            for lam, t, r, s1, s2 in zip(lambdas.tolist(), S[:, 0, 0].tolist(),
                                         S[:, 1, 0].tolist(), sig[:, 0].tolist(),
                                         sig[:, 1].tolist())]
    cont = (float(np.max(np.abs(np.diff(sig[:, 0])) / np.abs(np.diff(lambdas))))
            if len(rows) > 1 else 0.0)
    return {"rows": rows, "max_dsigma_per_dlambda": cont}
