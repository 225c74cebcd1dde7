"""Scattering data for the 1D lattice pair H0, H0 + V.

H0 acts by (H0 u)(n) = u(n+1) + u(n-1); its spectrum is [-2, 2] with
multiplicity two, parametrized by lam = 2 cos k, k in (0, pi).  V is a real
potential of finite support.  Plane-wave channels are labelled so that
e^{ikn} carries the "from the left" flux; the scattering-matrix eigenvalues
are invariant under relabelling, which is all downstream band formulas use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fields

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
    def single_site(cls, v: float, n: int = 0) -> "LatticeModel":
        return cls({n: v})

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeModel":
        """Model from a model.json payload; a malformed field raises ConfigError."""
        fields.required(data, "sites", "model")
        return cls({fields.integer(s, "n", f"model.sites[{i}]"):
                    fields.number(s, "v", f"model.sites[{i}]")
                    for i, s in enumerate(fields.items(data, "sites", "model"))})

    def to_dict(self) -> dict:
        return {"sites": [{"n": n, "v": v} for n, v in sorted(self.potential.items())]}


def momentum(lam: float) -> float:
    """k with lam = 2 cos k, k in (0, pi); guards the band edges."""
    if not -2.0 < lam < 2.0:
        raise BandEdgeError(f"lambda={lam} outside the open band (-2, 2)")
    k = math.acos(0.5 * lam)
    if math.sin(k) < BAND_EDGE_GUARD:
        raise BandEdgeError(f"lambda={lam} within the band-edge guard")
    return k


def _wave_basis(k: float, n: int) -> np.ndarray:
    # columns (e^{ikm}, e^{-ikm}) evaluated at m = n+1 and m = n
    return np.array([[np.exp(1j * k * (n + 1)), np.exp(-1j * k * (n + 1))],
                     [np.exp(1j * k * n), np.exp(-1j * k * n)]])


def transfer_matrix(model: LatticeModel, lam: float) -> np.ndarray:
    """Plane-wave transfer matrix across the potential support.

    Maps (in, out) amplitudes on the left of the support to those on the
    right; det = 1 expresses flux conservation.
    """
    k = momentum(lam)
    supp = model.support
    if supp is None:
        n_min, n_max = 0, -1
    else:
        n_min, n_max = supp
    P = np.eye(2, dtype=complex)
    for n in range(n_min, n_max + 1):
        v = model.potential.get(n, 0.0)
        P = np.array([[lam - v, -1.0], [1.0, 0.0]], dtype=complex) @ P
    wl = _wave_basis(k, n_min - 1)
    wr = _wave_basis(k, n_max)
    det = wr[0, 0] * wr[1, 1] - wr[0, 1] * wr[1, 0]
    wr_inv = np.array([[wr[1, 1], -wr[0, 1]], [-wr[1, 0], wr[0, 0]]]) / det
    return wr_inv @ P @ wl


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
            raise ScatteringBreakdownError(
                f"scattering matrix not unitary at lambda={self.lam}: "
                f"defect {self.unitarity_defect:.2e} (near-singular energy?)")


def smatrix(model: LatticeModel, lam: float) -> ScatteringData:
    """S = [[t, r'], [r, t]] built from the transfer matrix."""
    k = momentum(lam)
    M = transfer_matrix(model, lam)
    if abs(M[1, 1]) < 1e-8:
        raise ScatteringBreakdownError(f"near-singular transfer matrix at lambda={lam}")
    t = 1.0 / M[1, 1]
    r = -M[1, 0] / M[1, 1]
    rp = M[0, 1] / M[1, 1]
    S = np.array([[t, rp], [r, t]])
    defect = float(np.linalg.norm(S.conj().T @ S - np.eye(2), 2))
    sig = np.linalg.eigvals(S)
    sig = sig[np.argsort(-np.abs(sig - 1.0), kind="stable")]
    return ScatteringData(lam=float(lam), k=k, S=S, sigmas=sig, unitarity_defect=defect)


def sigma_scan(model: LatticeModel, lambdas) -> dict:
    """Tabulate t, r, sigma_1, sigma_2 over an energy grid.

    Returns the rows plus a continuity summary: the largest step-to-step
    eigenvalue increment divided by the grid spacing.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    rows = []
    for lam in lambdas:
        sd = smatrix(model, float(lam))
        rows.append({
            "lambda": float(lam),
            "t": complex(sd.S[0, 0]),
            "r": complex(sd.S[1, 0]),
            "sigma1": complex(sd.sigmas[0]),
            "sigma2": complex(sd.sigmas[1]),
            "abs_sigma1_minus_1": float(abs(sd.sigmas[0] - 1.0)),
        })
    sig1 = np.array([row["sigma1"] for row in rows])
    dlam = np.diff(lambdas)
    cont = float(np.max(np.abs(np.diff(sig1)) / np.abs(dlam))) if len(rows) > 1 else 0.0
    return {"rows": rows, "max_dsigma_per_dlambda": cont}
