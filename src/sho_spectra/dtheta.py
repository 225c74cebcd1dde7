"""Differences theta(H) - theta(H0) on finite lattice boxes.

H0 is the Dirichlet truncation of the hopping operator u(n+1) + u(n-1) on a
centered box, H adds the finite-support potential.  theta is applied through
the eigendecomposition (theta is allowed to be discontinuous, so rational or
polynomial functional calculus is out).  Predicted spectral bands come from
the scattering matrix at the jump energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import fields
from .scattering1d import LatticeModel, ScatteringData, smatrix
from .sho import AC_PROXY_EPS, SpectralBands, _merge_half_widths, window_evolution

JUMP_TOL = 1e-12
NUDGE_MAX = 1e-8


class JumpCollisionError(RuntimeError):
    """An eigenvalue of the box operator sits on a jump of theta."""


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-continuous real function with finitely many jumps.

    base selects the continuous part: 'step' is the constant l_minus (pure
    jump steps on top), 'smooth' a Gaussian bump, 'tanh-window' a smoothed
    plateau, 'linear' the identity (diagnostics only, unbounded).  beta0
    records the log-Hoelder exponent of the jump modulus; sharp steps are
    exact and carry beta0 = inf.
    """

    jumps: tuple = ()
    base: str = "step"
    l_minus: float = 0.0
    beta0: float = math.inf

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

    def sup_abs(self, grid=None) -> float:
        lam = np.linspace(-4.0, 4.0, 4001) if grid is None else np.asarray(grid)
        return float(np.max(np.abs(self(lam))))

    def shifted(self, offsets: dict) -> "StepFunction":
        jumps = tuple((l + offsets.get(l, 0.0), k) for l, k in self.jumps)
        return StepFunction(jumps, self.base, self.l_minus, self.beta0)

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
    the center of the box.  Eigendecompositions are cached.
    """

    N: int
    model: LatticeModel
    _cache: dict = field(default_factory=dict, repr=False)

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
        key = bool(perturbed)
        if key not in self._cache:
            w, U = eigh_tridiagonal(self.diagonal(perturbed), np.ones(self.N - 1))
            self._cache[key] = (w, U)
        return self._cache[key]

    @property
    def H0(self) -> np.ndarray:
        return np.diag(np.ones(self.N - 1), 1) + np.diag(np.ones(self.N - 1), -1)

    @property
    def H(self) -> np.ndarray:
        return self.H0 + np.diag(self.diagonal(True))


def functional_calculus(A: np.ndarray, theta: StepFunction) -> np.ndarray:
    """theta(A) through the eigendecomposition of a symmetric matrix.

    Raises JumpCollisionError when an eigenvalue is within 1e-12 of a jump
    of theta (the value there is convention, not analysis).
    """
    w, U = np.linalg.eigh(np.asarray(A))
    _check_collisions(w, theta)
    return (U * theta(w)) @ U.conj().T


def _check_collisions(eigs, theta: StepFunction):
    for loc, _ in theta.jumps:
        d = np.min(np.abs(eigs - loc))
        if d < JUMP_TOL:
            raise JumpCollisionError(f"eigenvalue within {d:.1e} of the jump at {loc}")


def dtheta_matrix(pair: BoxPair, theta: StepFunction, seed: int = 0):
    """D = theta(H) - theta(H0) on the box.

    Jumps colliding with box eigenvalues are nudged by a seeded random
    offset <= 1e-8 (below the level spacing, invisible at band scale); the
    applied offsets are reported.
    """
    w0, U0 = pair.eigensystem(False)
    w1, U1 = pair.eigensystem(True)
    offsets = {}
    rng = np.random.default_rng(seed)
    for loc, _ in theta.jumps:
        if min(np.min(np.abs(w0 - loc)), np.min(np.abs(w1 - loc))) < JUMP_TOL:
            offsets[loc] = float(rng.uniform(2e-9, NUDGE_MAX) * rng.choice([-1.0, 1.0]))
    if offsets:
        theta = theta.shifted(offsets)
    _check_collisions(w0, theta)
    _check_collisions(w1, theta)
    D = (U1 * theta(w1)) @ U1.T - (U0 * theta(w0)) @ U0.T
    return D, {"N": pair.N, "nudges": offsets, "sup_theta": theta.sup_abs()}


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


def band_filling_report(eigs: np.ndarray, bands: SpectralBands, N: int,
                        outside_margin: float = 0.05, n_bins: int = 18,
                        eps0: float = AC_PROXY_EPS) -> dict:
    """Counts of eigenvalues inside/outside the predicted bands.

    Bins cover [-a_max, a_max]; the outside count uses |e| > a_max + margin.
    """
    eigs = np.asarray(eigs, dtype=float)
    a_max = bands.max_half_width
    inside_edges = np.linspace(-a_max, a_max, n_bins + 1)
    counts, _ = np.histogram(eigs, bins=inside_edges)
    outside = eigs[np.abs(eigs) > a_max + outside_margin]
    return {
        "N": N,
        "a_max": a_max,
        "max_abs_eig": float(np.max(np.abs(eigs))) if eigs.size else 0.0,
        "nonzero_count": int(np.sum(np.abs(eigs) > eps0)),
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
        D, info = dtheta_matrix(BoxPair(N, model), theta, seed=seed)
        eigs = np.linalg.eigvalsh(D)
        rep = band_filling_report(eigs, bands, N)
        rep["nudges"] = info["nudges"]
        rungs.append(rep)
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
    eigenvectors whose energies lie in it.
    """
    D, info = dtheta_matrix(pair, theta, seed=seed)
    evals, evecs = np.linalg.eigh(D)
    w0, U0 = pair.eigensystem(False)
    frames = [U0[:, (w0 >= lo) & (w0 <= hi)].T for lo, hi in windows]
    out = window_evolution(evals, evecs, f, frames, times, eps0)
    return {
        "times": out["times"],
        "curves": [{"window": (float(lo), float(hi)), "mass": mass}
                   for (lo, hi), mass in zip(windows, out["masses"])],
        "projected_norm2": out["projected_norm2"],
        "ac_proxy_dim": out["ac_proxy_dim"],
        "no_jump_case": not theta.jumps,
        "info": info,
    }


def time_averaged_window_mass(pair: BoxPair, theta: StepFunction, f: np.ndarray,
                              window, horizon: float, samples: int = 32,
                              seed: int = 0, eps0: float = AC_PROXY_EPS) -> float:
    """Average window mass over [horizon, 2 horizon]."""
    times = np.linspace(horizon, 2.0 * horizon, samples)
    out = evolution_localization(pair, theta, f, [window], times, seed=seed, eps0=eps0)
    return float(np.mean(out["curves"][0]["mass"]))
