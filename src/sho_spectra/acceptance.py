"""Acceptance suite: every top-level claim of the workbench as a check.

Each check returns a CheckResult with named sub-checks; the CLI `reproduce`
command and tests/test_acceptance.py both run these functions, so there is a
single source of truth for tolerances.  Heavy spectra are cached per process.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dtheta as dth
from . import mehler, sho, specfun
from .scattering1d import LatticeModel, smatrix

GOLDEN_ENV = "SHO_SPECTRA_DATA_DIR"

TOLERANCES = {
    "default": {
        "mehler_identity": 1e-6,
        "mf_diagonalization": 1e-6,
        "isometry_default": 1e-3,
        "isometry_refined": 1e-4,
        "crossover_agreement": 1e-8,
        "w_stability": 0.05,
        "block_diag": 1e-10,
        "symmetry": 1e-10,
        "unitarity": 1e-10,
        "free_identity": 1e-14,
        "consistency": 1e-12,
    },
}
TOLERANCES["strict"] = dict(TOLERANCES["default"])
TOLERANCES["strict"].update({
    "mehler_identity": 1e-7,
    "mf_diagonalization": 1e-7,
    "unitarity": 1e-11,
})


@dataclass
class CheckResult:
    cid: str
    name: str
    subchecks: list = field(default_factory=list)   # (label, passed, detail)
    elapsed: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.subchecks)

    def add(self, label: str, ok: bool, detail: str = ""):
        self.subchecks.append((label, bool(ok), detail))

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        bad = [label for label, ok, _ in self.subchecks if not ok]
        tail = "" if self.passed else f"  [failing: {', '.join(bad)}]"
        return f"[{state}] {self.cid}: {self.name} ({self.elapsed:.1f}s){tail}"

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": self.elapsed,
            "subchecks": [{"label": l, "passed": ok, "detail": d} for l, ok, d in self.subchecks],
            "details": self.details,
        }


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.monotonic()
        res = fn(*args, **kwargs)
        res.elapsed = time.monotonic() - t0
        limit = RUNTIME_LIMITS.get(res.cid)
        if limit is not None:
            res.add(f"runtime<{limit:.0f}s", res.elapsed <= limit, f"elapsed {res.elapsed:.1f}s")
        return res
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def golden_path() -> Path:
    override = os.environ.get(GOLDEN_ENV)
    if override:
        return Path(override) / "golden.json"
    return Path(__file__).parent / "data" / "golden.json"


def load_golden() -> dict:
    with open(golden_path()) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# cached heavy spectra

_CACHE: dict = {}


def sawtooth_spectrum(N: int) -> np.ndarray:
    key = ("sawtooth", N)
    if key not in _CACHE:
        sym = sho.sawtooth_symbol([(0.0, 1.0)])
        _CACHE[key] = sho.assemble_sho_circle(sym, N).eigenvalues(method="svd")
    return _CACHE[key]


def two_jump_spectrum(N: int) -> np.ndarray:
    key = ("two-jump", N)
    if key not in _CACHE:
        sym = sho.sawtooth_symbol([(0.0, 2.0), (math.pi, 1.0)])
        _CACHE[key] = sho.assemble_sho_circle(sym, N).eigenvalues(method="svd")
    return _CACHE[key]


def headline_ladder() -> dict:
    if "headline" not in _CACHE:
        model = LatticeModel.single_site(2.0)
        theta = dth.StepFunction(jumps=((0.0, 1.0),))
        _CACHE["headline"] = dth.ladder_report(model, theta, [1024, 2048, 4096])
    return _CACHE["headline"]


# ---------------------------------------------------------------------------
# criteria


@_timed
def check_goldens(profile: str = "default") -> CheckResult:
    """Frozen oracle constants recomputed from scratch."""
    res = CheckResult("golden", "golden oracle values")
    try:
        gold = load_golden()
    except (OSError, json.JSONDecodeError) as exc:
        res.add("load", False, f"golden file unreadable: {exc}")
        return res
    checks = {
        "gamma_abs_0.7+1.3i": (abs(specfun.gamma_complex(0.7 + 1.3j)), 1e-12),
        "si_1": (specfun.sin_cos_integrals(1.0)[0], 1e-12),
        "zeta_5": (specfun.zeta_kernel(5.0), 1e-12),
        "conical_p_tau0.5_x2": (specfun.conical_legendre_values(0.5, 2.0), 1e-11),
        "sigma_gap_v2": (abs(smatrix(LatticeModel.single_site(2.0), 0.0).sigmas[0] - 1.0), 1e-12),
    }
    for key, (value, tol) in checks.items():
        if key not in gold:
            res.add(key, False, "missing from golden file")
            continue
        ok = abs(value - gold[key]) <= tol
        res.add(key, ok, f"computed {value!r} vs golden {gold[key]!r}")
    return res


@_timed
def check_mehler_identity(profile: str = "default") -> CheckResult:
    """Criterion 1: kernel eigenfunction identity on default grids."""
    tol = TOLERANCES[profile]["mehler_identity"]
    res = CheckResult("C1", "kernel eigenfunction identity")
    grid = mehler.default_grids()[0]
    worst = 0.0
    for tau in (0.25, 0.5, 1.0, 2.0, 3.0):
        r = mehler.mehler_identity_residual(tau, grid)
        worst = max(worst, r)
        res.add(f"tau={tau}", r <= tol, f"residual {r:.2e} (tol {tol:.0e})")
    res.details["max_residual"] = worst
    return res


@_timed
def check_mf_transform(profile: str = "default") -> CheckResult:
    """Criterion 2: transform diagonalization and approximate unitarity."""
    tol_f3 = TOLERANCES[profile]["mf_diagonalization"]
    res = CheckResult("C2", "transform diagonalization / unitarity")
    f3 = mehler.verify_identity("f3")
    res.add("diagonalization", f3["max_residual"] <= tol_f3,
            f"max residual {f3['max_residual']:.2e} (tol {tol_f3:.0e})")
    uni = mehler.verify_identity("unitarity")
    tol_u = TOLERANCES[profile]["isometry_default"]
    res.add("isometry default", uni["max_defect"] <= tol_u,
            f"max defect {uni['max_defect']:.2e} (tol {tol_u:.0e})")
    uni_r = mehler.verify_identity("unitarity", refined=True)
    tol_ur = TOLERANCES[profile]["isometry_refined"]
    res.add("isometry refined", uni_r["max_defect"] <= tol_ur,
            f"max defect {uni_r['max_defect']:.2e} (tol {tol_ur:.0e})")
    res.add("refinement improves", uni_r["max_defect"] < uni["max_defect"], "")
    return res


@_timed
def check_conical_asymptotics(profile: str = "default") -> CheckResult:
    """Criterion 3: descending asymptotics and series crossover agreement."""
    res = CheckResult("C3", "conical Legendre asymptotics")
    xs = np.linspace(50.0, 200.0, 31)
    fitted = 0.0
    for tau in np.linspace(0.5, 3.0, 6):
        p = specfun.conical_legendre_values(tau, xs)
        lead = np.real(specfun.m_tau(tau) * np.exp((-0.5 + 1j * tau) * np.log(xs)))
        fitted = max(fitted, float(np.max(np.abs(p - lead) * xs ** 2.5)))
    res.details["fitted_constant"] = fitted
    res.add("scaled remainder finite", np.isfinite(fitted) and fitted < 10.0,
            f"fitted constant {fitted:.3f}")
    tol = TOLERANCES[profile]["crossover_agreement"]
    cross = specfun.DEFAULT_POLICY.crossover_x
    xs2 = np.linspace(0.9 * cross, 1.1 * cross, 25)
    lo = specfun.SeriesPolicy(crossover_x=10.0)
    hi = specfun.SeriesPolicy(crossover_x=1.01)
    gap = 0.0
    for tau in (0.25, 1.0, 3.0):
        a = specfun.conical_legendre_values(tau, xs2, lo)
        b = specfun.conical_legendre_values(tau, xs2, hi)
        gap = max(gap, float(np.max(np.abs(a - b))))
    res.add("crossover agreement", gap <= tol, f"gap {gap:.2e} (tol {tol:.0e})")
    return res


@_timed
def check_w_bounds(profile: str = "default") -> CheckResult:
    """Criterion 4: weight-kernel decay bounds, stable under refinement."""
    res = CheckResult("C4", "w_tau decay bounds")
    taus = (0.5, 1.5, 3.0)
    lams_large = np.geomspace(1.0, 100.0, 8)
    lams_small = np.geomspace(1e-4, 0.5, 8)
    schemes = (mehler.FilonScheme(), mehler.FilonScheme().refine())
    sups = []
    for sch in schemes:
        s_large = max(abs(mehler.w_tau(t, l, sch)) * l for t in taus for l in lams_large)
        s_small = max(abs(mehler.w_tau(t, l, sch)) * math.sqrt(l) for t in taus for l in lams_small)
        sups.append((s_large, s_small))
    res.details["suprema"] = sups
    res.add("finite", all(np.isfinite(v) for pair in sups for v in pair),
            f"default {sups[0]}, refined {sups[1]}")
    tol = TOLERANCES[profile]["w_stability"]
    for label, idx in (("large-lambda", 0), ("small-lambda", 1)):
        a, b = sups[0][idx], sups[1][idx]
        rel = abs(a - b) / max(abs(b), 1e-300)
        res.add(f"{label} stability", rel <= tol, f"rel change {rel:.2%} (tol {tol:.0%})")
    return res


@_timed
def check_block_diagonalization(profile: str = "default", seed: int = 0) -> CheckResult:
    """Criterion 5: doubled-block spectrum equals +-SVD with exact eigenvectors."""
    tol = TOLERANCES[profile]["block_diag"]
    res = CheckResult("C5", "jump block diagonalization")
    rng = np.random.default_rng(seed)
    worst_eig = 0.0
    worst_vec = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 9))
        K = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        hat, ev = sho.block_hat_K(K)
        s = np.linalg.svd(K, compute_uv=False)
        expect = np.sort(np.concatenate([s, -s]))
        worst_eig = max(worst_eig, float(np.max(np.abs(np.sort(ev) - expect))))
        for lam, vec in sho.hat_K_eigenvectors(K):
            r = np.linalg.norm(hat @ vec - lam * vec) / np.linalg.norm(vec)
            worst_vec = max(worst_vec, float(r))
    res.add("eigenvalues match svd", worst_eig <= tol, f"max gap {worst_eig:.2e}")
    res.add("eigenvector residuals", worst_vec <= tol, f"max residual {worst_vec:.2e}")
    return res


def _loglog_extrapolate(Ns, values):
    x = 1.0 / np.log(np.asarray(Ns, dtype=float))
    coef = np.polyfit(x, np.asarray(values), 1)
    return float(coef[1])


@_timed
def check_sawtooth_band(profile: str = "default") -> CheckResult:
    """Criterion 6: single-jump truncation ladder against the half-width 1/2."""
    res = CheckResult("C6", "sawtooth band formula")
    Ns = [512, 1024, 2048, 4096, 8192]
    tops = []
    sym_defect = 0.0
    for N in Ns:
        ev = sawtooth_spectrum(N)
        tops.append(float(np.max(ev)))
        sym_defect = max(sym_defect, float(np.max(np.abs(np.sort(ev) + np.sort(-ev)[::-1]))))
    res.details["ladder"] = dict(zip(Ns, tops))
    res.add("strictly increasing", all(a < b for a, b in zip(tops, tops[1:])),
            f"ladder {['%.6f' % t for t in tops]}")
    res.add("below 1/2", all(t < 0.5 for t in tops), "")
    extrap = _loglog_extrapolate(Ns, tops)
    res.details["extrapolated"] = extrap
    res.add("1/log N extrapolation in [0.49, 0.51]", 0.49 <= extrap <= 0.51,
            f"extrapolated {extrap:.4f}")
    # band filling from the spectrum at the largest rung
    ev = sawtooth_spectrum(8192)
    edges = np.arange(-0.45, 0.4501, 0.05)
    counts, _ = np.histogram(ev, bins=edges)
    res.details["filling_counts"] = counts.tolist()
    res.add("every 0.05-subinterval of (-0.45, 0.45) occupied", bool(np.all(counts > 0)),
            f"bin counts {counts.tolist()}")
    tol = TOLERANCES[profile]["symmetry"]
    res.add("spectral +- symmetry", sym_defect <= tol, f"defect {sym_defect:.2e}")
    # eigh cross-check of the svd route at the smallest rung
    sym = sho.sawtooth_symbol([(0.0, 1.0)])
    T = sho.assemble_sho_circle(sym, 512)
    gap = float(np.max(np.abs(np.sort(T.eigenvalues("eigh")) - np.sort(sawtooth_spectrum(512)))))
    res.add("svd/eigh agreement at N=512", gap <= 1e-10, f"gap {gap:.2e}")
    return res


@_timed
def check_two_jump_band(profile: str = "default") -> CheckResult:
    """Criterion 7: multiplicity step of the two-jump symbol at half level."""
    res = CheckResult("C7", "two-jump multiplicity step")
    ev = two_jump_spectrum(8192)
    eps0 = sho.AC_PROXY_EPS
    inside = int(np.sum((np.abs(ev) > eps0) & (np.abs(ev) <= 0.5)))
    outside = int(np.sum(np.abs(ev) > 0.5))
    ratio = inside / max(outside, 1)
    res.details.update({"inside": inside, "outside": outside, "ratio": ratio})
    res.add("counting ratio > 1.5", ratio > 1.5,
            f"inside {inside} / outside {outside} = {ratio:.2f}")
    return res


@_timed
def check_scattering_unitarity(profile: str = "default", seed: int = 0) -> CheckResult:
    """Criterion 8: unitarity over random models, exact identity at V=0."""
    res = CheckResult("C8", "scattering unitarity")
    tol = TOLERANCES[profile]["unitarity"]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        width = int(rng.integers(1, 5))
        start = int(rng.integers(-5, 3))
        model = LatticeModel({start + j: float(rng.normal(scale=1.5)) for j in range(width)})
        sd = smatrix(model, float(rng.uniform(-1.95, 1.95)))
        worst = max(worst, sd.unitarity_defect)
    res.add("random models", worst <= tol, f"max defect {worst:.2e} (tol {tol:.0e})")
    free = smatrix(LatticeModel(), 0.4)
    gap = float(np.max(np.abs(free.S - np.eye(2))))
    res.add("free model identity", gap <= TOLERANCES[profile]["free_identity"],
            f"max entry gap {gap:.2e}")
    return res


@_timed
def check_headline_dtheta(profile: str = "default") -> CheckResult:
    """Criterion 9: the single-site step experiment against the band oracle."""
    res = CheckResult("C9", "headline step-function experiment")
    sd = smatrix(LatticeModel.single_site(2.0), 0.0)
    a1 = 0.5 * abs(sd.sigmas[0] - 1.0)
    res.details["a1"] = a1
    res.add("oracle half-width near sqrt(2)/2", abs(a1 - math.sqrt(2.0) / 2.0) <= 1e-12,
            f"a1 = {a1!r}")
    rep = headline_ladder()
    ladder = rep["max_eig_ladder"]
    res.details["ladder"] = ladder
    res.add("max eig in [0.85 a1, a1] at N=4096",
            0.85 * a1 <= ladder[-1] <= a1,
            f"max |eig| {ladder[-1]:.6f}, window [{0.85 * a1:.6f}, {a1:.6f}]")
    res.add("increasing along ladder", all(x < y for x, y in zip(ladder, ladder[1:])),
            f"{['%.6f' % x for x in ladder]}")
    outs = rep["outside_ladder"]
    res.add("outside count <= 5, non-increasing",
            all(n <= 5 for n in outs) and all(a >= b for a, b in zip(outs, outs[1:])),
            f"outside counts {outs}")
    tol = TOLERANCES[profile]["consistency"]
    res.add("jump-operator consistency", rep["consistency_gap"] <= tol,
            f"gap {rep['consistency_gap']:.2e}")
    return res


@_timed
def check_dropped_band(profile: str = "default") -> CheckResult:
    """Criterion 10: the unit scattering eigenvalue contributes no band."""
    res = CheckResult("C10", "dropped-band convention")
    sd = smatrix(LatticeModel.single_site(2.0), 0.0)
    res.add("sigma_2 equals 1", abs(sd.sigmas[1] - 1.0) <= 1e-12, f"sigma_2 = {sd.sigmas[1]!r}")
    theta = dth.StepFunction(jumps=((0.0, 1.0),))
    bands = dth.band_prediction(theta, [sd])
    res.add("exactly one band", len(bands.entries) == 1 and bands.entries[0][1] == 1,
            f"bands {bands.entries}")
    return res


@_timed
def check_compactness(profile: str = "default") -> CheckResult:
    """Criterion 11: weighted singular values decrease at every tracked index."""
    res = CheckResult("C11", "weighted compactness diagnostics")
    saw = sho.sawtooth_symbol([(math.pi, 1.0)])
    model = sho.cayley_transport(sho.model_symbol(1.0, 0.0))
    diff = sho.symbol_difference(saw, model)
    w = sho.WeightQ((math.pi,))
    for beta in (1.1, 1.4):
        rep = sho.compactness_refinement(diff, w, beta, [256, 512, 1024], tracked=48)
        res.details[f"beta={beta}"] = {
            "top_values": rep["values"][:, 0].tolist(),
            "max_growth_ratio": rep["max_growth_ratio"],
            # the sandwich solver's health, one entry per rung
            **{key: [h[key] for h in rep["health"]]
               for key in ("basis_rank", "residual_bound", "fallback", "products")},
        }
        res.add(f"beta={beta} decreasing at every tracked index", rep["all_decreasing"],
                f"top values {['%.4f' % v for v in rep['values'][:, 0]]}, "
                f"max growth ratio {rep['max_growth_ratio']:.2f}")
    return res


ALL_CHECKS = [
    ("golden", check_goldens),
    ("specfun", check_conical_asymptotics),
    ("mehler", check_mehler_identity),
    ("mehler", check_mf_transform),
    ("mehler", check_w_bounds),
    ("sho", check_block_diagonalization),
    ("sho", check_sawtooth_band),
    ("sho", check_two_jump_band),
    ("sho", check_compactness),
    ("scatter", check_scattering_unitarity),
    ("dtheta", check_headline_dtheta),
    ("dtheta", check_dropped_band),
]

FAMILIES = tuple(dict.fromkeys(fam for fam, _ in ALL_CHECKS))

RUNTIME_LIMITS = {"C1": 30.0, "C2": 60.0, "C4": 120.0, "C5": 5.0, "C6": 600.0,
                  "C8": 5.0, "C9": 600.0, "C11": 300.0}


def run_suite(only: str | None = None, profile: str = "default") -> dict:
    """Run the acceptance checks in dependency order.

    Criterion 12 is the suite itself: every check green and the total wall
    time within 30 minutes.
    """
    t0 = time.monotonic()
    selected = [(fam, fn) for fam, fn in ALL_CHECKS if only is None or fam == only]
    if not selected:
        raise ValueError(f"unknown check family {only!r}")
    results = [fn(profile) for _, fn in selected]
    total = time.monotonic() - t0
    report = {
        "profile": profile,
        "total_wall_time_s": total,
        "checks": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
        "within_budget": (total <= 1800.0) if only is None else None,
    }
    return {"report": report, "results": results}
