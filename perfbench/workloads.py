"""Seeded inputs, timed tasks and output checks of the benchmark workloads.

`build(workload, seed, workdir)` draws every input from the seed and returns
the tasks of one pass.  A task's `run` calls only public sho_spectra entry
points, the ones a user or the acceptance suite calls, so a later change
inside them shows up.  A task's `check` inspects the output after the timed
region and returns the violated invariants (an empty list when correct).

The seed draws values, never sizes or code paths: every jump matrix that
should give a real block stays real, every ladder keeps its rungs, and a
drawn potential that would hit a band edge or a near-singular transfer
matrix is drawn again and counted in `Inputs.redraws`.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sho_spectra import cli, mehler, sho, specfun
from sho_spectra import dtheta as dth
from sho_spectra.scattering1d import LatticeModel, sigma_scan, smatrix

WORKLOADS = ("hankel", "box")
MAX_REDRAWS = 1000
SYMMETRY_TOL = 1e-10
ORACLE_TOL = 1e-12


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    headline: bool = False


@dataclass
class Inputs:
    rng: np.random.Generator
    workdir: str
    redraws: int = 0

    def draw(self, make, valid):
        """Draw make(rng) until valid(value) holds; count the rejected draws."""
        for _ in range(MAX_REDRAWS):
            value = make(self.rng)
            if valid(value):
                return value
            self.redraws += 1
        raise RuntimeError(f"no valid input after {MAX_REDRAWS} draws")

    def write_json(self, name: str, payload: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path


def build(workload: str, seed: int, workdir: str):
    """Seeded inputs and the task list of one pass of the workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    inputs = Inputs(np.random.default_rng(seed), workdir)
    return inputs, globals()[f"_{workload}_tasks"](inputs)


# ---------------------------------------------------------------------------
# shared checks


def _symmetry_defect(ev) -> float:
    ev = np.sort(np.asarray(ev))
    return float(np.max(np.abs(ev + ev[::-1])))


def _expect(problems: list, ok: bool, message: str):
    if not ok:
        problems.append(message)


def _scatters(model: LatticeModel, energies) -> bool:
    try:
        for lam in energies:
            smatrix(model, float(lam))
    except ValueError:      # BandEdgeError, near-singular or non-unitary S
        return False
    return True


def _hilbert_singular_values(N: int) -> np.ndarray:
    """Singular values of the one-jump sawtooth block for K = 1: the Hilbert
    matrix 1/(i+j+1) divided by 2 pi, ascending."""
    from scipy.linalg import hilbert
    return np.sort(np.linalg.svd(hilbert(N), compute_uv=False)) / (2.0 * math.pi)


def _read_csv(path: str):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_manifest(path: str) -> dict:
    with open(path + ".manifest.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# hankel: full spectra of symmetrised Hankel truncations


def _svd_spectrum(symbol, N):
    return sho.assemble_sho_circle(symbol, N).eigenvalues("svd")


def _hankel_tasks(inp: Inputs) -> list:
    rng = inp.rng
    tasks = []

    # one-jump sawtooth ladder; K at location 0 keeps the block real
    K = rng.uniform(0.6, 1.4) * np.exp(2j * math.pi * rng.uniform())
    saw = sho.sawtooth_symbol([(0.0, K)])
    tops = {}

    def check_rung(N, ev):
        problems = []
        _expect(problems, ev.shape == (2 * N,), f"{ev.shape} eigenvalues, expected {2 * N}")
        sym = _symmetry_defect(ev)
        _expect(problems, sym <= SYMMETRY_TOL, f"+- symmetry defect {sym:.2e}")
        if N <= 1024:
            gap = float(np.max(np.abs(np.sort(ev)[N:] - abs(K) * _hilbert_singular_values(N))))
            _expect(problems, gap <= ORACLE_TOL, f"Hilbert oracle gap {gap:.2e}")
        tops[N] = float(np.max(ev))
        ladder = [tops.get(n, math.nan) for n in sorted(tops)]
        _expect(problems, all(a < b for a, b in zip(ladder, ladder[1:])),
                f"ladder not increasing: {ladder}")
        _expect(problems, tops[N] < abs(K) / 2, f"top {tops[N]} not below |K|/2 = {abs(K) / 2}")
        return problems

    for N in (512, 1024, 2048, 4096):
        tasks.append(Task(f"sawtooth_N{N}", lambda N=N: _svd_spectrum(saw, N),
                          lambda ev, N=N: check_rung(N, ev), headline=N == 4096))

    # two-jump symbol: real K at 0 and pi keep the block real
    K1, K2 = rng.uniform(0.5, 2.5, 2) * rng.choice([-1.0, 1.0], 2)
    two = sho.sawtooth_symbol([(0.0, K1), (math.pi, K2)])

    def check_two(ev):
        problems = []
        sym = _symmetry_defect(ev)
        _expect(problems, sym <= SYMMETRY_TOL, f"+- symmetry defect {sym:.2e}")
        # each one-jump block has norm below |K|/2, so the sum is below the sum
        bound = (abs(K1) + abs(K2)) / 2
        _expect(problems, float(np.max(np.abs(ev))) < bound, f"max |eig| above {bound}")
        return problems

    tasks.append(Task("two_jump_N2048", lambda: _svd_spectrum(two, 2048), check_two))

    # dim-2 jump K = S - I of a single site: the complex-block SVD
    v, lam = inp.draw(lambda r: (r.uniform(1.0, 3.0), r.uniform(-1.5, 1.5)),
                      lambda p: _scatters(LatticeModel.single_site(p[0]), [p[1]]))
    KS = smatrix(LatticeModel.single_site(v), lam).S - np.eye(2)
    mat = sho.sawtooth_symbol([(0.0, KS)], dim=2)

    def check_matrix_jump(ev):
        # the block is (Hilbert / 2 pi) kron K, so its singular values are products
        problems = []
        sym = _symmetry_defect(ev)
        _expect(problems, sym <= SYMMETRY_TOL, f"+- symmetry defect {sym:.2e}")
        sk = np.linalg.svd(KS, compute_uv=False)
        expected = np.sort(np.outer(_hilbert_singular_values(1024), sk).ravel())
        gap = float(np.max(np.abs(np.sort(ev)[2048:] - expected)))
        _expect(problems, gap <= ORACLE_TOL, f"Kronecker-Hilbert oracle gap {gap:.2e}")
        return problems

    tasks.append(Task("matrix_jump_N1024", lambda: _svd_spectrum(mat, 1024), check_matrix_jump))

    # CLI sho-spectrum of a zeta-model line symbol; 'auto' decides the solver
    lam0 = rng.uniform(-1.0, 1.0)
    Kz = rng.uniform(0.6, 1.4) * np.exp(2j * math.pi * rng.uniform())
    out = os.path.join(inp.workdir, "zeta_spectrum.csv")
    config = inp.write_json("zeta_spectrum.json", {
        "kind": "sho-spectrum", "seed": int(rng.integers(2 ** 31)), "output": out,
        "parameters": {"modes": 1024, "symbol": {
            "domain": "line", "dim": 1, "continuous": "zeta-model",
            "jumps": [{"location": lam0, "K": [Kz.real, Kz.imag]}]}}})

    def check_cli_spectrum(code):
        problems = []
        _expect(problems, code == cli.EXIT_OK, f"exit code {code}")
        rows = _read_csv(out)
        _expect(problems, rows[0] == ["index", "eigenvalue"], f"csv header {rows[0]}")
        idx = [int(r[0]) for r in rows[1:]]
        ev = np.array([float(r[1]) for r in rows[1:]])
        _expect(problems, idx == list(range(2048)), "csv index column is not 0..2047")
        _expect(problems, bool(np.all(np.diff(ev) >= 0)), "eigenvalues not ascending")
        sym = _symmetry_defect(ev)
        _expect(problems, sym <= SYMMETRY_TOL, f"+- symmetry defect {sym:.2e}")
        # the Hankel norm is at most sup |symbol| = |K| sup |zeta| = |K|/2
        _expect(problems, float(np.max(np.abs(ev))) <= abs(Kz) / 2 + 1e-9, "max |eig| above |K|/2")
        manifest = _read_manifest(out)
        _expect(problems, manifest["outputs"] == [out] and all(manifest["checks"].values()),
                f"manifest {manifest['outputs']} {manifest['checks']}")
        return problems

    tasks.append(Task("cli_zeta_spectrum_modes1024",
                      lambda: cli.main(["run", "--config", config]), check_cli_spectrum))

    # weighted compactness ladder of a difference symbol (C11 traffic)
    Kc = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
    diff = sho.symbol_difference(sho.sawtooth_symbol([(math.pi, Kc)]),
                                 sho.cayley_transport(sho.model_symbol(Kc, 0.0)))
    weight = sho.WeightQ((math.pi,))

    def check_compactness(rep):
        problems = []
        vals = np.asarray(rep["values"])
        _expect(problems, vals.shape == (3, 48), f"values shape {vals.shape}")
        _expect(problems, bool(np.all(np.isfinite(vals)) and np.all(vals >= 0)),
                "singular values not finite and nonnegative")
        _expect(problems, bool(np.all(np.diff(vals, axis=1) <= 0)), "rows not descending")
        return problems

    tasks.append(Task("compactness_beta1.4",
                      lambda: sho.compactness_refinement(diff, weight, 1.4, [256, 512, 1024]),
                      check_compactness))
    return tasks + _mehler_tasks(inp)


# ---------------------------------------------------------------------------
# mehler: the Mehler-Fock transform pair and its kernels


def _mehler_tasks(inp: Inputs) -> list:
    """A slice of the Mehler-Fock traffic, part of the hankel workload.

    Interpreter-bound code times far less steadily than LAPACK-bound code
    on a shared machine, so the full C1/C2 set (verify_identity f3 and
    unitarity, about 18 s) is not timed; this slice keeps every Mehler and
    specfun entry point under the timer: the f1 identity, two forward
    transforms that rebuild one kernel (the repeat a kernel cache removes),
    an inverse transform and w_tau, which never repeat a kernel, and the
    asymptotic grid.
    """
    rng = inp.rng
    t_grid, tau_grid = mehler.default_grids()
    t, taus = t_grid.nodes, tau_grid.nodes
    tasks = []

    f1_taus = np.sort(rng.uniform(0.25, 3.0, 5))

    def check_f1(rep):
        r = rep["max_residual"]
        return [] if r <= 1e-6 else [f"f1 max residual {r:.2e}"]

    tasks.append(Task("mehler_verify_f1", lambda: mehler.verify_identity("f1", taus=f1_taus),
                      check_f1))

    # smooth profiles pushed once through the kernel operator, which keeps
    # their transforms inside the tau window of the default grids
    K = mehler.kernel_matrix(t_grid)
    profiles = [mehler.SampledFunction(t_grid, K @ np.exp(-(t - c) ** 2 / w))
                for c, w in zip(rng.uniform(0.5, 2.5, 2), rng.uniform(0.3, 2.0, 2))]
    rng_kernel = np.random.default_rng(rng.integers(2 ** 63))

    def check_forward(gs):
        problems = []
        for f, g in zip(profiles, gs):
            defect = abs(tau_grid.norm(g) / f.norm() - 1.0)
            _expect(problems, defect <= 1e-3, f"isometry defect {defect:.2e}")
        return problems + _kernel_oracle_problems(t_grid, tau_grid, rng_kernel)

    transforms = []

    def forward_x2():
        transforms[:] = [mehler.mehler_fock_forward(f, taus) for f in profiles]
        return transforms

    tasks.append(Task("mehler_forward_x2", forward_x2, check_forward))

    def check_inverse(back):
        err = t_grid.norm(back - profiles[0].values) / profiles[0].norm()
        return [] if err <= 1e-3 else [f"round-trip relative error {err:.2e}"]

    tasks.append(Task("mehler_inverse",
                      lambda: mehler.mehler_fock_inverse(
                          mehler.SampledFunction(tau_grid, transforms[0]), t),
                      check_inverse))

    # w_tau under the default and the refined Filon scheme (C4 traffic)
    w_taus = np.sort(rng.uniform(0.5, 3.0, 3))
    small = np.sort(np.exp(rng.uniform(math.log(1e-4), math.log(0.5), 8)))
    large = np.sort(np.exp(rng.uniform(0.0, math.log(100.0), 8)))
    lams = np.concatenate([small, large])
    schemes = (mehler.FilonScheme(), mehler.FilonScheme().refine())

    def w_table():
        return np.array([[[mehler.w_tau(tau, lam, sch) for lam in lams] for tau in w_taus]
                         for sch in schemes])

    def check_w(w):
        problems = []
        _expect(problems, bool(np.all(np.isfinite(w))), "non-finite w_tau")
        sup_large = np.max(np.abs(w[:, :, 8:]) * large, axis=(1, 2))
        sup_small = np.max(np.abs(w[:, :, :8]) * np.sqrt(small), axis=(1, 2))
        for label, (a, b) in (("large-lambda", sup_large), ("small-lambda", sup_small)):
            rel = abs(a - b) / b
            _expect(problems, rel <= 0.05, f"{label} sup changes {rel:.2%} under refinement")
        return problems

    tasks.append(Task("mehler_w_tau_3x16_two_schemes", w_table, check_w))

    # conical Legendre values on the C3 asymptotic grid
    c3_taus = np.sort(rng.uniform(0.5, 3.0, 6))
    xs = np.linspace(50.0, 200.0, 31)

    def check_asymptotics(p):
        lead = np.array([np.real(specfun.m_tau(tau) * np.exp((-0.5 + 1j * tau) * np.log(xs)))
                         for tau in c3_taus])
        fitted = float(np.max(np.abs(p - lead) * xs ** 2.5))
        return [] if fitted < 10.0 else [f"scaled remainder {fitted:.3f}"]

    tasks.append(Task("specfun_conical_c3_grid",
                      lambda: np.vstack([specfun.conical_legendre_values(tau, xs) for tau in c3_taus]),
                      check_asymptotics))
    return tasks


def _kernel_oracle_problems(t_grid, tau_grid, rng) -> list:
    """Sampled legendre_kernel entries against mpmath on both sides of the
    series crossover x = 1 + t = 1.5."""
    import mpmath

    x = 1.0 + t_grid.nodes
    cross = specfun.DEFAULT_POLICY.crossover_x
    below = np.flatnonzero((x < cross) & (x > 1.05))
    above = np.flatnonzero((x >= cross) & (x < 20.0))
    cols = np.concatenate([below[-2:], above[:2], rng.choice(below, 2), rng.choice(above, 2)])
    taus = rng.choice(tau_grid.nodes, 4, replace=False)
    P = mehler.legendre_kernel(taus, t_grid)
    gap = max(abs(P[i, j] - float(mpmath.re(mpmath.legenp(-0.5 + 1j * tau, 0, x[j], type=3))))
              for i, tau in enumerate(taus) for j in cols)
    return [] if gap <= 1e-10 else [f"kernel entries differ from mpmath by {gap:.2e}"]


# ---------------------------------------------------------------------------
# box: theta(H) - theta(H0) on Dirichlet boxes


def _three_site(rng) -> LatticeModel:
    return LatticeModel({n: float(rng.uniform(-2.0, 2.0)) for n in (-1, 0, 1)})


def _box_tasks(inp: Inputs) -> list:
    rng = inp.rng
    tasks = []

    # C9: single site v = 2, step at 0, ladder 1024..4096, through the CLI.
    # The sign of kappa and the base level are drawn; a1 = sqrt(2)/2 is exact.
    kappa = float(rng.choice([-1.0, 1.0]))
    base = float(rng.uniform(-1.0, 1.0))
    out = os.path.join(inp.workdir, "c9_report.json")
    config = inp.write_json("c9.json", {
        "kind": "dtheta-run", "seed": int(rng.integers(2 ** 31)), "output": out,
        "parameters": {"model": {"sites": [{"n": 0, "v": 2.0}]},
                       "theta": {"jumps": [{"lambda": 0.0, "kappa": kappa}], "base": "step",
                                 "limits": [base, base + kappa]},
                       "box": 4096, "ladder": [1024, 2048, 4096]}})

    def check_c9(code):
        problems = []
        _expect(problems, code == cli.EXIT_OK, f"exit code {code}")
        with open(out) as fh:
            rep = json.load(fh)
        a1 = math.sqrt(2.0) / 2.0
        bands = rep["bands"]
        _expect(problems, len(bands) == 1 and bands[0]["multiplicity"] == 1
                and abs(bands[0]["half_width"] - a1) <= ORACLE_TOL, f"bands {bands}")
        _expect(problems, rep["consistency_gap"] <= 1e-12, f"consistency gap {rep['consistency_gap']}")
        ladder = rep["max_eig_ladder"]
        _expect(problems, all(a < b for a, b in zip(ladder, ladder[1:])) and ladder[-1] < a1,
                f"ladder {ladder} not increasing below a1")
        _expect(problems, all(n <= 5 for n in rep["outside_ladder"]),
                f"outside counts {rep['outside_ladder']}")
        _expect(problems, _read_manifest(out)["checks"] == {"consistency": True}, "manifest checks")
        return problems

    tasks.append(Task("cli_c9_dtheta_run", lambda: cli.main(["run", "--config", config]),
                      check_c9, headline=True))

    # three-site model under a two-jump smooth theta at N = 2048
    def draw_ladder(r):
        lams = np.sort(r.uniform(-1.7, 1.7, 2))
        kappas = r.uniform(0.5, 1.5, 2) * r.choice([-1.0, 1.0], 2)
        return _three_site(r), lams, kappas

    model, lams, kappas = inp.draw(
        draw_ladder, lambda d: d[1][1] - d[1][0] > 0.25 and _scatters(d[0], d[1]))
    theta = dth.StepFunction(tuple(zip(lams, kappas)), base="smooth")
    ladder_seed = int(rng.integers(2 ** 31))

    def check_ladder(rep):
        problems = []
        _expect(problems, rep["consistency_gap"] <= 1e-12, f"consistency gap {rep['consistency_gap']}")
        _expect(problems, [r["N"] for r in rep["rungs"]] == [2048], "rungs")
        _expect(problems, all(n <= 5 for n in rep["outside_ladder"]),
                f"outside counts {rep['outside_ladder']}")
        # ||theta(H) - theta(H0)|| <= 2 sup |theta|
        bound = 2.0 * theta.sup_abs()
        _expect(problems, rep["max_eig_ladder"][0] <= bound, f"max |eig| above {bound}")
        return problems

    tasks.append(Task("ladder_three_site_N2048",
                      lambda: dth.ladder_report(model, theta, [2048], seed=ladder_seed),
                      check_ladder))

    # evolution localization: 2 windows x 32 times at N = 1024
    ev_model, jump = inp.draw(lambda r: (_three_site(r), r.uniform(-1.5, 1.5)),
                              lambda d: _scatters(d[0], [d[1]]))
    ev_theta = dth.StepFunction(((jump, float(rng.uniform(0.5, 1.5))),))
    pair = dth.BoxPair(1024, ev_model)
    f = np.zeros(1024)
    f[512 - 32:512 + 32] = rng.normal(size=64)
    f /= np.linalg.norm(f)
    windows = [(-2.0, float(rng.uniform(-1.5, -0.5))), (float(rng.uniform(0.5, 1.5)), 2.0)]
    times = np.linspace(0.0, float(rng.uniform(20.0, 80.0)), 32)

    def check_evolution(rep):
        problems = []
        p2 = rep["projected_norm2"]
        masses = np.array([c["mass"] for c in rep["curves"]])
        _expect(problems, masses.shape == (2, 32), f"mass table shape {masses.shape}")
        _expect(problems, 0.0 < p2 <= 1.0 + 1e-10, f"projected norm^2 {p2}")
        _expect(problems, bool(np.all(np.isfinite(masses)) and np.all(masses >= -1e-12)
                               and np.all(masses <= p2 * (1 + 1e-9))), "window mass out of [0, |Pf|^2]")
        return problems

    tasks.append(Task("evolution_N1024_2x32",
                      lambda: dth.evolution_localization(pair, ev_theta, f, windows, times),
                      check_evolution))

    # sigma scans over 3801 energies for three models
    grid = -1.9 + 0.001 * np.arange(3801)
    models = [inp.draw(_three_site, lambda m: _scatters(m, grid[::100])) for _ in range(3)]

    def check_scans(scans):
        problems = []
        for scan in scans:
            rows = scan["rows"]
            _expect(problems, len(rows) == grid.size, f"{len(rows)} rows")
            sig = np.array([[r["sigma1"], r["sigma2"]] for r in rows])
            flux = np.array([abs(r["t"]) ** 2 + abs(r["r"]) ** 2 for r in rows])
            _expect(problems, float(np.max(np.abs(np.abs(sig) - 1.0))) <= 1e-10, "|sigma| != 1")
            _expect(problems, float(np.max(np.abs(flux - 1.0))) <= 1e-10, "|t|^2 + |r|^2 != 1")
        return problems

    tasks.append(Task("sigma_scan_3x3801", lambda: [sigma_scan(m, grid) for m in models],
                      check_scans))
    return tasks
