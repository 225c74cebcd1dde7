"""Command-line driver: per-module subcommands, config-file runs, and the
acceptance-suite `reproduce` entry point.

This module is the one input layer: the config file and the model.json,
theta.json and symbol.json payloads are read here into the library's
objects, and a malformed field raises ConfigError naming it by its path,
such as ``theta.limits`` or ``symbol.jumps[0].location``.

Every subcommand except `scatter smatrix` and `reproduce` builds an
ExperimentConfig.  Its kind has one reader, `_read`, which parses the
parameters into the objects the run uses and raises ConfigError naming the
first malformed field before any computation; `parse_config` and `run` both
call it.  `run` then builds the kind's output text and either writes it to
the config's `output`, atomically (temp file + rename) and with a manifest
next to it, or, without an `output`, prints it.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 numerical
failure (non-convergence, eigensolver or scattering-matrix breakdown).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, acceptance, dtheta as dth, mehler, sho
from .scattering1d import (BandEdgeError, LatticeModel, ScatteringBreakdownError, sigma_scan,
                           smatrix)
from .specfun import SeriesConvergenceError, conical_legendre_values, m_tau, zeta_kernel

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

KNOWN_KINDS = ("sho-spectrum", "sho-bands", "mehler-verify", "scatter-scan",
               "dtheta-run", "specfun-eval")
# per-rung fields of a dtheta-run report; the health ones also go to the manifest
RUNG_HEALTH = ("factor_rank", "nodes", "window", "sign_error", "residual_bound", "fallback",
               "products", "trace_defect", "edge_gap")
RUNG_FIELDS = ("N", "max_abs_eig", "nonzero_count", "n_outside", "route") + RUNG_HEALTH
# a lo:hi:step grid spec is one scan row per point, all in one batched pass
# (about 0.6 kB per point at its peak: 61 MB for 100000 points)
GRID_MAX_POINTS = 100_000
# the largest |n| of a model.json site: half the largest box (65536) the CLI
# runs, and a bound on the per-site loop of the transfer product
MAX_SITE = 32768


class ConfigError(ValueError):
    """Structured configuration problem; carries the offending fields."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = list(fields)


# ---------------------------------------------------------------------------
# field readers: each names the field it rejects by its path


def _as_object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object", [where])
    return data


def _as_number(value, where: str) -> float:
    """Finite float; NaN, infinities, booleans and non-numbers are rejected."""
    try:
        if isinstance(value, bool):             # float(True) is 1.0
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} = {value!r} is not a number", [where]) from None
    if not math.isfinite(x):
        raise ConfigError(f"{where} = {value!r} is not finite", [where])
    return x


def _required(data, key: str, where: str):
    if key not in _as_object(data, where):
        raise ConfigError(f"{where}.{key} is missing", [f"{where}.{key}"])
    return data[key]


def _number(data, key: str, where: str) -> float:
    return _as_number(_required(data, key, where), f"{where}.{key}")


def _integer(data, key: str, where: str) -> int:
    x = _number(data, key, where)
    if x != int(x):
        raise ConfigError(f"{where}.{key} = {x!r} is not an integer", [f"{where}.{key}"])
    return int(x)


def _items(data, key: str, where: str) -> list:
    """List field; a missing key reads as the empty list."""
    value = _as_object(data, where).get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{where}.{key} must be a list", [f"{where}.{key}"])
    return value


# ---------------------------------------------------------------------------
# io helpers


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _writing(where: str, path: str):
    """An OSError inside the block (a path under a file, a name ending in
    a separator) becomes a ConfigError naming the field where."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{where} = {path!r} cannot be written: {exc.strerror or exc}",
                          [where]) from None


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def format_float(x: float) -> str:
    return f"{x:.17g}"


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _complex_entry(value):
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if all(isinstance(v, (int, float)) for v in parts):
        re, im = (_as_number(v, f"complex entry {value!r}") for v in parts)
        return complex(re, im)
    raise ConfigError(f"cannot parse complex entry {value!r}")


def parse_complex_matrix(value):
    """Finite scalar, [re, im], or a rectangular list of rows of those."""
    try:
        return _complex_entry(value)
    except ConfigError:
        pass
    if (isinstance(value, list) and value and all(isinstance(row, list) for row in value)
            and len({len(row) for row in value}) == 1):
        return np.array([[_complex_entry(e) for e in row] for row in value])
    raise ConfigError(f"cannot parse jump matrix {value!r}")


# ---------------------------------------------------------------------------
# manifests


@dataclass
class RunManifest:
    config_hash: str
    version: str = __version__
    wall_time_s: float = 0.0
    tol_profile: str = "default"
    checks: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    eigensolver: str | None = None
    eigensolver_health: dict | None = None

    def write(self, base_path: str):
        payload = {
            "config_hash": self.config_hash,
            "version": self.version,
            "wall_time_s": round(self.wall_time_s, 3),
            "tol_profile": self.tol_profile,
            "tolerances": acceptance.TOLERANCES[self.tol_profile],
            "checks": self.checks,
            "outputs": self.outputs,
        }
        if self.eigensolver is not None:
            payload["eigensolver"] = self.eigensolver
        if self.eigensolver_health is not None:
            payload["eigensolver_health"] = self.eigensolver_health
        atomic_write_text(base_path + ".manifest.json", dump_json(payload))


def config_hash(payload: dict, seed: int) -> str:
    blob = json.dumps({"config": payload, "seed": seed}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    parameters: dict
    seed: int = 0
    output: str | None = None

    @property
    def hash(self) -> str:
        return config_hash({"kind": self.kind, "parameters": self.parameters,
                            "output": self.output}, self.seed)


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}", ["path"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}", ["path"]) from exc
    except (OSError, UnicodeDecodeError) as exc:     # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}", ["path"]) from None


def parse_config(path: str) -> ExperimentConfig:
    """Validate a config file into an ExperimentConfig, defaults filled."""
    data = _load_json_file(path)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object", ["<root>"])
    cfg = ExperimentConfig(kind=data.get("kind"), parameters=data.get("parameters", {}),
                           seed=data.get("seed", 0), output=data.get("output"))
    _read(cfg)
    return cfg


def _read(cfg: ExperimentConfig) -> dict:
    """The parameters of cfg's kind as the objects run() uses.  A missing,
    mistyped or out-of-domain field, the seed and the output path included,
    raises ConfigError naming it, before any computation."""
    p = cfg.parameters
    if not isinstance(p, dict):
        raise ConfigError("parameters must be an object", ["parameters"])
    if isinstance(cfg.seed, bool) or not isinstance(cfg.seed, int):     # a bool is an int
        raise ConfigError(f"seed = {cfg.seed!r} is not an integer", ["seed"])
    if cfg.seed < 0:
        raise ConfigError(f"seed = {cfg.seed} is negative", ["seed"])
    if cfg.output is not None and not isinstance(cfg.output, str):
        raise ConfigError(f"output = {cfg.output!r} is not a path", ["output"])
    if cfg.output and os.path.isdir(cfg.output):
        raise ConfigError(f"output = {cfg.output!r} is a directory", ["output"])
    if cfg.kind == "specfun-eval":
        fn = p.get("fn")
        if fn not in ("zeta", "conical", "mtau"):
            raise ConfigError("fn must be one of zeta|conical|mtau", ["fn"])
        args = _numbers(_items(p, "args", "parameters"), "args")
        if fn == "conical":
            if len(args) % 2:
                raise ConfigError("conical expects (tau, x) pairs", ["args"])
            for i in range(1, len(args), 2):
                if args[i] < 1.0:
                    raise ConfigError(f"args[{i}] = {args[i]!r} is below 1 (x >= 1)",
                                      [f"args[{i}]"])
        return {"fn": fn, "args": args}
    if cfg.kind == "mehler-verify":
        identity = p.get("identity", "f1")
        if identity not in ("f1", "f3", "unitarity"):
            raise ConfigError("identity must be one of f1|f3|unitarity", ["identity"])
        taus = p.get("tau")
        if taus is not None:
            taus = [_as_number(t, f"tau[{i}]")
                    for i, t in enumerate(taus if isinstance(taus, list) else [taus])]
            if identity != "unitarity":         # unitarity transforms over its own tau grid
                _check_taus(identity, taus)
        return {"identity": identity, "taus": taus}
    if cfg.kind in ("sho-spectrum", "sho-bands"):
        symbol = load_symbol(_required(p, "symbol", "parameters"))
        if cfg.kind == "sho-bands":
            if not symbol.jumps:
                raise ConfigError("symbol.jumps is empty: band prediction needs at least one jump",
                                  ["symbol.jumps"])
            return {"symbol": symbol}
        modes = p.get("modes", 256)
        if not (isinstance(modes, int) and 2 <= modes <= 16384):
            raise ConfigError(f"modes = {modes!r} out of range [2, 16384]", ["modes"])
        if symbol.domain == "line":             # the truncation carries the jumps to the circle
            for i, (location, _) in enumerate(symbol.jumps):
                _in_domain(f"symbol.jumps[{i}].location", sho.transported_angle, location)
        return {"symbol": symbol, "modes": modes}
    if cfg.kind == "scatter-scan":
        return {"model": load_model(_required(p, "model", "parameters")),
                "grid": _parse_grid(_required(p, "grid", "parameters"))}
    if cfg.kind != "dtheta-run":
        raise ConfigError(f"unknown kind {cfg.kind!r}; expected one of {KNOWN_KINDS}", ["kind"])
    theta = load_theta(_required(p, "theta", "parameters"))
    for i, (lam, _) in enumerate(theta.jumps):
        if not -2.0 < lam < 2.0:
            raise ConfigError(f"theta.jumps[{i}].lambda = {lam!r} outside the open band (-2, 2)",
                              [f"theta.jumps[{i}].lambda"])
    box = [("box", p.get("box", 1024))]
    ladder = [(f"ladder[{i}]", n) for i, n in enumerate(_items(p, "ladder", "parameters"))]
    for where, n in box + ladder:
        if not (isinstance(n, int) and 8 <= n <= 65536):
            raise ConfigError(f"{where} = {n!r} out of range [8, 65536]", [where])
    model = load_model(_required(p, "model", "parameters"))
    for where, n in ladder or box:              # the sizes run() runs
        try:
            dth.BoxPair(n, model)
        except ValueError as exc:
            raise ConfigError(f"{where} = {n}: {exc}", [where]) from None
    return {"model": model, "theta": theta, "sizes": [n for _, n in ladder or box]}


def _numbers(values: list, where: str) -> list:
    """The finite floats of a non-empty list; an entry is named where[i]."""
    if not values:
        raise ConfigError(f"{where} is empty: give at least one value", [where])
    return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _check_taus(identity: str, taus):
    """Both identities need m(tau), which has a pole at 0; f3 transforms over tau > 0."""
    if not taus:
        raise ConfigError("tau is empty: give at least one value", ["tau"])
    for i, tau in enumerate(taus):
        if identity == "f3" and tau <= 0.0:
            raise ConfigError(f"tau[{i}] = {tau!r} is not positive", [f"tau[{i}]"])
        _in_domain(f"tau[{i}]", m_tau, tau)


def _in_domain(where: str, fn, *args):
    """fn(*args), where a ValueError (an argument outside the domain of fn,
    such as a pole of gamma) becomes a ConfigError naming the field where."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{where} = {args[0]!r} is outside the domain: {exc}", [where]) from None


def _parse_grid(spec) -> np.ndarray:
    if isinstance(spec, list):
        return np.array(_numbers(spec, "grid"))
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec {spec!r} not in lo:hi:step form", ["grid"])
    lo, hi, step = (_as_number(v, "grid") for v in parts)
    if not (step > 0.0 and hi >= lo):
        raise ConfigError(f"grid spec {spec!r} needs step > 0 and hi >= lo", ["grid"])
    n = (hi - lo) / step
    # n < GRID_MAX_POINTS first, so an infinite n never reaches round()
    if not (n < GRID_MAX_POINTS and round(n) + 1 <= GRID_MAX_POINTS):
        raise ConfigError(f"grid spec {spec!r} has more than {GRID_MAX_POINTS} points", ["grid"])
    return lo + step * np.arange(round(n) + 1)


# ---------------------------------------------------------------------------
# model, theta and symbol files


def load_model(data: dict) -> LatticeModel:
    """Model from a model.json payload; a malformed field, or a site given
    twice, raises ConfigError."""
    _required(data, "sites", "model")
    potential = {}
    for i, s in enumerate(_items(data, "sites", "model")):
        n = _integer(s, "n", f"model.sites[{i}]")
        if abs(n) > MAX_SITE:
            raise ConfigError(f"model.sites[{i}].n = {n} is outside [-{MAX_SITE}, {MAX_SITE}]",
                              [f"model.sites[{i}].n"])
        if n in potential:
            raise ConfigError(f"model.sites[{i}].n = {n} repeats an earlier site",
                              [f"model.sites[{i}].n"])
        potential[n] = _number(s, "v", f"model.sites[{i}]")
    return LatticeModel(potential)


def load_theta(data: dict) -> dth.StepFunction:
    """Step function from a theta.json payload; a malformed field raises
    ConfigError naming it."""
    jumps = tuple((_number(j, "lambda", f"theta.jumps[{i}]"),
                   _number(j, "kappa", f"theta.jumps[{i}]"))
                  for i, j in enumerate(_items(data, "jumps", "theta")))
    base = data.get("base", "step")
    limits = data.get("limits")
    if limits is not None:
        if not (isinstance(limits, list) and len(limits) == 2):
            raise ConfigError(f"theta.limits = {limits!r} is not a [lower, upper] pair",
                              ["theta.limits"])
        limits = [_as_number(v, f"theta.limits[{k}]") for k, v in enumerate(limits)]
    try:
        theta = dth.StepFunction(jumps, base, limits[0] if limits else 0.0)
    except ValueError as exc:
        raise ConfigError(f"theta: {exc}", ["theta.jumps", "theta.base"]) from None
    if limits is not None and base == "step" and abs(theta.l_plus - limits[1]) > 1e-12:
        raise ConfigError(f"theta.limits = {limits} inconsistent with jump sum "
                          f"{theta.l_plus - theta.l_minus!r}", ["theta.limits"])
    return theta


def load_symbol(data: dict) -> sho.PiecewiseSymbol:
    """Symbol from a symbol.json payload; a malformed field raises ConfigError."""
    domain = _as_object(data, "symbol").get("domain", "circle")
    if domain not in ("circle", "line"):
        raise ConfigError(f"symbol.domain = {domain!r} is not 'circle' or 'line'",
                          ["symbol.domain"])
    dim = _integer(data, "dim", "symbol") if "dim" in data else 1
    if dim < 1:
        raise ConfigError(f"symbol.dim = {dim!r} is not a positive integer", ["symbol.dim"])
    jumps = []
    for i, jump in enumerate(_items(data, "jumps", "symbol")):
        where = f"symbol.jumps[{i}]"
        location = _number(jump, "location", where)
        K = _required(jump, "K", where)
        try:
            K = parse_complex_matrix(K)
        except ConfigError as exc:
            raise ConfigError(f"{where}.K: {exc}", [f"{where}.K"]) from None
        jumps.append((location, K))
    try:
        return _symbol_preset(domain, dim, data.get("continuous", "sawtooth"), jumps)
    except ConfigError:
        raise
    except ValueError as exc:       # PiecewiseSymbol rejects the jump set
        raise ConfigError(f"symbol.jumps: {exc}", ["symbol.jumps"]) from None


def _symbol_preset(domain, dim, preset, jumps) -> sho.PiecewiseSymbol:
    if preset in ("sawtooth", "zeta-model"):        # a jump carrier on its own domain
        home = "circle" if preset == "sawtooth" else "line"
        if domain != home:
            raise ConfigError(f"symbol.domain = {domain!r}: {preset} preset requires {home!r}",
                              ["symbol.domain"])
        if not jumps:
            raise ConfigError(f"symbol.jumps is missing or empty: {preset} preset requires jumps",
                              ["symbol.jumps"])
        return sho.PiecewiseSymbol(home, dim=dim, jumps=tuple(jumps), carrier=preset)
    if preset == "smooth-bump":
        if jumps:
            raise ConfigError("symbol.jumps must be empty: smooth-bump preset is continuous",
                              ["symbol.jumps"])
        return sho.smooth_bump_symbol(domain)
    raise ConfigError(f"symbol.continuous = {preset!r} is not a known preset; expected "
                      "sawtooth, smooth-bump or zeta-model", ["symbol.continuous"])


# ---------------------------------------------------------------------------
# runs


def run(cfg: ExperimentConfig, tol_profile: str = "default") -> RunManifest:
    """Read a config, compute its kind, and write the output text atomically
    with a manifest next to it, or print it when the config names no output."""
    t0 = time.monotonic()
    parsed = _read(cfg)
    manifest = RunManifest(config_hash=cfg.hash, tol_profile=tol_profile)
    if cfg.kind == "specfun-eval":
        text = _eval_specfun(parsed["fn"], parsed["args"])
    elif cfg.kind == "mehler-verify":
        report = mehler.verify_identity(parsed["identity"], taus=parsed["taus"])
        key = "max_residual" if "max_residual" in report else "max_defect"
        tol = acceptance.TOLERANCES[tol_profile][{"f1": "mehler_identity", "f3": "mf_diagonalization",
                                                   "unitarity": "isometry_default"}[report["identity"]]]
        manifest.checks[f"{report['identity']}-residual"] = bool(report[key] <= tol)
        text = dump_json(report)
    elif cfg.kind == "sho-spectrum":
        T = sho.assemble_sho_circle(parsed["symbol"], parsed["modes"])
        ev, manifest.eigensolver, manifest.eigensolver_health = T.solve()
        manifest.checks["hermitian"] = True
        text = csv_text(["index", "eigenvalue"], [(i, float(e)) for i, e in enumerate(ev)])
    elif cfg.kind == "sho-bands":
        text = dump_json(sho.predict_bands(parsed["symbol"]).to_json())
    elif cfg.kind == "scatter-scan":
        scan = sigma_scan(parsed["model"], parsed["grid"])
        manifest.checks["scan-continuity"] = bool(scan["max_dsigma_per_dlambda"] < 100.0)
        text = csv_text(["lambda", "re_t", "im_t", "re_r", "im_r", "re_sigma1", "im_sigma1",
                         "re_sigma2", "im_sigma2", "abs_sigma1_minus_1"],
                        [(r["lambda"], r["t"].real, r["t"].imag, r["r"].real, r["r"].imag,
                          r["sigma1"].real, r["sigma1"].imag, r["sigma2"].real, r["sigma2"].imag,
                          r["abs_sigma1_minus_1"]) for r in scan["rows"]])
    else:
        rep = dth.ladder_report(parsed["model"], parsed["theta"], parsed["sizes"], seed=cfg.seed)
        text = dump_json({
            "bands": rep["bands"].to_json(),
            "consistency_gap": rep["consistency_gap"],
            "max_eig_ladder": rep["max_eig_ladder"],
            "outside_ladder": rep["outside_ladder"],
            "rungs": [{key: r[key] for key in RUNG_FIELDS} | {"bin_counts": r["bin_counts"].tolist()}
                      for r in rep["rungs"]],
            "runtime_s": round(time.monotonic() - t0, 3),
        })
        manifest.checks["consistency"] = bool(rep["consistency_gap"] <= 1e-12)
        manifest.eigensolver = rep["rungs"][0]["route"]     # every rung takes the same route
        manifest.eigensolver_health = {key: [r[key] for r in rep["rungs"]] for key in RUNG_HEALTH}
    if not cfg.output:
        print(text, end="")
        manifest.wall_time_s = time.monotonic() - t0
        return manifest
    with _writing("output", cfg.output):
        atomic_write_text(cfg.output, text)
        manifest.outputs.append(cfg.output)
        manifest.wall_time_s = time.monotonic() - t0
        manifest.write(cfg.output)
    return manifest


def _eval_specfun(fn: str, args) -> str:
    if fn == "zeta":
        vals = [format_float(float(_in_domain(f"args[{i}]", zeta_kernel, a)))
                for i, a in enumerate(args)]
    elif fn == "mtau":
        vals = [f"{format_float(v.real)} {format_float(v.imag)}"
                for v in (_in_domain(f"args[{i}]", m_tau, a) for i, a in enumerate(args))]
    else:
        vals = [format_float(float(_in_domain(f"args[{i}]", conical_legendre_values,
                                              *args[i:i + 2])))
                for i in range(0, len(args), 2)]
    return "\n".join(vals) + "\n"


# ---------------------------------------------------------------------------
# reproduce


def reproduce(only: str | None, profile: str, out_dir: str) -> int:
    suite = acceptance.run_suite(only=only, profile=profile)
    for r in suite["results"]:
        print(r.line())
        for label, ok, detail in r.subchecks:
            if not ok:
                print(f"         failed sub-check: {label} -- {detail}")
    report = suite["report"]
    path = os.path.join(out_dir, "reproduce_report.json")
    payload = dict(report)
    with _writing("--out-dir", out_dir):
        atomic_write_text(path, dump_json(payload))
    print(f"total wall time: {report['total_wall_time_s']:.1f}s; report: {path}")
    if not report["all_passed"]:
        return EXIT_CHECK_FAILURE
    if report["within_budget"] is False:
        return EXIT_CHECK_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sho-spectra",
                                 description="spectral-band workbench command line")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the offsets `dtheta run` gives theta jumps that sit on a box "
                         "eigenvalue; it enters the config hash, and `reproduce` ignores it "
                         "(its checks use seed 0)")
    ap.add_argument("--out-dir", default="out", help="directory for suite reports")
    ap.add_argument("--tol-profile", choices=("default", "strict"), default="default")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("specfun", help="special-function evaluation")
    spsub = sp.add_subparsers(dest="action", required=True)
    ev = spsub.add_parser("eval")
    ev.add_argument("--fn", choices=("zeta", "conical", "mtau"), required=True)
    ev.add_argument("--args", nargs="+", type=float, required=True)

    me = sub.add_parser("mehler", help="kernel/transform identity checks")
    mesub = me.add_subparsers(dest="action", required=True)
    ver = mesub.add_parser("verify")
    ver.add_argument("--identity", choices=("f1", "f3", "unitarity"), required=True)
    ver.add_argument("--tau", nargs="*", type=float, default=None)
    ver.add_argument("--out", default=None)

    sh = sub.add_parser("sho", help="symbol truncation spectra and bands")
    shsub = sh.add_subparsers(dest="action", required=True)
    spec = shsub.add_parser("spectrum")
    spec.add_argument("--symbol", required=True)
    spec.add_argument("--modes", type=int, required=True)
    spec.add_argument("--out", required=True)
    bands = shsub.add_parser("bands")
    bands.add_argument("--symbol", required=True)

    sc = sub.add_parser("scatter", help="lattice scattering data")
    scsub = sc.add_subparsers(dest="action", required=True)
    sm = scsub.add_parser("smatrix")
    sm.add_argument("--model", required=True)
    sm.add_argument("--lambda", dest="lam", type=float, required=True)
    scan = scsub.add_parser("scan")
    scan.add_argument("--model", required=True)
    scan.add_argument("--grid", required=True)
    scan.add_argument("--out", required=True)

    dt = sub.add_parser("dtheta", help="step-function difference experiments")
    dtsub = dt.add_subparsers(dest="action", required=True)
    dtrun = dtsub.add_parser("run")
    dtrun.add_argument("--model", required=True)
    dtrun.add_argument("--theta", required=True)
    dtrun.add_argument("--box", type=int, default=1024)
    dtrun.add_argument("--ladder", default=None, help="comma separated box sizes")
    dtrun.add_argument("--out", required=True)

    runp = sub.add_parser("run", help="run a config file")
    runp.add_argument("--config", required=True)

    rep = sub.add_parser("reproduce", help="run the acceptance suite")
    rep.add_argument("--only", default=None,
                     help="restrict to one family: golden|specfun|mehler|sho|scatter|dtheta")
    return ap


def _config_from_args(args) -> ExperimentConfig:
    if args.command == "specfun":
        return ExperimentConfig("specfun-eval", {"fn": args.fn, "args": list(args.args)},
                                seed=args.seed)
    if args.command == "mehler":
        return ExperimentConfig("mehler-verify",
                                {"identity": args.identity, "tau": args.tau},
                                seed=args.seed, output=args.out)
    if args.command == "sho" and args.action == "spectrum":
        return ExperimentConfig("sho-spectrum",
                                {"symbol": _load_json_file(args.symbol), "modes": args.modes},
                                seed=args.seed, output=args.out)
    if args.command == "sho" and args.action == "bands":
        return ExperimentConfig("sho-bands", {"symbol": _load_json_file(args.symbol)},
                                seed=args.seed)
    if args.command == "scatter" and args.action == "scan":
        return ExperimentConfig("scatter-scan",
                                {"model": _load_json_file(args.model), "grid": args.grid},
                                seed=args.seed, output=args.out)
    if args.command == "dtheta":
        try:
            ladder = [int(v) for v in args.ladder.split(",")] if args.ladder else None
        except ValueError:
            raise ConfigError(f"--ladder {args.ladder!r} is not a comma separated list of "
                              "integers", ["--ladder"]) from None
        params = {"model": _load_json_file(args.model),
                  "theta": _load_json_file(args.theta), "box": args.box}
        if ladder:
            params["ladder"] = ladder
        return ExperimentConfig("dtheta-run", params, seed=args.seed, output=args.out)
    raise ConfigError(f"no config mapping for {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            if args.only is not None and args.only not in acceptance.FAMILIES:
                raise ConfigError(f"unknown check family {args.only!r}; "
                                  f"expected one of {acceptance.FAMILIES}", ["--only"])
            with _writing("--out-dir", args.out_dir):
                os.makedirs(args.out_dir, exist_ok=True)
            return reproduce(args.only, args.tol_profile, args.out_dir)
        if args.command == "scatter" and args.action == "smatrix":
            model = load_model(_load_json_file(args.model))
            sd = smatrix(model, args.lam)
            payload = {
                "lambda": sd.lam, "k": sd.k,
                "S": [[[v.real, v.imag] for v in row] for row in sd.S],
                "sigmas": [[v.real, v.imag] for v in sd.sigmas],
                "abs_sigma_minus_1": [abs(v - 1.0) for v in sd.sigmas],
                "unitarity_defect": sd.unitarity_defect,
            }
            print(dump_json(payload), end="")
            return EXIT_OK
        cfg = parse_config(args.config) if args.command == "run" else _config_from_args(args)
        manifest = run(cfg, tol_profile=args.tol_profile)
        return EXIT_OK if all(manifest.checks.values()) else EXIT_CHECK_FAILURE
    except (ConfigError, BandEdgeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SeriesConvergenceError, ScatteringBreakdownError, dth.JumpCollisionError,
            dth.SignApproximationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
