"""Command-line driver: per-module subcommands, config-file runs, and the
acceptance-suite `reproduce` entry point.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 numerical
failure (non-convergence, eigensolver or scattering-matrix breakdown).
Every file-producing run also writes a manifest next to its output; writes
are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, acceptance, dtheta as dth, fields, mehler, sho
from .fields import ConfigError
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
               "trace_defect", "edge_gap")
RUNG_FIELDS = ("N", "max_abs_eig", "nonzero_count", "n_outside", "route") + RUNG_HEALTH
# a lo:hi:step grid spec is one scan row per point, all in one batched pass
# (about 0.6 kB per point at its peak: 61 MB for 100000 points)
GRID_MAX_POINTS = 100_000


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


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _complex_entry(value):
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if all(isinstance(v, (int, float)) for v in parts):
        re, im = (fields.as_number(v, f"complex entry {value!r}") for v in parts)
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
    if not os.path.exists(path):
        raise ConfigError(f"no such file: {path}", ["path"])
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}", ["path"]) from exc


def parse_config(path: str) -> ExperimentConfig:
    """Validate a config file into an ExperimentConfig, defaults filled."""
    data = _load_json_file(path)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object", ["<root>"])
    kind = data.get("kind")
    if kind not in KNOWN_KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KNOWN_KINDS}", ["kind"])
    params = data.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object", ["parameters"])
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):     # a bool is an int
        raise ConfigError(f"seed = {seed!r} is not an integer", ["seed"])
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output = {output!r} is not a path", ["output"])
    cfg = ExperimentConfig(kind=kind, parameters=params, seed=seed, output=output)
    _validate_parameters(cfg)
    return cfg


def _validate_parameters(cfg: ExperimentConfig):
    """Check the fields run() reads before it reads them, so a missing or
    mistyped field exits with its name instead of a traceback."""
    p = cfg.parameters
    if cfg.kind == "dtheta-run":
        theta = fields.required(p, "theta", "parameters")
        for i, jump in enumerate(fields.items(theta, "jumps", "theta")):
            lam = fields.number(jump, "lambda", f"theta.jumps[{i}]")
            if not -2.0 < lam < 2.0:
                raise ConfigError(
                    f"theta.jumps[{i}].lambda = {lam!r} outside the open band (-2, 2)",
                    [f"theta.jumps[{i}].lambda"])
        box = p.get("box", 1024)
        if not (isinstance(box, int) and 8 <= box <= 65536):
            raise ConfigError(f"box = {box!r} out of range [8, 65536]", ["box"])
        sizes = fields.items(p, "ladder", "parameters")
        ladder = [(f"ladder[{i}]", n) for i, n in enumerate(sizes)]
        for where, n in ladder:
            if not (isinstance(n, int) and 8 <= n <= 65536):
                raise ConfigError(f"{where} = {n!r} out of range [8, 65536]", [where])
        model = LatticeModel.from_dict(fields.required(p, "model", "parameters"))
        for where, n in ladder or [("box", box)]:       # the sizes run() runs
            try:
                dth.BoxPair(n, model)
            except ValueError as exc:
                raise ConfigError(f"{where} = {n}: {exc}", [where]) from None
    if cfg.kind in ("sho-spectrum", "sho-bands"):
        fields.required(p, "symbol", "parameters")
    if cfg.kind == "sho-spectrum":
        modes = p.get("modes", 256)
        if not (isinstance(modes, int) and 2 <= modes <= 16384):
            raise ConfigError(f"modes = {modes!r} out of range [2, 16384]", ["modes"])
    if cfg.kind == "scatter-scan":
        fields.required(p, "model", "parameters")
        fields.required(p, "grid", "parameters")
    if cfg.kind == "mehler-verify":
        if p.get("identity", "f1") not in ("f1", "f3", "unitarity"):
            raise ConfigError("identity must be one of f1|f3|unitarity", ["identity"])
    if cfg.kind == "specfun-eval":
        if p.get("fn") not in ("zeta", "conical", "mtau"):
            raise ConfigError("fn must be one of zeta|conical|mtau", ["fn"])
        fields.items(p, "args", "parameters")


# ---------------------------------------------------------------------------
# symbol file loading


def load_symbol(data: dict) -> sho.PiecewiseSymbol:
    """Symbol from a symbol.json payload; a malformed field raises ConfigError."""
    domain = fields.as_object(data, "symbol").get("domain", "circle")
    if domain not in ("circle", "line"):
        raise ConfigError(f"symbol.domain = {domain!r} is not 'circle' or 'line'",
                          ["symbol.domain"])
    dim = fields.integer(data, "dim", "symbol") if "dim" in data else 1
    if dim < 1:
        raise ConfigError(f"symbol.dim = {dim!r} is not a positive integer", ["symbol.dim"])
    jumps = []
    for i, jump in enumerate(fields.items(data, "jumps", "symbol")):
        where = f"symbol.jumps[{i}]"
        location = fields.number(jump, "location", where)
        K = fields.required(jump, "K", where)
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
    if preset == "sawtooth":
        if domain != "circle":
            raise ConfigError(f"symbol.domain = {domain!r}: sawtooth preset requires 'circle'",
                              ["symbol.domain"])
        if not jumps:
            raise ConfigError("symbol.jumps is missing or empty: sawtooth preset requires jumps",
                              ["symbol.jumps"])
        return sho.sawtooth_symbol(jumps, dim=dim)
    if preset == "zeta-model":
        if domain != "line":
            raise ConfigError(f"symbol.domain = {domain!r}: zeta-model preset requires 'line'",
                              ["symbol.domain"])
        if not jumps:
            raise ConfigError("symbol.jumps is missing or empty: zeta-model preset requires jumps",
                              ["symbol.jumps"])
        return sho.PiecewiseSymbol("line", dim=dim, jumps=tuple(jumps), carrier="zeta-model")
    if preset == "smooth-bump":
        if jumps:
            raise ConfigError("symbol.jumps must be empty: smooth-bump preset is continuous",
                              ["symbol.jumps"])
        return sho.smooth_bump_symbol(domain)
    raise ConfigError(f"symbol.continuous = {preset!r} is not a known preset; expected "
                      "sawtooth, smooth-bump or zeta-model", ["symbol.continuous"])


# ---------------------------------------------------------------------------
# handlers


def run(cfg: ExperimentConfig, tol_profile: str = "default") -> RunManifest:
    """Dispatch a parsed config to its module and write outputs atomically."""
    t0 = time.monotonic()
    manifest = RunManifest(config_hash=cfg.hash, tol_profile=tol_profile)
    p = cfg.parameters
    out = cfg.output
    if cfg.kind == "specfun-eval":
        args = [fields.as_number(a, f"args[{i}]") for i, a in enumerate(p.get("args", []))]
        text = _eval_specfun(p["fn"], args)
        if out:
            atomic_write_text(out, text + "\n")
            manifest.outputs.append(out)
        else:
            print(text)
    elif cfg.kind == "mehler-verify":
        taus = p.get("tau")
        identity = p.get("identity", "f1")
        if taus is not None:
            taus = [fields.as_number(t, f"tau[{i}]") for i, t in enumerate(np.atleast_1d(taus).tolist())]
            if identity != "unitarity":
                _check_taus(identity, taus)
        report = mehler.verify_identity(identity, taus=taus)
        key = "max_residual" if "max_residual" in report else "max_defect"
        tol = acceptance.TOLERANCES[tol_profile][{"f1": "mehler_identity", "f3": "mf_diagonalization",
                                                   "unitarity": "isometry_default"}[report["identity"]]]
        manifest.checks[f"{report['identity']}-residual"] = bool(report[key] <= tol)
        if out:
            atomic_write_text(out, dump_json(report))
            manifest.outputs.append(out)
        else:
            print(dump_json(report), end="")
    elif cfg.kind == "sho-spectrum":
        sym = load_symbol(p["symbol"])
        T = sho.assemble_sho_circle(sym, int(p.get("modes", 256)))
        ev, manifest.eigensolver, manifest.eigensolver_health = T.solve()
        if out:
            write_csv(out, ["index", "eigenvalue"],
                      [(i, float(e)) for i, e in enumerate(ev)])
            manifest.outputs.append(out)
        manifest.checks["hermitian"] = True
    elif cfg.kind == "sho-bands":
        sym = load_symbol(p["symbol"])
        if not sym.jumps:
            raise ConfigError("symbol.jumps is empty: band prediction needs at least one jump",
                              ["symbol.jumps"])
        bands = sho.predict_bands(sym)
        text = dump_json(bands.to_json())
        if out:
            atomic_write_text(out, text)
            manifest.outputs.append(out)
        else:
            print(text, end="")
    elif cfg.kind == "scatter-scan":
        model = LatticeModel.from_dict(p["model"])
        grid = _parse_grid(p["grid"])
        scan = sigma_scan(model, grid)
        rows = [(r["lambda"], r["t"].real, r["t"].imag, r["r"].real, r["r"].imag,
                 r["sigma1"].real, r["sigma1"].imag, r["sigma2"].real, r["sigma2"].imag,
                 r["abs_sigma1_minus_1"]) for r in scan["rows"]]
        if out:
            write_csv(out, ["lambda", "re_t", "im_t", "re_r", "im_r",
                            "re_sigma1", "im_sigma1", "re_sigma2", "im_sigma2",
                            "abs_sigma1_minus_1"], rows)
            manifest.outputs.append(out)
        manifest.checks["scan-continuity"] = bool(scan["max_dsigma_per_dlambda"] < 100.0)
    elif cfg.kind == "dtheta-run":
        model = LatticeModel.from_dict(p["model"])
        theta = dth.StepFunction.from_dict(p["theta"])
        ladder = [int(n) for n in p.get("ladder", [])] or [int(p.get("box", 1024))]
        rep = dth.ladder_report(model, theta, ladder, seed=cfg.seed)
        payload = {
            "bands": rep["bands"].to_json(),
            "consistency_gap": rep["consistency_gap"],
            "max_eig_ladder": rep["max_eig_ladder"],
            "outside_ladder": rep["outside_ladder"],
            "rungs": [{key: r[key] for key in RUNG_FIELDS} | {"bin_counts": r["bin_counts"].tolist()}
                      for r in rep["rungs"]],
            "runtime_s": round(time.monotonic() - t0, 3),
        }
        manifest.checks["consistency"] = bool(rep["consistency_gap"] <= 1e-12)
        manifest.eigensolver = rep["rungs"][0]["route"]     # every rung takes the same route
        manifest.eigensolver_health = {key: [r[key] for r in rep["rungs"]] for key in RUNG_HEALTH}
        if out:
            atomic_write_text(out, dump_json(payload))
            manifest.outputs.append(out)
        else:
            print(dump_json(payload), end="")
    else:
        raise ConfigError(f"unhandled kind {cfg.kind!r}", ["kind"])
    manifest.wall_time_s = time.monotonic() - t0
    if out:
        manifest.write(out)
    return manifest


def _in_domain(where: str, fn, *args):
    """fn(*args), where a ValueError (an argument outside the domain of fn,
    such as a pole of gamma) becomes a ConfigError naming the field where."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{where} = {args[0]!r} is outside the domain: {exc}", [where]) from None


def _check_taus(identity: str, taus):
    """Both identities need m(tau), which has a pole at 0; f3 transforms over tau > 0."""
    for i, tau in enumerate(taus):
        if identity == "f3" and tau <= 0.0:
            raise ConfigError(f"tau[{i}] = {tau!r} is not positive", [f"tau[{i}]"])
        _in_domain(f"tau[{i}]", m_tau, tau)


def _eval_specfun(fn: str, args) -> str:
    if fn == "zeta":
        return "\n".join(format_float(float(_in_domain(f"args[{i}]", zeta_kernel, a)))
                         for i, a in enumerate(args))
    if fn == "mtau":
        vals = [_in_domain(f"args[{i}]", m_tau, a) for i, a in enumerate(args)]
        return "\n".join(f"{format_float(v.real)} {format_float(v.imag)}" for v in vals)
    if fn == "conical":
        if len(args) % 2:
            raise ConfigError("conical expects (tau, x) pairs", ["args"])
        vals = []
        for i in range(0, len(args), 2):
            tau, x = args[i], args[i + 1]
            if x < 1.0:
                raise ConfigError(f"args[{i + 1}] = {x!r} is below 1 (x >= 1)", [f"args[{i + 1}]"])
            vals.append(_in_domain(f"args[{i}]", conical_legendre_values, tau, x))
        return "\n".join(format_float(float(v)) for v in vals)
    raise ConfigError(f"unknown function {fn!r}", ["fn"])


def _parse_grid(spec) -> np.ndarray:
    if isinstance(spec, list):
        return np.array([fields.as_number(v, f"grid[{i}]") for i, v in enumerate(spec)])
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec {spec!r} not in lo:hi:step form", ["grid"])
    lo, hi, step = (fields.as_number(v, "grid") for v in parts)
    if not (step > 0.0 and hi >= lo):
        raise ConfigError(f"grid spec {spec!r} needs step > 0 and hi >= lo", ["grid"])
    n = (hi - lo) / step
    if not n < GRID_MAX_POINTS:
        raise ConfigError(f"grid spec {spec!r} has more than {GRID_MAX_POINTS} points", ["grid"])
    return lo + step * np.arange(int(round(n)) + 1)


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
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
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
            os.makedirs(args.out_dir, exist_ok=True)
            return reproduce(args.only, args.tol_profile, args.out_dir)
        if args.command == "run":
            cfg = parse_config(args.config)
            manifest = run(cfg, tol_profile=args.tol_profile)
            return EXIT_OK if all(manifest.checks.values()) else EXIT_CHECK_FAILURE
        if args.command == "scatter" and args.action == "smatrix":
            model = LatticeModel.from_dict(_load_json_file(args.model))
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
        cfg = _config_from_args(args)
        _validate_parameters(cfg)
        manifest = run(cfg, tol_profile=args.tol_profile)
        return EXIT_OK if all(manifest.checks.values()) else EXIT_CHECK_FAILURE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BandEdgeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SeriesConvergenceError, ScatteringBreakdownError, dth.JumpCollisionError,
            dth.SignApproximationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
