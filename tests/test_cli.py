import json
import os
import warnings

import numpy as np
import pytest

from sho_spectra import cli, dtheta as dth, scattering1d, sho
from sho_spectra.cli import (
    ConfigError,
    ExperimentConfig,
    parse_complex_matrix,
    parse_config,
    run,
)
from sho_spectra.specfun import SeriesConvergenceError


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    return write_json(tmp_path / "model.json", {"sites": [{"n": 0, "v": 2.0}]})


@pytest.fixture
def theta_file(tmp_path):
    return write_json(tmp_path / "theta.json",
                      {"jumps": [{"lambda": 0.0, "kappa": 1.0}], "base": "step",
                       "limits": [0.0, 1.0]})


@pytest.fixture
def symbol_file(tmp_path):
    return write_json(tmp_path / "symbol.json",
                      {"domain": "circle", "dim": 1, "continuous": "sawtooth",
                       "jumps": [{"location": 0.0, "K": 1.0}]})


# ---------------------------------------------------------------------------
# configs


def test_parse_minimal_dtheta_config(tmp_path, model_file, theta_file):
    cfg_path = write_json(tmp_path / "cfg.json", {
        "kind": "dtheta-run",
        "parameters": {"model": json.load(open(model_file)),
                       "theta": json.load(open(theta_file))},
    })
    cfg = parse_config(cfg_path)
    assert cfg.kind == "dtheta-run"
    assert cfg.seed == 0
    assert cfg.parameters["box"] if "box" in cfg.parameters else True


def test_parse_config_rejects_out_of_band_jump(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", {
        "kind": "dtheta-run",
        "parameters": {"model": {"sites": []},
                       "theta": {"jumps": [{"lambda": 2.5, "kappa": 1.0}]}},
    })
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert "theta.jumps[0].lambda" in str(err.value)


def test_parse_config_box_range_is_the_same_for_every_base(tmp_path):
    # every base takes the matrix-free contour-factor route up to 65536
    for base in ("step", "smooth", "tanh-window", "linear"):
        cfg = write_json(tmp_path / f"{base}.json", {
            "kind": "dtheta-run",
            "parameters": {"model": {"sites": []}, "box": 65536, "ladder": [8, 65536],
                           "theta": {"jumps": [{"lambda": 0.0, "kappa": 1.0}], "base": base}},
        })
        assert parse_config(cfg).parameters["box"] == 65536


def test_parse_config_rejects_unknown_kind(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", {"kind": "banana", "parameters": {}})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert "kind" in err.value.fields


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.json"))


def test_parse_config_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        parse_config(str(bad))


def test_parse_complex_matrix_forms():
    assert parse_complex_matrix(2.0) == 2.0 + 0.0j
    assert parse_complex_matrix([1.0, -1.0]) == 1.0 - 1.0j
    M = parse_complex_matrix([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [2.0, 0.0]]])
    assert M.shape == (2, 2)
    assert M[0, 1] == 1.0j
    with pytest.raises(ConfigError):
        parse_complex_matrix("x")


# ---------------------------------------------------------------------------
# runs and determinism


def test_sho_spectrum_run_deterministic(tmp_path, symbol_file):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    symbol = json.load(open(symbol_file))
    for out in (out1, out2):
        cfg = ExperimentConfig("sho-spectrum", {"symbol": symbol, "modes": 32}, output=out)
        run(cfg)
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert os.path.exists(out1 + ".manifest.json")
    lines = open(out1).read().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 65


def test_manifest_contents(tmp_path, symbol_file):
    out = str(tmp_path / "eig.csv")
    cfg = ExperimentConfig("sho-spectrum",
                           {"symbol": json.load(open(symbol_file)), "modes": 16}, output=out)
    manifest = run(cfg)
    payload = json.load(open(out + ".manifest.json"))
    assert payload["config_hash"] == cfg.hash == manifest.config_hash
    assert payload["outputs"] == [out]
    assert "tolerances" in payload
    assert payload["eigensolver"] == "real-hankel-lowrank"
    assert manifest.eigensolver == "real-hankel-lowrank"
    # 16 modes leave no room for a basis of N / 4 columns: dense eigvalsh
    assert payload["eigensolver_health"] == {"basis_rank": 0, "residual_bound": None,
                                             "fallback": True}


def test_manifest_records_certified_lowrank_health(tmp_path, symbol_file):
    out = str(tmp_path / "eig.csv")
    run(ExperimentConfig("sho-spectrum", {"symbol": json.load(open(symbol_file)), "modes": 512},
                         output=out))
    health = json.load(open(out + ".manifest.json"))["eigensolver_health"]
    top = max(float(line.split(",")[1]) for line in open(out).read().splitlines()[1:])
    assert health["fallback"] is False
    assert 0 < health["basis_rank"] <= 512 // 4
    assert 0.0 <= health["residual_bound"] <= 512 * np.finfo(float).eps * top


def test_manifest_records_hankel_lowrank_health(tmp_path):
    # a complex zeta-model symbol takes the matrix-free hankel-lowrank route
    out = str(tmp_path / "eig.csv")
    symbol = {"domain": "line", "dim": 1, "continuous": "zeta-model",
              "jumps": [{"location": 0.5, "K": [0.3, 0.7]}]}
    run(ExperimentConfig("sho-spectrum", {"symbol": symbol, "modes": 1024}, output=out))
    payload = json.load(open(out + ".manifest.json"))
    assert payload["eigensolver"] == "hankel-lowrank"
    health = payload["eigensolver_health"]
    top = max(float(line.split(",")[1]) for line in open(out).read().splitlines()[1:])
    n = 2 * 1024                                # the dilation [[0, H], [H^H, 0]]
    assert health["fallback"] is False
    assert 0 < health["basis_rank"] <= n // 4
    assert 0.0 <= health["residual_bound"] <= n * np.finfo(float).eps * top


def test_scan_csv_columns(tmp_path, model_file):
    out = str(tmp_path / "scan.csv")
    rc = cli.main(["scatter", "scan", "--model", model_file,
                   "--grid=-1.9:1.9:0.1", "--out", out])
    assert rc == 0
    header = open(out).readline().strip().split(",")
    assert header == ["lambda", "re_t", "im_t", "re_r", "im_r",
                      "re_sigma1", "im_sigma1", "re_sigma2", "im_sigma2",
                      "abs_sigma1_minus_1"]
    data = np.genfromtxt(out, delimiter=",", skip_header=1)
    assert data.shape[0] == 39


def test_smatrix_stdout(capsys, model_file):
    rc = cli.main(["scatter", "smatrix", "--model", model_file, "--lambda", "0.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["abs_sigma_minus_1"][0] == pytest.approx(2 ** 0.5, abs=1e-12)


def test_sho_bands_stdout(capsys, symbol_file):
    rc = cli.main(["sho", "bands", "--symbol", symbol_file])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"half_width": 0.5, "multiplicity": 1}]


def test_specfun_eval_stdout(capsys):
    rc = cli.main(["specfun", "eval", "--fn", "zeta", "--args", "5.0"])
    assert rc == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(0.0312551771783559, abs=1e-12)


def test_dtheta_run_report(tmp_path, model_file, theta_file):
    out = str(tmp_path / "report.json")
    rc = cli.main(["dtheta", "run", "--model", model_file, "--theta", theta_file,
                   "--box", "64", "--ladder", "32,64", "--out", out])
    assert rc == 0
    payload = json.load(open(out))
    assert payload["bands"][0]["half_width"] == pytest.approx(2 ** 0.5 / 2, abs=1e-12)
    assert len(payload["rungs"]) == 2
    assert payload["consistency_gap"] <= 1e-12
    for rung in payload["rungs"]:
        assert rung["route"] == "contour-factor"
        assert 0 < rung["factor_rank"] <= rung["N"] and rung["nodes"] > 0
        assert rung["window"] is None
        assert 0.0 <= rung["sign_error"] <= 1e-13
        assert rung["trace_defect"] <= 1e-10
        assert rung["edge_gap"] == pytest.approx(2 ** 0.5 / 2 - rung["max_abs_eig"], abs=1e-15)
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["checks"] == {"consistency": True}
    assert manifest["eigensolver"] == "contour-factor"
    assert manifest["eigensolver_health"] == {
        key: [rung[key] for rung in payload["rungs"]]
        for key in ("factor_rank", "nodes", "window", "sign_error", "residual_bound", "fallback",
                    "trace_defect", "edge_gap")}


def test_dtheta_run_sign_error_above_tolerance_exits_numerical(monkeypatch, tmp_path, capsys,
                                                                model_file, theta_file):
    monkeypatch.setattr(dth, "SIGN_TOL", 0.0)
    out = str(tmp_path / "report.json")
    rc = cli.main(["dtheta", "run", "--model", model_file, "--theta", theta_file,
                   "--box", "64", "--out", out])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERICAL
    assert "Traceback" not in err and "sign error" in err
    assert not os.path.exists(out)


def test_dtheta_run_smooth_base_reports_window(tmp_path, model_file):
    theta = write_json(tmp_path / "smooth.json",
                       {"jumps": [{"lambda": 0.5, "kappa": 1.0}], "base": "smooth"})
    out = str(tmp_path / "report.json")
    rc = cli.main(["dtheta", "run", "--model", model_file, "--theta", theta,
                   "--box", "1024", "--out", out])
    assert rc == 0
    rung = json.load(open(out))["rungs"][0]
    assert rung["route"] == "contour-factor" and rung["fallback"] is False
    assert 0 < rung["window"] < rung["N"]
    assert rung["trace_defect"] <= 1e-10
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["eigensolver"] == "contour-factor"
    assert manifest["eigensolver_health"]["window"] == [rung["window"]]


def test_mehler_verify_report(tmp_path):
    out = str(tmp_path / "f1.json")
    rc = cli.main(["mehler", "verify", "--identity", "f1", "--tau", "0.5", "1.0",
                   "--out", out])
    assert rc == 0
    payload = json.load(open(out))
    assert payload["identity"] == "f1"
    assert payload["max_residual"] <= 1e-6


@pytest.mark.parametrize("profile, rc_expected", [("default", 0), ("strict", 1)])
def test_mehler_verify_check_reads_tol_profile(tmp_path, profile, rc_expected):
    # the f3 residual is about 6.3e-7: inside 1e-6 (default), outside 1e-7 (strict)
    out = str(tmp_path / "f3.json")
    rc = cli.main(["--tol-profile", profile, "mehler", "verify", "--identity", "f3",
                   "--out", out])
    assert rc == rc_expected
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["checks"] == {"f3-residual": rc_expected == 0}
    assert 1e-7 < json.load(open(out))["max_residual"] <= 1e-6


# ---------------------------------------------------------------------------
# exit codes


def test_exit_usage_on_bad_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"kind": "banana", "parameters": {}})
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_USAGE


def test_exit_usage_on_unknown_family(tmp_path):
    assert cli.main(["--out-dir", str(tmp_path), "reproduce", "--only", "nope"]) == cli.EXIT_USAGE


SAWTOOTH = {"domain": "circle", "continuous": "sawtooth", "jumps": [{"location": 0.0, "K": 1.0}]}
STEP = {"jumps": [{"lambda": 0.0, "kappa": 1.0}], "base": "step", "limits": [0.0, 1.0]}
MODEL = {"sites": [{"n": 0, "v": 2.0}]}


def _with(base, **changes):
    return {**json.loads(json.dumps(base)), **changes}


# (case id, files to write, argv with {name} placeholders, field named on stderr)
MALFORMED = [
    ("theta-limits-disagree", {"theta": _with(STEP, limits=[0.0, 2.0])},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16", "--out", "{out}"],
     "theta.limits"),
    ("theta-limits-not-a-number", {"theta": _with(STEP, limits=[0.0, "one"])},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16", "--out", "{out}"],
     "theta.limits[1]"),
    ("theta-kappa-not-a-number", {"theta": _with(STEP, jumps=[{"lambda": 0.0, "kappa": "x"}])},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16", "--out", "{out}"],
     "theta.jumps[0].kappa"),
    ("theta-lambda-missing", {"theta": _with(STEP, jumps=[{"kappa": 1.0}])},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16", "--out", "{out}"],
     "theta.jumps[0].lambda"),
    ("symbol-location-missing", {"symbol": _with(SAWTOOTH, jumps=[{"K": 1.0}])},
     ["sho", "spectrum", "--symbol", "{symbol}", "--modes", "8", "--out", "{out}"],
     "symbol.jumps[0].location"),
    ("symbol-K-missing", {"symbol": _with(SAWTOOTH, jumps=[{"location": 0.0}])},
     ["sho", "bands", "--symbol", "{symbol}"],
     "symbol.jumps[0].K"),
    ("symbol-location-not-a-number", {"symbol": _with(SAWTOOTH, jumps=[{"location": "pi", "K": 1.0}])},
     ["sho", "spectrum", "--symbol", "{symbol}", "--modes", "8", "--out", "{out}"],
     "symbol.jumps[0].location"),
    ("symbol-K-unparsable", {"symbol": _with(SAWTOOTH, jumps=[{"location": 0.0, "K": "big"}])},
     ["sho", "bands", "--symbol", "{symbol}"],
     "symbol.jumps[0].K"),
    ("symbol-K-ragged", {"symbol": _with(SAWTOOTH, dim=2, jumps=[{"location": 0.0, "K": [[1, 2], [3]]}])},
     ["sho", "bands", "--symbol", "{symbol}"],
     "symbol.jumps[0].K"),
    ("symbol-K-row-not-a-list", {"symbol": _with(SAWTOOTH, jumps=[{"location": 0.0, "K": [1, [2, 3, 4]]}])},
     ["sho", "spectrum", "--symbol", "{symbol}", "--modes", "8", "--out", "{out}"],
     "symbol.jumps[0].K"),
    ("symbol-dim-nan", {"symbol": _with(SAWTOOTH, dim=float("nan"))},
     ["sho", "bands", "--symbol", "{symbol}"],
     "symbol.dim"),
    ("model-n-infinite", {"model": {"sites": [{"n": float("inf"), "v": 2.0}]}},
     ["scatter", "smatrix", "--model", "{model}", "--lambda", "0.0"],
     "model.sites[0].n"),
    ("model-v-not-a-number", {"model": {"sites": [{"n": 0, "v": "2,0"}]}},
     ["scatter", "smatrix", "--model", "{model}", "--lambda", "0.0"],
     "model.sites[0].v"),
    ("model-site-repeated", {"model": {"sites": [{"n": 0, "v": 1.0}, {"n": 0, "v": 2.0}]}},
     ["scatter", "smatrix", "--model", "{model}", "--lambda", "0.0"],
     "model.sites[1].n"),
    ("bands-without-jumps", {"symbol": {"domain": "circle", "continuous": "smooth-bump"}},
     ["sho", "bands", "--symbol", "{symbol}"],
     "symbol.jumps"),
    ("model-sites-missing", {"model": {"site": []}},
     ["scatter", "scan", "--model", "{model}", "--grid=-1:1:0.5", "--out", "{out}"],
     "model.sites"),
    ("box-too-large-for-smooth-base", {"theta": {**STEP, "base": "smooth"}},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "65537", "--out", "{out}"],
     "box"),
    ("ladder-too-large-for-tanh-window-base", {"theta": {**STEP, "base": "tanh-window"}},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--ladder", "64,65537",
      "--out", "{out}"],
     "ladder[1]"),
    ("box-too-large-for-step-base", {},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "65537", "--out", "{out}"],
     "box"),
    ("box-too-small-for-support", {"model": {"sites": [{"n": 10, "v": 2.0}]}},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "8", "--out", "{out}"],
     "box"),
    ("ladder-too-small-for-support", {"model": {"sites": [{"n": -10, "v": 2.0}]}},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--ladder", "64,16",
      "--out", "{out}"],
     "ladder[1]"),
    ("ladder-not-integers", {},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--ladder", "32,x", "--out", "{out}"],
     "--ladder"),
    ("grid-step-zero", {}, ["scatter", "scan", "--model", "{model}", "--grid=0:1:0", "--out", "{out}"],
     "grid"),
    ("grid-lo-nan", {}, ["scatter", "scan", "--model", "{model}", "--grid=nan:1:0.1", "--out", "{out}"],
     "grid"),
    ("grid-hi-infinite", {},
     ["scatter", "scan", "--model", "{model}", "--grid=0:inf:0.1", "--out", "{out}"], "grid"),
    ("grid-reversed", {}, ["scatter", "scan", "--model", "{model}", "--grid=1:0:0.1", "--out", "{out}"],
     "grid"),
    ("grid-step-negative", {},
     ["scatter", "scan", "--model", "{model}", "--grid=0:1:-0.1", "--out", "{out}"], "grid"),
    ("grid-step-tiny", {},
     ["scatter", "scan", "--model", "{model}", "--grid=0:1:1e-300", "--out", "{out}"], "grid"),
    ("grid-too-many-points", {},
     ["scatter", "scan", "--model", "{model}", "--grid=0:1:1e-9", "--out", "{out}"], "grid"),
    ("zeta-at-zero", {}, ["specfun", "eval", "--fn", "zeta", "--args", "0"], "args[0]"),
    ("conical-x-below-one", {}, ["specfun", "eval", "--fn", "conical", "--args", "0.5", "0.5"],
     "args[1]"),
    ("conical-tau-zero", {}, ["specfun", "eval", "--fn", "conical", "--args", "0", "2"], "args[0]"),
    ("mtau-at-zero", {}, ["specfun", "eval", "--fn", "mtau", "--args", "1", "0"], "args[1]"),
    ("f3-tau-zero", {}, ["mehler", "verify", "--identity", "f3", "--tau", "0"], "tau[0]"),
    ("f1-tau-zero", {}, ["mehler", "verify", "--identity", "f1", "--tau", "0"], "tau[0]"),
    ("sho-spectrum-without-symbol", {"cfg": {"kind": "sho-spectrum", "parameters": {"modes": 8}}},
     ["run", "--config", "{cfg}"], "parameters.symbol"),
    ("sho-bands-without-symbol", {"cfg": {"kind": "sho-bands", "parameters": {}}},
     ["run", "--config", "{cfg}"], "parameters.symbol"),
    ("scatter-scan-without-grid", {"cfg": {"kind": "scatter-scan", "parameters": {"model": MODEL}}},
     ["run", "--config", "{cfg}"], "parameters.grid"),
    ("scatter-scan-without-model",
     {"cfg": {"kind": "scatter-scan", "parameters": {"grid": "0:1:0.5"}}},
     ["run", "--config", "{cfg}"], "parameters.model"),
    ("dtheta-run-without-theta", {"cfg": {"kind": "dtheta-run", "parameters": {"model": MODEL}}},
     ["run", "--config", "{cfg}"], "parameters.theta"),
    ("dtheta-run-without-model", {"cfg": {"kind": "dtheta-run", "parameters": {"theta": STEP}}},
     ["run", "--config", "{cfg}"], "parameters.model"),
    ("ladder-not-a-list", {"cfg": {"kind": "dtheta-run",
                                   "parameters": {"model": MODEL, "theta": STEP, "ladder": 1024}}},
     ["run", "--config", "{cfg}"], "parameters.ladder"),
    ("specfun-args-not-a-list",
     {"cfg": {"kind": "specfun-eval", "parameters": {"fn": "zeta", "args": 3}}},
     ["run", "--config", "{cfg}"], "parameters.args"),
    ("seed-bool",
     {"cfg": {"kind": "specfun-eval", "seed": True, "parameters": {"fn": "zeta", "args": [1]}}},
     ["run", "--config", "{cfg}"], "seed"),
    ("output-not-a-path", {"cfg": {"kind": "specfun-eval", "output": 3,
                                   "parameters": {"fn": "zeta", "args": [1]}}},
     ["run", "--config", "{cfg}"], "output"),
]


@pytest.mark.parametrize("files, argv, field", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_usage(tmp_path, capsys, files, argv, field):
    inputs = {"model": MODEL, "theta": STEP, "symbol": SAWTOOTH, **files}
    paths = {name: write_json(tmp_path / f"{name}.json", payload) for name, payload in inputs.items()}
    paths["out"] = str(tmp_path / "out.csv")
    rc = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "Traceback" not in err
    assert field in err
    assert not os.path.exists(paths["out"])


PRESET_ERRORS = {
    "sawtooth-without-jumps": ({"domain": "circle", "continuous": "sawtooth"}, "symbol.jumps"),
    "sawtooth-on-line": ({**SAWTOOTH, "domain": "line"}, "symbol.domain"),
    "zeta-model-without-jumps": ({"domain": "line", "continuous": "zeta-model"}, "symbol.jumps"),
    "zeta-model-on-circle": ({**SAWTOOTH, "continuous": "zeta-model"}, "symbol.domain"),
    "smooth-bump-with-jumps": ({**SAWTOOTH, "continuous": "smooth-bump"}, "symbol.jumps"),
    "unknown-preset": ({**SAWTOOTH, "continuous": "triangle"}, "symbol.continuous"),
}


@pytest.mark.parametrize("case", PRESET_ERRORS)
def test_symbol_preset_errors_name_the_field(tmp_path, capsys, case):
    symbol, field = PRESET_ERRORS[case]
    rc = cli.main(["sho", "bands", "--symbol", write_json(tmp_path / "symbol.json", symbol)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "Traceback" not in err
    assert field in err


def test_sho_spectrum_decides_the_route_once(monkeypatch, tmp_path, symbol_file):
    calls, rotate = [], sho._phase_rotated_real
    monkeypatch.setattr(sho, "_phase_rotated_real", lambda M: calls.append(M) or rotate(M))
    out = str(tmp_path / "eig.csv")
    assert cli.main(["sho", "spectrum", "--symbol", symbol_file, "--modes", "16",
                     "--out", out]) == cli.EXIT_OK
    assert len(calls) == 1


def _cli_process(*argv):
    """The CLI in a fresh interpreter, so stderr shows what a user sees
    (pytest would capture warnings and tracebacks)."""
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "sho_spectra.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_malformed_input_process_has_no_traceback(tmp_path):
    theta = write_json(tmp_path / "theta.json", _with(STEP, limits=[0.0, 2.0]))
    model = write_json(tmp_path / "model.json", {"sites": [{"n": 0, "v": 2.0}]})
    proc = _cli_process("dtheta", "run", "--model", model, "--theta", theta,
                        "--out", str(tmp_path / "r.json"))
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "theta.limits" in proc.stderr


def test_dtheta_run_underflowing_gap_prints_only_the_failure(tmp_path):
    # v = 1e300 puts ell = g/R near 1e-301, where ell^2 underflows in the
    # Zolotarev squares: exit 3 with one line on stderr and no numpy warning
    model = write_json(tmp_path / "model.json", {"sites": [{"n": 0, "v": 1e300}]})
    theta = write_json(tmp_path / "theta.json", STEP)
    out = str(tmp_path / "r.json")
    proc = _cli_process("dtheta", "run", "--model", model, "--theta", theta, "--box", "16",
                        "--out", out)
    assert proc.returncode == cli.EXIT_NUMERICAL
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr
    assert not os.path.exists(out)


BREAKDOWN_TRANSFER = {
    "near-singular": np.zeros((2, 2), dtype=complex),
    "non-unitary": np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
}
BREAKDOWN_RUNS = {
    "scatter-smatrix": (["scatter", "smatrix", "--model", "{model}", "--lambda", "0.3"],
                        "lambda=0.3"),
    "scatter-scan": (["scatter", "scan", "--model", "{model}", "--grid=-0.5:0.5:0.5",
                      "--out", "{out}"], "lambda=-0.5"),
    "dtheta-run": (["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "64",
                    "--out", "{out}"], "lambda=0.0"),
}


@pytest.mark.parametrize("transfer", BREAKDOWN_TRANSFER)
@pytest.mark.parametrize("command", BREAKDOWN_RUNS)
def test_scattering_breakdown_exits_numerical(monkeypatch, capsys, tmp_path, model_file,
                                              theta_file, command, transfer):
    # no lattice input reaches these guards, so the transfer matrix is replaced
    # by a fixed one at every energy it is asked for
    monkeypatch.setattr(scattering1d, "transfer_matrix",
                        lambda model, lam: np.broadcast_to(BREAKDOWN_TRANSFER[transfer],
                                                           np.shape(lam) + (2, 2)))
    argv, energy = BREAKDOWN_RUNS[command]
    out = str(tmp_path / "out")
    rc = cli.main([a.format(model=model_file, theta=theta_file, out=out) for a in argv])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERICAL
    assert "Traceback" not in err
    assert energy in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, energy", [
    (["scatter", "smatrix", "--model", "{model}", "--lambda", "0.3"], "lambda=0.3 "),
    (["scatter", "scan", "--model", "{model}", "--grid=-0.5:0.5:0.5", "--out", "{out}"],
     "lambda=-0.5 "),
])
def test_overflowing_model_exits_numerical_naming_the_energy(capsys, tmp_path, argv, energy):
    # two 1e200 sites overflow the site product at every energy
    model = write_json(tmp_path / "big.json",
                       {"sites": [{"n": 0, "v": 1e200}, {"n": 1, "v": 1e200}]})
    out = str(tmp_path / "out.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([a.format(model=model, out=out) for a in argv])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERICAL
    assert err.startswith("numerical failure: transfer matrix not finite at " + energy)
    assert "Traceback" not in err and "Warning" not in err
    assert not os.path.exists(out)


def test_exit_numerical_on_convergence_failure(monkeypatch, tmp_path, model_file, theta_file):
    def boom(cfg, tol_profile="default"):
        raise SeriesConvergenceError("synthetic non-convergence")
    monkeypatch.setattr(cli, "run", boom)
    rc = cli.main(["dtheta", "run", "--model", model_file, "--theta", theta_file,
                   "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_NUMERICAL


def test_atomic_write_no_partial_file(tmp_path, monkeypatch):
    target = tmp_path / "sub" / "out.json"
    cli.atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    assert not list(target.parent.glob("*.tmp"))

    def boom(src, dst):
        raise OSError("interrupted")
    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        cli.atomic_write_text(str(tmp_path / "sub2" / "out.json"), "x")
    assert not (tmp_path / "sub2" / "out.json").exists()
    assert not list((tmp_path / "sub2").glob("*.tmp"))


# ---------------------------------------------------------------------------
# reproduce plumbing


def test_reproduce_golden_family(tmp_path):
    rc = cli.main(["--out-dir", str(tmp_path), "reproduce", "--only", "golden"])
    assert rc == 0
    payload = json.load(open(tmp_path / "reproduce_report.json"))
    assert payload["all_passed"] is True
    assert payload["checks"][0]["id"] == "golden"


def test_reproduce_fails_on_corrupted_golden(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "golden.json").write_text(json.dumps({"si_1": 999.0}))
    monkeypatch.setenv("SHO_SPECTRA_DATA_DIR", str(data_dir))
    rc = cli.main(["--out-dir", str(tmp_path), "reproduce", "--only", "golden"])
    assert rc == cli.EXIT_CHECK_FAILURE
    payload = json.load(open(tmp_path / "reproduce_report.json"))
    named = [c["id"] for c in payload["checks"] if not c["passed"]]
    assert named == ["golden"]
