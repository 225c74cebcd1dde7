import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from sho_spectra import cli, dtheta as dth, scattering1d, sho
from sho_spectra.cli import (
    ConfigError,
    ExperimentConfig,
    load_model,
    load_theta,
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


def test_load_theta_names_field():
    bad = [({"jumps": [{"lambda": 0.0, "kappa": 1.0}], "limits": [0.0, 5.0]}, "theta.limits"),
           ({"jumps": [{"lambda": 0.0, "kappa": "x"}]}, "theta.jumps[0].kappa"),
           ({"jumps": [{"kappa": 1.0}]}, "theta.jumps[0].lambda"),
           ({"jumps": [], "limits": [0.0, float("nan")]}, "theta.limits[1]")]
    for data, name in bad:
        with pytest.raises(ValueError) as err:
            load_theta(data)
        assert err.value.fields == [name]


def test_load_theta_reads_jumps_and_limits():
    th = load_theta({"jumps": [{"lambda": -0.5, "kappa": 1.0}, {"lambda": 0.8, "kappa": 0.5}],
                     "base": "step", "limits": [1.0, 2.5]})
    assert th == dth.StepFunction(jumps=((-0.5, 1.0), (0.8, 0.5)), l_minus=1.0)
    assert th.l_plus == 2.5


def test_load_model_reads_sites():
    model = load_model({"sites": [{"n": 0, "v": 2.0}, {"n": 3, "v": -1.0}]})
    assert model.potential == {0: 2.0, 3: -1.0}
    assert scattering1d.LatticeModel({1: 0.0}).support is None


def test_load_model_names_field():
    bad = [({"site": []}, "model.sites"),
           ({"sites": [{"n": 0.5, "v": 1.0}]}, "model.sites[0].n"),
           ({"sites": [{"n": float("inf"), "v": 1.0}]}, "model.sites[0].n"),
           ({"sites": [{"n": 0, "v": "2,0"}]}, "model.sites[0].v"),
           ({"sites": [{"n": 0, "v": 1.0}, {"n": 1e300, "v": 1.0}]}, "model.sites[1].n"),
           ({"sites": [{"n": -32769, "v": 1.0}]}, "model.sites[0].n")]
    for data, name in bad:
        with pytest.raises(ValueError) as err:
            load_model(data)
        assert err.value.fields == [name]


def test_load_model_site_bound():
    # |n| <= 32768, half the largest box the CLI runs
    model = load_model({"sites": [{"n": -32768, "v": 1.0}, {"n": 32768, "v": 1.0}]})
    assert model.support == (-32768, 32768)


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
    # (one product: the fallback's single column block)
    assert payload["eigensolver_health"] == {"basis_rank": 0, "residual_bound": None,
                                             "fallback": True, "products": 1}


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
    # a complex zeta-model symbol takes the matrix-free takagi-lowrank route
    out = str(tmp_path / "eig.csv")
    symbol = {"domain": "line", "dim": 1, "continuous": "zeta-model",
              "jumps": [{"location": 0.5, "K": [0.3, 0.7]}]}
    run(ExperimentConfig("sho-spectrum", {"symbol": symbol, "modes": 1024}, output=out))
    payload = json.load(open(out + ".manifest.json"))
    assert payload["eigensolver"] == "takagi-lowrank"
    health = payload["eigensolver_health"]
    top = max(float(line.split(",")[1]) for line in open(out).read().splitlines()[1:])
    n = 2 * 1024                                # the Takagi form [[Re H, Im H], [Im H, -Re H]]
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


def _scan_continuity(tmp_path, sites):
    """(exit code, the manifest's scan-continuity check) of a scan on -1.9:1.9:0.01."""
    model = write_json(tmp_path / "pair.json", {"sites": sites})
    out = str(tmp_path / "pair.csv")
    rc = cli.main(["scatter", "scan", "--model", model, "--grid=-1.9:1.9:0.01", "--out", out])
    return rc, json.load(open(out + ".manifest.json"))["checks"]["scan-continuity"]


def test_scan_continuity_follows_the_unordered_pair(tmp_path):
    # the two |sigma - 1| cross near lambda = -1.745, where sigma1 changes
    # branch: the sorted first eigenvalue read 190 there, the pair moves by 4.24
    assert _scan_continuity(tmp_path, [{"n": 0, "v": 2.0}, {"n": 2, "v": -0.7}]) == (0, True)


def test_scan_continuity_still_sees_a_jump(tmp_path, monkeypatch):
    scatter = scattering1d._scatter

    def jumping(model, lams):
        k, S, sig, defect = scatter(model, lams)
        sig[np.argmin(np.abs(lams - 0.3))] *= -1.0       # both eigenvalues jump at one energy
        return k, S, sig, defect
    monkeypatch.setattr(scattering1d, "_scatter", jumping)
    assert _scan_continuity(tmp_path, [{"n": 0, "v": 2.0}]) == (cli.EXIT_CHECK_FAILURE, False)


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


def test_specfun_eval_zeta_at_1e308_is_finite(capsys):
    assert cli.main(["specfun", "eval", "--fn", "zeta", "--args", "1e308"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    value = float(captured.out)
    assert math.isfinite(value)
    assert value == pytest.approx(0.5 / 1e308 / math.pi, rel=1e-12)


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
                    "products", "trace_defect", "edge_gap")}


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


DIRECTORY = object()    # an input written as a directory of that name


def _write_input(path, payload):
    """payload as JSON, bytes as they are, or DIRECTORY as a directory."""
    if payload is DIRECTORY:
        path.mkdir()
    elif isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        write_json(path, payload)
    return str(path)


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
    ("grid-one-point-too-many", {},
     ["scatter", "scan", "--model", "{model}", "--grid=0:99999.6:1", "--out", "{out}"], "grid"),
    ("zeta-at-zero", {}, ["specfun", "eval", "--fn", "zeta", "--args", "0"], "args[0]"),
    ("conical-x-below-one", {}, ["specfun", "eval", "--fn", "conical", "--args", "0.5", "0.5"],
     "args[1]"),
    ("conical-tau-zero", {}, ["specfun", "eval", "--fn", "conical", "--args", "0", "2"], "args[0]"),
    ("conical-tau-huge-near", {}, ["specfun", "eval", "--fn", "conical", "--args", "1e300", "1.2"],
     "args[0]"),
    ("conical-tau-above-450", {}, ["specfun", "eval", "--fn", "conical", "--args", "460", "1.2"],
     "args[0]"),
    ("conical-tau-huge-far", {}, ["specfun", "eval", "--fn", "conical", "--args", "1e300", "2"],
     "args[0]"),
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
    ("f1-tau-empty", {"cfg": {"kind": "mehler-verify", "parameters": {"identity": "f1", "tau": []}}},
     ["run", "--config", "{cfg}"], "tau"),
    ("f3-tau-empty", {"cfg": {"kind": "mehler-verify", "parameters": {"identity": "f3", "tau": []}}},
     ["run", "--config", "{cfg}"], "tau"),
    ("f1-tau-flag-without-values", {}, ["mehler", "verify", "--identity", "f1", "--tau"], "tau"),
    ("f3-tau-flag-without-values", {}, ["mehler", "verify", "--identity", "f3", "--tau"], "tau"),
    ("scatter-grid-empty", {"cfg": {"kind": "scatter-scan", "parameters": {"model": MODEL, "grid": []}}},
     ["run", "--config", "{cfg}"], "grid"),
    ("specfun-args-empty", {"cfg": {"kind": "specfun-eval", "parameters": {"fn": "zeta", "args": []}}},
     ["run", "--config", "{cfg}"], "args"),
    ("line-jump-carried-to-infinity",
     {"cfg": {"kind": "sho-spectrum", "parameters": {"modes": 8, "symbol": {
         "domain": "line", "continuous": "zeta-model", "jumps": [{"location": 1e300, "K": 1.0}]}}}},
     ["run", "--config", "{cfg}"], "symbol.jumps[0].location = 1e+300"),
    ("model-n-unbounded", {"model": {"sites": [{"n": 1e300, "v": 2.0}]}},
     ["scatter", "scan", "--model", "{model}", "--grid=-1:1:0.5", "--out", "{out}"],
     "model.sites[0].n"),
    ("model-n-beyond-half-the-largest-box", {"model": {"sites": [{"n": -32769, "v": 2.0}]}},
     ["scatter", "smatrix", "--model", "{model}", "--lambda", "0.0"], "model.sites[0].n"),
    ("mtau-tau-huge", {}, ["specfun", "eval", "--fn", "mtau", "--args", "1e300"], "args[0]"),
    ("mtau-tau-above-450", {}, ["specfun", "eval", "--fn", "mtau", "--args", "1", "-451"], "args[1]"),
    ("f1-tau-huge", {}, ["mehler", "verify", "--identity", "f1", "--tau", "1e300"], "tau[0]"),
    ("f3-tau-above-450", {}, ["mehler", "verify", "--identity", "f3", "--tau", "1", "460"], "tau[1]"),
    ("symbol-dim-bool", {"symbol": _with(SAWTOOTH, dim=True)},
     ["sho", "spectrum", "--symbol", "{symbol}", "--modes", "8", "--out", "{out}"], "symbol.dim"),
    ("symbol-location-bool", {"symbol": _with(SAWTOOTH, jumps=[{"location": True, "K": 1.0}])},
     ["sho", "spectrum", "--symbol", "{symbol}", "--modes", "8", "--out", "{out}"],
     "symbol.jumps[0].location"),
    ("specfun-arg-bool", {"cfg": {"kind": "specfun-eval", "parameters": {"fn": "zeta", "args": [True]}}},
     ["run", "--config", "{cfg}"], "args[0]"),
    ("model-is-a-directory", {"model": DIRECTORY},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16", "--out", "{out}"],
     "model.json"),
    ("smatrix-model-is-a-directory", {"model": DIRECTORY},
     ["scatter", "smatrix", "--model", "{model}", "--lambda", "0.0"], "model.json"),
    ("model-not-utf8", {"model": b'\xff\xfe{"sites": []}'},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16", "--out", "{out}"],
     "model.json"),
    ("out-is-a-directory", {"outdir": DIRECTORY},
     ["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16",
      "--out", "{outdir}"], "output"),
    ("out-ends-in-a-separator", {},
     ["scatter", "scan", "--model", "{model}", "--grid=-1:1:0.5", "--out", "{out}/"], "output"),
    ("out-dir-under-a-file", {}, ["--out-dir", "{model}/sub", "reproduce", "--only", "golden"],
     "--out-dir"),
    ("seed-flag-negative", {},
     ["--seed", "-1", "dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "16",
      "--out", "{out}"], "seed"),
    ("seed-negative", {"cfg": {"kind": "dtheta-run", "seed": -5,
                               "parameters": {"model": MODEL, "theta": STEP, "box": 16}}},
     ["run", "--config", "{cfg}"], "seed"),
]


@pytest.mark.parametrize("files, argv, field", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_usage(tmp_path, capsys, files, argv, field):
    inputs = {"model": MODEL, "theta": STEP, "symbol": SAWTOOTH, **files}
    paths = {name: _write_input(tmp_path / f"{name}.json", payload)
             for name, payload in inputs.items()}
    paths["out"] = str(tmp_path / "out.csv")
    rc = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert field in err
    assert not os.path.exists(paths["out"])
    assert not list(tmp_path.rglob("*.tmp"))


def test_grid_cap_counts_the_points_built():
    # round(n) + 1 points against the cap: 99999 steps of 1 are the most
    grid = cli._parse_grid("0:99999:1")
    assert grid.size == cli.GRID_MAX_POINTS and grid[-1] == 99999.0
    for spec in ("0:99999.6:1", "-1.9:1.9:0.000038"):
        with pytest.raises(ConfigError, match="more than 100000 points"):
            cli._parse_grid(spec)


@pytest.mark.parametrize("out", ["{tmp}/missing/", "{model}/x.csv"],
                         ids=["ends-in-a-separator", "under-a-file"])
def test_unwritable_output_is_refused_before_computing(monkeypatch, tmp_path, capsys,
                                                       model_file, out):
    calls, scan = [], cli.sigma_scan
    monkeypatch.setattr(cli, "sigma_scan", lambda *args: calls.append(args) or scan(*args))
    out = out.format(tmp=tmp_path, model=model_file)
    rc = cli.main(["scatter", "scan", "--model", model_file, "--grid=-1:1:0.5", "--out", out])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1 and "output" in err
    assert calls == []
    assert not (tmp_path / "missing").exists()
    # the config reader refuses it too, and creates nothing either
    cfg = write_json(tmp_path / "cfg.json", {"kind": "scatter-scan", "output": out,
                                             "parameters": {"model": MODEL, "grid": "-1:1:0.5"}})
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert info.value.fields == ["output"]
    assert calls == [] and not (tmp_path / "missing").exists()


def test_output_in_missing_directories_is_written(tmp_path, model_file):
    out = tmp_path / "ok" / "deeper" / "x.csv"
    rc = cli.main(["scatter", "scan", "--model", model_file, "--grid=-1:1:0.5", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert out.read_text().startswith("lambda,")


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


def test_sho_bands_keeps_a_line_jump_far_out(tmp_path, capsys):
    # the band prediction never transports the jumps, so a jump that the
    # spectrum rejects (it lands at mu = 1) still has its band
    symbol = {"domain": "line", "continuous": "zeta-model", "jumps": [{"location": 1e300, "K": 1.0}]}
    rc = cli.main(["sho", "bands", "--symbol", write_json(tmp_path / "symbol.json", symbol)])
    assert rc == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == [{"half_width": 0.5, "multiplicity": 1}]


def test_unitarity_ignores_an_empty_tau_list(tmp_path):
    out = str(tmp_path / "u.json")
    cfg = {"kind": "mehler-verify", "output": out, "parameters": {"identity": "unitarity", "tau": []}}
    assert cli.main(["run", "--config", write_json(tmp_path / "cfg.json", cfg)]) == cli.EXIT_OK
    assert json.load(open(out))["identity"] == "unitarity"


@pytest.mark.parametrize("kind, params", [
    ("sho-spectrum", {"symbol": SAWTOOTH, "modes": 16}),
    ("scatter-scan", {"model": MODEL, "grid": "-1:1:0.5"}),
])
def test_config_without_output_prints_its_csv(tmp_path, capsys, kind, params):
    out = str(tmp_path / "out.csv")
    for extra in ({}, {"output": out}):
        cfg = write_json(tmp_path / "cfg.json", {"kind": kind, "parameters": params, **extra})
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("index," if kind == "sho-spectrum" else "lambda,")
    assert printed == open(out).read()


# each file-producing subcommand and the run --config file with the parameters it builds
TWINS = {
    "mehler-verify": (["mehler", "verify", "--identity", "f1", "--tau", "0.5", "1.0"],
                      {"identity": "f1", "tau": [0.5, 1.0]}),
    "sho-spectrum": (["sho", "spectrum", "--symbol", "{symbol}", "--modes", "16"],
                     {"symbol": SAWTOOTH, "modes": 16}),
    "scatter-scan": (["scatter", "scan", "--model", "{model}", "--grid=-1:1:0.5"],
                     {"model": MODEL, "grid": "-1:1:0.5"}),
    "dtheta-run": (["dtheta", "run", "--model", "{model}", "--theta", "{theta}", "--box", "64",
                    "--ladder", "32,64"],
                   {"model": MODEL, "theta": STEP, "box": 64, "ladder": [32, 64]}),
}


@pytest.mark.parametrize("kind", TWINS)
def test_subcommand_and_config_twin_write_the_same_files(tmp_path, kind):
    argv, params = TWINS[kind]
    paths = {name: write_json(tmp_path / f"{name}.json", payload)
             for name, payload in (("model", MODEL), ("theta", STEP), ("symbol", SAWTOOTH))}
    out = str(tmp_path / "out")
    cfg = write_json(tmp_path / "cfg.json", {"kind": kind, "seed": 5, "output": out,
                                             "parameters": params})
    written = []
    for command in (["--seed", "5", *[a.format(**paths) for a in argv], "--out", out],
                    ["run", "--config", cfg]):
        assert cli.main(command) == cli.EXIT_OK
        # the timings are the only fields that may differ between two runs
        written.append([re.sub(r'"(wall_time_s|runtime_s)": [0-9.e+-]+', "", open(path).read())
                        for path in (out, out + ".manifest.json")])
        os.remove(out)
    assert written[0] == written[1]


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


# ---------------------------------------------------------------------------
# mutation sweep: no config field, whatever its value, makes main raise

SWEEP_CONFIGS = {       # keyed by config kind, a ":" suffix naming a second config
    "specfun-eval": {"fn": "mtau", "args": [1.0]},
    "specfun-eval:conical": {"fn": "conical", "args": [0.5, 2.0]},
    "mehler-verify": {"identity": "f1", "tau": [1.0]},
    "sho-spectrum": {"symbol": SAWTOOTH, "modes": 8},
    "sho-spectrum:line": {"symbol": {"domain": "line", "dim": 1, "continuous": "zeta-model",
                                     "jumps": [{"location": 0.5, "K": [0.3, 0.7]}]}, "modes": 8},
    "sho-bands": {"symbol": SAWTOOTH},
    "scatter-scan": {"model": MODEL, "grid": "-1:1:0.5"},
    "dtheta-run": {"model": MODEL, "theta": STEP, "box": 16, "ladder": [16, 32]},
}
SWEEP_VALUES = [None, [], {}, "x", True, -1, 0, 1e300, -1e300, [[1]], [None], 2.5]


def _field_paths(value, path=()):
    """Every key or index path below value, each container before its entries."""
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield path + (key,)
            yield from _field_paths(child, path + (key,))


def _replaced(payload, path, value):
    copy = json.loads(json.dumps(payload))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


def test_mutated_config_fields_never_escape_main(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)     # where an output of "x" is written
    escaped, cases = [], 0
    for name, params in SWEEP_CONFIGS.items():
        config = {"kind": name.partition(":")[0], "parameters": params}
        # every parameter field, then the top-level seed and output
        paths = [("parameters", *path) for path in _field_paths(params)] + [("seed",), ("output",)]
        for path in paths:
            for value in SWEEP_VALUES:
                cfg = write_json(tmp_path / "cfg.json", _replaced(config, path, value))
                cases += 1
                try:
                    rc = cli.main(["run", "--config", cfg])
                except Exception as exc:
                    escaped.append(f"{name} {path} = {value!r}: {type(exc).__name__}: {exc}")
                    continue
                if rc not in (0, 1, 2, 3):
                    escaped.append(f"{name} {path} = {value!r}: exit {rc}")
    capsys.readouterr()
    assert cases > 400
    assert not escaped, "\n".join(escaped)
