import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pspeclab import _blas
from pspeclab.artifacts import (
    operator_from_file,
    operator_to_file,
    sha256_file,
    write_pgm,
)
from pspeclab.cli import main
from pspeclab.quantize import (
    FourierGrid,
    HermiteBasis,
    OperatorMatrix,
    weyl_quantize_grid,
    weyl_quantize_poly,
)
from pspeclab.symbols import parse_symbol


def run_cli(args):
    return main(list(args))


def test_classify_flags(tmp_path):
    out = tmp_path / "c"
    code = run_cli(["classify", "--symbol", "xi1^2+xi1*1i+x1^2",
                    "--box", "-3", "3", "-3", "3", "--res", "40",
                    "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"atlas.csv", "atlas.json"}
    header = (out / "atlas.csv").read_text().splitlines()[0]
    assert header == "x,xi,re_p,im_p,bracket"


def test_config_file_and_unknown_key(tmp_path):
    cfg = {"symbol": "xi1^2+x1^2", "h": 0.1, "M": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "q"
    assert run_cli(["quantize", "--config", str(path), "--out", str(out)]) == 0
    cfg["mystery"] = 1
    path.write_text(json.dumps(cfg))
    assert run_cli(["quantize", "--config", str(path),
                    "--out", str(tmp_path / "q2")]) == 2


def test_bad_symbol_is_config_error(tmp_path):
    code = run_cli(["classify", "--symbol", "xi1^(",
                    "--box", "-1", "1", "-1", "1", "--res", "10",
                    "--out", str(tmp_path / "bad")])
    assert code == 2


def test_missing_key_is_config_error(tmp_path):
    code = run_cli(["quantize", "--symbol", "x1^2",
                    "--out", str(tmp_path / "m")])
    assert code == 2


def test_spectrum_and_rerun_byte_identical(tmp_path):
    cfg = {"symbol": "xi1^2+xi1*1i+x1^2", "h": 0.1, "M": 48}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["spectrum", "--config", str(path),
                        "--out", str(out)]) == 0
        outs.append(json.loads((out / "manifest.json").read_text()))
    assert outs[0]["artifacts"] == outs[1]["artifacts"]


def test_quantize_wick_path_rerun_byte_identical(tmp_path):
    # a non-polynomial symbol takes the lattice-smoothed Wick path
    cfg = {"symbol": "exp(-x1^2-xi1^2)", "h": 0.1, "M": 64, "path": "wick"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["quantize", "--config", str(path),
                        "--out", str(out)]) == 0
        outs.append(json.loads((out / "manifest.json").read_text()))
    assert outs[0]["artifacts"] == outs[1]["artifacts"]
    info = json.loads((tmp_path / "a" / "operator.json").read_text())
    assert info["provenance"] == "wick(lattice)"


def test_psgrid_artifacts_and_determinism(tmp_path):
    cfg = {"symbol": "xi1^2+xi1*1i+x1^2", "h": 0.1, "M": 48,
           "rectangle": [0.0, 1.0, -0.4, 0.4], "shape": [8, 6],
           "levels": [1e-2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    hashes = []
    for name, threads in (("g1", "1"), ("g8", "8")):
        out = tmp_path / name
        assert run_cli(["psgrid", "--config", str(path), "--out", str(out),
                        "--threads", threads]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert {"grid.csv", "grid.pgm", "grid_pgm.json",
                "contours.json"} <= set(man["artifacts"])
        assert man["timing"]["blas_threads"] == (
            1 if _blas._find_controls() else None)
        assert sum(man["timing"]["sigma_steps"]) == 8 * 6
        hashes.append(man["artifacts"]["grid.csv"])
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("path, factor", [("hermite", "tridiagonal"),
                                          ("grid", "schur")])
def test_psgrid_manifest_records_the_factor(tmp_path, path, factor):
    # the rotated oscillator's Hermite matrix is tridiagonal, its grid
    # matrix is dense: the manifest says which factor served the sweep
    cfg = {"symbol": "xi1^2+xi1*1i+x1^2", "h": 0.1, "M": 32, "path": path,
           "L": 4.0, "rectangle": [0.0, 1.0, -0.4, 0.4], "shape": [4, 3]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["psgrid", "--config", str(tmp_path / "cfg.json"),
                    "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["timing"]["factor"] == factor


PSGRID_OK = {"symbol": "xi1^2+xi1*1i+x1^2", "h": 0.1, "M": 16,
             "rectangle": [0.0, 1.0, -0.4, 0.4], "shape": [4, 3]}


@pytest.mark.parametrize("key, value", [
    ("M", "abc"), ("M", 0), ("M", [3]), ("M", 2.5), ("M", True),
    ("h", -0.1), ("h", 0), ("h", "abc"), ("h", float("nan")),
    ("shape", [6.5, 5]), ("shape", [1, 5]), ("shape", [4]), ("shape", 4),
    ("rectangle", [1.0, 0.0, -0.4, 0.4]), ("rectangle", [0.0, 1.0, 0.4, 0.4]),
    ("rectangle", [0.0, 1.0, -0.4]), ("rectangle", [0.0, "x", -0.4, 0.4]),
    ("rectangle", [0.0, float("inf"), -0.4, 0.4]),
    # constant subexpressions that cannot be evaluated
    ("symbol", "xi1^2 + x1^2 + 1/0"), ("symbol", "xi1^2 + x1^2 + (1e200+1i)^2"),
])
def test_psgrid_malformed_config_exits_2(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PSGRID_OK, key: value}))
    out = tmp_path / "bad"
    assert run_cli(["psgrid", "--config", str(path), "--out", str(out)]) == 2
    man = json.loads((out / "manifest.json").read_text())
    assert man["error"].startswith("ConfigError") and man["artifacts"] == {}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


ROT = "xi1^2+xi1*1i+x1^2"
# small valid configs, one per subcommand (quantize and spectrum on the grid
# path, so that L and tail_tol are read)
VALID = {
    "classify": {"symbol": ROT, "box": [[-1.0, 1.0], [-1.0, 1.0]], "res": 10},
    "quantize": {"symbol": "xi1^2+x1^2", "h": 0.1, "M": 16, "path": "grid"},
    "spectrum": {"symbol": "xi1^2+x1^2", "h": 0.1, "M": 16, "path": "grid"},
    "psgrid": {**PSGRID_OK, "levels": [0.05]},
    "dissipative": {"q": "xi1^2+x1^2", "a": "x1^2", "h": 0.1, "M": 16,
                    "z_list": [[0.5, 0.5]]},
    "conjugate": {"symbol": ROT, "h": 1.0, "M": 16, "weight": "-x1/2",
                  "eps": 0.5, "z_list": [[2.0, 1.0]]},
    "weight": {"symbol": "xi1 + 1i*(x1^2 - 1)", "z0": [0.0, 0.0],
               "box": [[-2.5, 2.5], [-2.5, 2.5]], "T0": 5.0},
    "quasimode": {"symbol": ROT, "point": [1.0, 1.0], "order": 0, "delta": 0.5,
                  "h_list": [0.2, 0.1, 0.07, 0.05]},
    "fbi": {"symbol": ROT, "point": [1.0, 1.0], "h": 0.1, "out_points": 21},
    "scaling": {"experiment": "subelliptic", "k": 2, "M": 64,
                "h_list": [0.2, 0.1, 0.07, 0.05]},
    "scaling-decay": {"experiment": "resolvent-decay", "symbol": ROT,
                      "z": [2.0, 1.0], "M": 24, "h_list": [0.4, 0.3, 0.2, 0.1]},
}
MISSING = object()


def _assert_failed_cleanly(out, error_type):
    man = json.loads((out / "manifest.json").read_text())
    assert man["error"].startswith(error_type) and man["artifacts"] == {}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    return man


def _bad(name, key, value):
    shown = "missing" if value is MISSING else str(value)
    return pytest.param(name, key, value, id=f"{name}-{key}-{shown}")


@pytest.mark.parametrize("name, key, value", [
    # malformed values the numerics used to meet (exit 3)
    _bad("classify", "res", "abc"), _bad("classify", "res", 0),
    _bad("classify", "dim", "abc"), _bad("quantize", "L", "x"),
    _bad("quantize", "dim", 0), _bad("spectrum", "tail_tol", "x"),
    _bad("dissipative", "M", "abc"), _bad("dissipative", "h", -0.1),
    _bad("conjugate", "eps", "x"), _bad("weight", "T0", "x"),
    _bad("quasimode", "order", "a"), _bad("quasimode", "point", [1.0]),
    _bad("fbi", "h", -0.05), _bad("fbi", "out_points", "x"),
    _bad("scaling", "k", "x"), _bad("scaling-decay", "z", "abc"),
    _bad("psgrid", "levels", [-1]),
    # malformed values that used to end in a traceback (exit 1)
    _bad("classify", "res", [3]), _bad("classify", "symbol", 5),
    _bad("quantize", "dim", [1]), _bad("dissipative", "z_list", [[1]]),
    _bad("dissipative", "z_list", 5), _bad("conjugate", "z_list", [{"re": 1}]),
    _bad("weight", "z0", [0.0]), _bad("quasimode", "h_list", 0.1),
    _bad("psgrid", "levels", "x"), _bad("scaling", "k", MISSING),
    _bad("scaling-decay", "z", MISSING), _bad("scaling", "h_list", MISSING),
    _bad("fbi", "dim", 2),     # the beam grid is 1-D
    # keys and forms no release accepted
    _bad("conjugate", "xi_limit", "auto"), _bad("quantize", "xi_limit", [1.0, 0.0]),
    _bad("scaling-decay", "L", 2.0),     # the Hermite basis has no box
])
def test_malformed_config_exits_2(tmp_path, name, key, value):
    cfg = dict(VALID[name])
    if value is MISSING:
        del cfg[key]
    else:
        cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "bad"
    cmd = name.split("-")[0]
    assert run_cli([cmd, "--config", str(path), "--out", str(out)]) == 2
    man = _assert_failed_cleanly(out, "ConfigError")
    assert f"'{key}'" in man["error"]     # the named key, not another one


@pytest.mark.parametrize("name, key, value", [
    ("classify", "sigma_radii", []), ("classify", "cone", {}),
    ("psgrid", "levels", []), ("dissipative", "z_list", []),
], ids=["classify-sigma_radii", "classify-cone", "psgrid-levels",
        "dissipative-z_list"])
def test_empty_optional_value_switches_the_feature_off(tmp_path, name, key,
                                                        value):
    artifacts = []
    for i, cfg in enumerate([{**VALID[name], key: value},
                             {k: v for k, v in VALID[name].items() if k != key}]):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{i}"
        assert run_cli([name, "--config", str(path), "--out", str(out)]) == 0
        artifacts.append(json.loads((out / "manifest.json").read_text())["artifacts"])
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing-file", "invalid-json", "not-an-object"])
def test_unreadable_config_file_exits_2(tmp_path, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "bad"
    assert run_cli(["quantize", "--config", str(path), "--out", str(out)]) == 2
    _assert_failed_cleanly(out, "ConfigError")


def test_unexpected_exception_exits_3_without_partial_artifacts(tmp_path,
                                                                monkeypatch):
    # contour_extract runs after grid.csv and grid.pgm are written
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("pspeclab.cli.contour_extract", boom)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(VALID["psgrid"]))
    out = tmp_path / "boom"
    assert run_cli(["psgrid", "--config", str(path), "--out", str(out)]) == 3
    _assert_failed_cleanly(out, "RuntimeError")

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("pspeclab.cli.contour_extract", interrupt)
    out = tmp_path / "interrupted"
    with pytest.raises(KeyboardInterrupt):
        run_cli(["psgrid", "--config", str(path), "--out", str(out)])
    assert list(out.iterdir()) == []


def test_repro_manifest_failure_leaves_no_partial_artifacts(tmp_path,
                                                           monkeypatch):
    def suite(name):
        return [{"name": "row", "measured": "1", "expected": "1", "ok": True}], True

    def boom(path):
        raise OSError("injected")

    monkeypatch.setattr("pspeclab.cli.run_reproduction_suite", suite)
    monkeypatch.setattr("pspeclab.artifacts.sha256_file", boom)
    out = tmp_path / "repro"
    assert run_cli(["repro", "invariants", "--out", str(out)]) == 3
    _assert_failed_cleanly(out, "OSError")


def test_wrong_experiment_turns_its_check_and_repro_red(tmp_path, monkeypatch):
    from pspeclab import repro

    right = repro.conjugation_identity_experiment
    monkeypatch.setattr(repro, "conjugation_identity_experiment",
                        lambda: (1.0, right()[1]))
    criterion, check = repro._CHECKS["conjugation"]
    defect_row = check()[0]
    assert criterion == 11 and not defect_row["ok"]
    out = tmp_path / "repro"
    assert run_cli(["repro", "paper-examples", "--out", str(out)]) == 1
    rows = json.loads((out / "repro.json").read_text())["rows"]
    assert [r for r in rows if not r["ok"]] == [defect_row]
    # the scaling-laws suite runs the criterion 2 and 4 checks
    assert {2, 4} <= {repro._CHECKS[key][0]
                      for key in repro._SUITES["scaling-laws"]}


FUZZ_POOL = [None, True, "abc", [], [[]], {}, float("nan"), float("inf"),
             float("-inf"), -1, 0, 0.5]
FUZZ_SLOTS = [(name, key) for name in sorted(VALID) if name != "scaling-decay"
              for key in sorted(VALID[name])]


@settings(max_examples=60, deadline=None)
@given(slot=st.sampled_from(FUZZ_SLOTS), value=st.sampled_from(FUZZ_POOL))
def test_fuzzed_config_keeps_the_exit_code_contract(slot, value):
    name, key = slot
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({**VALID[name], key: value}))
        out = Path(tmp) / "out"
        code = run_cli([name, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        if code:
            _assert_failed_cleanly(out, "ConfigError" if code == 2 else "")


def test_weight_command(tmp_path):
    cfg = {"symbol": "xi1 + 1i*(x1^2 - 1)", "z0": [0.0, 0.0],
           "box": [[-2.5, 2.5], [-2.5, 2.5]], "T0": 5.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "w"
    assert run_cli(["weight", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "weight.json").read_text())
    assert payload["gamma"] > 0
    assert len(payload["bumps"]) >= 1


def test_weight_command_with_seeds_on_a_pole(tmp_path):
    # the level-set seeds include the column x1 = 0, the pole of 1i/x1
    cfg = {"symbol": "xi1 + 1i/x1", "z0": [0.5, 0.5],
           "box": [[-2, 2], [-2, 2]], "T0": 2.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "w"
    assert run_cli(["weight", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "weight.json").exists()


def test_weight_dynamical_violation_exit_code(tmp_path):
    cfg = {"symbol": "xi1^2+xi2^2+x1^2-1i*x2^2", "dim": 2, "z0": [1.0, 0.0],
           "box": [[-1.6, 1.6]] * 4, "T0": 5.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "wd"
    assert run_cli(["weight", "--config", str(path), "--out", str(out)]) == 3
    # partial artifacts removed; the manifest records the failure
    man = json.loads((out / "manifest.json").read_text())
    assert "error" in man
    assert not (out / "weight.json").exists()


def test_dissipative_command(tmp_path):
    cfg = {"q": "xi1^2+x1^2", "a": "x1^2", "h": 0.1, "M": 32,
           "z_list": [[0.5, 0.5]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "d"
    assert run_cli(["dissipative", "--config", str(path),
                    "--out", str(out)]) == 0
    payload = json.loads((out / "dissipative.json").read_text())
    assert payload["resolvent_check"]["ok"]


def test_quasimode_command(tmp_path):
    cfg = {"symbol": "xi1^2+xi1*1i+x1^2", "point": [1.0, 1.0], "order": 0,
           "delta": 0.5, "h_list": [0.1, 0.07, 0.05, 0.035, 0.025]}
    for path in ("grid", "hermite"):
        cfg_path = tmp_path / f"{path}.json"
        cfg_path.write_text(json.dumps({**cfg, "path": path}))
        out = tmp_path / path
        assert run_cli(["quasimode", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
        payload = json.loads((out / "residuals.json").read_text())
        assert 0.9 <= payload["exponent"] <= 1.5
        assert payload["phase_positivity"]["ok"] is True
    # an order-3 beam at delta = 0.5 fails the check, and the artifact says so
    cfg_path.write_text(json.dumps({**cfg, "order": 3, "h_list": [0.02, 0.014,
                                    0.01, 0.007, 0.005]}))
    assert run_cli(["quasimode", "--config", str(cfg_path),
                    "--out", str(tmp_path / "order3")]) == 0
    payload = json.loads((tmp_path / "order3" / "residuals.json").read_text())
    assert payload["phase_positivity"]["ok"] is False
    assert payload["phase_positivity"]["worst_margin"] < -0.1


def _container_basis_header(path):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + hlen])["basis"]


def test_operator_container_roundtrip(tmp_path):
    rot = parse_symbol("xi1^2+xi1*1i+x1^2", 1)
    ops = [
        (weyl_quantize_poly(rot, HermiteBasis(24), 0.1),
         {"kind": "hermite", "M": 24, "n": 1}),
        (weyl_quantize_grid(rot, FourierGrid(6.5, 32), 0.1, xi_limit=None,
                            tail_frac_tol=1.0),
         {"kind": "fourier", "L": 6.5, "M": 32, "n": 1}),
        # an operator without a basis is written as "raw", read back as None
        (OperatorMatrix(np.arange(9.0).reshape(3, 3) * (1 - 2j), 0.3, None,
                        provenance="raw-test"),
         {"kind": "raw"}),
    ]
    for k, (op, header) in enumerate(ops):
        path = tmp_path / f"op{k}.bin"
        operator_to_file(path, op)
        assert _container_basis_header(path) == header
        back = operator_from_file(path)
        assert np.array_equal(back.matrix, op.matrix)
        assert back.h == op.h
        assert back.basis == op.basis
        assert back.provenance == op.provenance


def test_pgm_format(tmp_path):
    path = tmp_path / "f.pgm"
    side = tmp_path / "f.json"
    write_pgm(path, np.array([[0.0, 1.0], [2.0, 3.0]]), side)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    meta = json.loads(side.read_text())
    assert meta["value_min"] == 0.0 and meta["value_max"] == 3.0


def test_sha256_changes_with_content(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("alpha")
    h1 = sha256_file(a)
    a.write_text("beta")
    assert sha256_file(a) != h1


def test_manifest_config_roundtrip(tmp_path):
    # the manifest's resolved config re-runs to identical artifacts
    cfg = {"symbol": "xi1^2+xi1*1i+x1^2", "h": 0.1, "M": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1 = tmp_path / "r1"
    assert run_cli(["spectrum", "--config", str(path), "--out", str(out1)]) == 0
    man1 = json.loads((out1 / "manifest.json").read_text())
    # the echo is the config as given plus every default
    assert man1["config"] == {**cfg, "dim": 1, "path": "hermite", "L": 8.0,
                              "xi_limit": "auto", "tail_tol": 0.01,
                              "seed": 2024}
    path2 = tmp_path / "resolved.json"
    path2.write_text(json.dumps(man1["config"]))
    out2 = tmp_path / "r2"
    assert run_cli(["spectrum", "--config", str(path2), "--out", str(out2)]) == 0
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert man1["artifacts"] == man2["artifacts"]


def test_scaling_command(tmp_path):
    cfg = {"experiment": "subelliptic", "k": 2,
           "h_list": [0.1, 0.05, 0.025, 0.0125], "M": 256}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "s"
    assert run_cli(["scaling", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "scaling.json").read_text())
    assert abs(payload["exponent"] - 2 / 3) < 0.08


def _scaling_payload(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert run_cli(["scaling", "--config", str(path), "--out", str(out)]) == 0
    return (out / "scaling.json").read_bytes()


def test_scaling_model_and_L_are_used(tmp_path):
    from pspeclab.repro import subelliptic_experiment
    from pspeclab.spectral import scaling_fit

    base = VALID["scaling"]
    default = _scaling_payload(tmp_path, "default", base)
    # null keeps the experiment's own box and model
    assert _scaling_payload(tmp_path, "nulls",
                            {**base, "L": None, "model": None}) == default
    fit, samples = subelliptic_experiment(base["k"], base["h_list"], M=base["M"])
    assert json.loads(default)["model"] == fit.model == "power"

    refit = json.loads(_scaling_payload(tmp_path, "exp",
                                        {**base, "model": "exponential"}))
    expect = scaling_fit(samples, "exponential")
    assert refit["model"] == "exponential"
    assert refit["exponent"] == expect.exponent

    boxed = json.loads(_scaling_payload(tmp_path, "box", {**base, "L": 2.0}))
    _, samples2 = subelliptic_experiment(base["k"], base["h_list"], L=2.0,
                                         M=base["M"])
    assert boxed["samples"] == [list(s) for s in samples2]
    assert boxed["samples"] != json.loads(default)["samples"]


def _run_checked(out, command, cfg):
    """Run `command` on cfg into out; assert exit 0 and that every
    checksum in the manifest matches its artifact."""
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", str(path), "--out", str(out)]) == 0
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert artifacts
    for name, digest in artifacts.items():
        assert sha256_file(out / name) == digest
    return out


def test_quantize_schrodinger_path(tmp_path):
    out = _run_checked(tmp_path / "s", "quantize",
                       {"symbol": "xi1^2+x1^2", "h": 0.1, "M": 64,
                        "path": "schrodinger", "L": 6.0})
    info = json.loads((out / "operator.json").read_text())
    assert info["provenance"] == "schrodinger"
    assert info["size"] == 64
    assert info["hermiticity_defect"] <= 1e-12


def test_scaling_resolvent_decay_and_rational_experiments(tmp_path):
    from pspeclab.repro import rational_resolvent_experiment, \
        resolvent_decay_experiment

    h_list = [0.2, 0.1, 0.07, 0.05]
    decay = json.loads((_run_checked(
        tmp_path / "decay", "scaling",
        {"experiment": "resolvent-decay", "symbol": ROT, "z": [2.0, 1.0],
         "M": 60, "h_list": h_list}) / "scaling.json").read_text())
    fit, samples = resolvent_decay_experiment(parse_symbol(ROT, 1), 2.0 + 1.0j,
                                              h_list, M=60)
    assert decay["model"] == "exponential"
    assert decay["exponent"] == fit.exponent > 0
    assert decay["samples"] == [list(s) for s in samples]

    rational = json.loads((_run_checked(
        tmp_path / "rational", "scaling",
        {"experiment": "rational", "h_list": h_list}) / "scaling.json"
    ).read_text())
    fit, samples = rational_resolvent_experiment(h_list)
    assert rational["model"] == "power"
    assert rational["exponent"] == fit.exponent > 0
    assert rational["samples"] == [list(s) for s in samples]


def test_classify_with_sigma_infinity_and_a_cone(tmp_path):
    from pspeclab.classical import sample_symbol_range

    symbol = "(xi1+1i*x1)^2/(1+x1^2+xi1^2)"
    cone = {"z0": [0.0, 0.0], "direction": 0.0, "aperture": 0.5}
    out = _run_checked(tmp_path / "c", "classify",
                       {"symbol": symbol, "box": [-3, 3, -3, 3], "res": 40,
                        "sigma_radii": [10, 100, 1000], "cone": cone})
    atlas = json.loads((out / "atlas.json").read_text())
    # p tends to e^{2 i theta} at phase-space infinity: the limit set is
    # the unit circle, reached to R^2 / (1 + R^2) at R = 1000
    sig = atlas["sigma_infinity"]
    assert sig["radii"] == [10.0, 100.0, 1000.0]
    assert sig["unbounded_count"] == 0
    mods = np.abs([complex(c["re"], c["im"]) for c in sig["candidates"]])
    assert mods.size > 0 and np.abs(mods - 1.0).max() < 1e-5
    (test,) = atlas["cone_tests"]
    ref = sample_symbol_range(parse_symbol(symbol, 1),
                              [(-3, 3), (-3, 3)], 40).cone_test(0.0, 0.0, 0.5)
    assert (test["n_hits"], test["empty"]) == (ref.n_hits, ref.empty)
    assert test["n_hits"] > 0


def test_conjugate_and_fbi_commands(tmp_path):
    cfg = {"symbol": "xi1^2+xi1*1i+x1^2", "h": 1.0, "M": 40,
           "weight": "-x1/2", "eps": 1.0, "z_list": [[2.0, 1.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cj"
    assert run_cli(["conjugate", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "conjugation.json").read_text())
    assert payload["cond"] < 1e10
    cfg2 = {"symbol": "xi1^2+xi1*1i+x1^2", "point": [1.0, 1.0], "h": 0.05,
            "order": 0, "delta": 0.5}
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(cfg2))
    out2 = tmp_path / "fb"
    assert run_cli(["fbi", "--config", str(path2), "--out", str(out2)]) == 0
    assert (out2 / "fbi.pgm").read_text().startswith("P2")
