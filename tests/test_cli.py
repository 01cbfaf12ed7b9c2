import json

import numpy as np
import pytest

from pspeclab.artifacts import (
    operator_from_file,
    operator_to_file,
    sha256_file,
    write_pgm,
)
from pspeclab.cli import main
from pspeclab.quantize import HermiteBasis, weyl_quantize_poly
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
        hashes.append(man["artifacts"]["grid.csv"])
    assert hashes[0] == hashes[1]


PSGRID_OK = {"symbol": "xi1^2+xi1*1i+x1^2", "h": 0.1, "M": 16,
             "rectangle": [0.0, 1.0, -0.4, 0.4], "shape": [4, 3]}


@pytest.mark.parametrize("key, value", [
    ("M", "abc"), ("M", 0), ("M", [3]), ("M", 2.5), ("M", True),
    ("h", -0.1), ("h", 0), ("h", "abc"), ("h", float("nan")),
    ("shape", [6.5, 5]), ("shape", [1, 5]), ("shape", [4]), ("shape", 4),
    ("rectangle", [1.0, 0.0, -0.4, 0.4]), ("rectangle", [0.0, 1.0, 0.4, 0.4]),
    ("rectangle", [0.0, 1.0, -0.4]), ("rectangle", [0.0, "x", -0.4, 0.4]),
    ("rectangle", [0.0, float("inf"), -0.4, 0.4]),
])
def test_psgrid_malformed_config_exits_2(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PSGRID_OK, key: value}))
    out = tmp_path / "bad"
    assert run_cli(["psgrid", "--config", str(path), "--out", str(out)]) == 2
    man = json.loads((out / "manifest.json").read_text())
    assert man["error"].startswith("ConfigError") and man["artifacts"] == {}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


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
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "qm"
    assert run_cli(["quasimode", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "residuals.json").read_text())
    assert 0.9 <= payload["exponent"] <= 1.5


def test_operator_container_roundtrip(tmp_path):
    op = weyl_quantize_poly(parse_symbol("xi1^2+xi1*1i+x1^2", 1),
                            HermiteBasis(24), 0.1)
    path = tmp_path / "op.bin"
    operator_to_file(path, op)
    back = operator_from_file(path)
    assert np.array_equal(back.matrix, op.matrix)
    assert back.h == op.h
    assert back.basis == op.basis


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
