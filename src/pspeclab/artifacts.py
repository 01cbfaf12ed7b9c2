"""Artifact serialization: CSV, JSON, PGM heatmaps, operator containers.

All writers format numbers with shortest-roundtrip repr so a rerun with
the same config and seed reproduces every artifact byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "write_json",
    "write_csv",
    "write_pgm",
    "sha256_file",
    "atlas_to_csv",
    "levelset_to_json",
    "grid_to_csv",
    "grid_to_pgm",
    "spectrum_to_json",
    "spectrum_to_csv",
    "fbi_to_csv",
    "quasimode_to_csv",
    "operator_to_file",
    "operator_from_file",
    "escape_weight_to_json",
]


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{_fmt(x.real)}{'+' if x.imag >= 0 else '-'}{_fmt(abs(x.imag))}j"
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload):
    path = Path(path)
    with path.open("w") as f:
        json.dump(_jsonable(payload), f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def write_csv(path, header, rows):
    path = Path(path)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_pgm(path, values, sidecar_path=None, levels=255):
    """Plain (P2) PGM of a real field with an affine value-to-gray map
    recorded in a JSON sidecar."""
    path = Path(path)
    v = np.asarray(values, dtype=float)
    lo, hi = float(np.nanmin(v)), float(np.nanmax(v))
    span = hi - lo if hi > lo else 1.0
    gray = np.round((v - lo) / span * levels).astype(int)
    with path.open("w") as f:
        f.write("P2\n")
        f.write(f"{v.shape[1]} {v.shape[0]}\n{levels}\n")
        for row in gray:
            f.write(" ".join(str(g) for g in row) + "\n")
    if sidecar_path is not None:
        write_json(sidecar_path, {"value_min": lo, "value_max": hi,
                                  "levels": levels,
                                  "mapping": "gray = round((v - min)/(max - min) * levels)"})
    return path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# typed writers

def atlas_to_csv(path, atlas):
    n = atlas.n
    if n == 1:
        header = ["x", "xi", "re_p", "im_p", "bracket"]
    else:
        header = [f"x{j+1}" for j in range(n)] + [f"xi{j+1}" for j in range(n)] \
            + ["re_p", "im_p", "bracket"]
    rows = [list(pt) + [v.real, v.imag, b]
            for pt, v, b in zip(atlas.points, atlas.values, atlas.brackets)]
    return write_csv(path, header, rows)


def atlas_to_json(path, atlas):
    payload = {
        "symbol": atlas.symbol,
        "n": atlas.n,
        "box": atlas.box,
        "resolution": atlas.resolution,
        "skipped": atlas.skipped,
        "bracket_tol": atlas.bracket_tol,
        "counts": {
            "total": int(len(atlas.points)),
            "lambda": int(atlas.lambda_mask.sum()),
            "lambda_plus": int(atlas.lambda_plus_mask.sum()),
            "lambda_minus": int(atlas.lambda_minus_mask.sum()),
        },
        "cone_tests": [vars(c) for c in atlas.cone_tests],
        "sigma_infinity": None if atlas.sigma_inf is None else {
            "radii": atlas.sigma_inf.radii,
            "candidates": atlas.sigma_inf.candidates,
            "candidate_radius": atlas.sigma_inf.candidate_radius,
            "unbounded_count": int(len(atlas.sigma_inf.unbounded_directions)),
        },
    }
    return write_json(path, payload)


def levelset_to_json(path, ls):
    payload = {
        "target": ls.target,
        "solutions": ls.solutions,
        "brackets": ls.brackets,
        "bracket_signs": ls.bracket_signs,
        "residuals": ls.residuals,
        "tol": ls.tol,
        "dedupe": ls.dedupe,
    }
    return write_json(path, payload)


def grid_to_csv(path, grid):
    rows = []
    for i, r in enumerate(grid.re):
        for j, m in enumerate(grid.im):
            rows.append([r, m, grid.sigma[i, j], bool(grid.floored[i, j])])
    return write_csv(path, ["re", "im", "sigma_min", "floored_flag"], rows)


def grid_to_pgm(path, grid, sidecar_path=None):
    return write_pgm(path, np.log10(grid.sigma).T, sidecar_path)


def spectrum_to_json(path, report):
    payload = {
        "eigenvalues": report.eigenvalues,
        "residuals": report.residuals,
        "tail_mass": report.tail_mass,
        "accepted": report.accepted,
        "norm": report.norm,
        "residual_tol": report.residual_tol,
        "tail_tol": report.tail_tol,
    }
    return write_json(path, payload)


def spectrum_to_csv(path, report):
    rows = [[lam.real, lam.imag, r, t, bool(a)]
            for lam, r, t, a in zip(report.eigenvalues, report.residuals,
                                    report.tail_mass, report.accepted)]
    return write_csv(path, ["re", "im", "residual", "tail_mass", "accepted"],
                     rows)


def fbi_to_csv(path, field):
    rows = []
    for i, x in enumerate(field.x):
        for j, xi in enumerate(field.xi):
            v = field.values[i, j]
            rows.append([x, xi, v.real, v.imag, abs(v)])
    return write_csv(path, ["x", "xi", "re", "im", "abs"], rows)


def fbi_to_pgm(path, field, sidecar_path=None):
    return write_pgm(path, np.abs(field.values).T, sidecar_path)


def quasimode_to_csv(path, x, u):
    rows = [[xx, uu.real, uu.imag] for xx, uu in zip(x, u)]
    return write_csv(path, ["x", "re_u", "im_u"], rows)


def escape_weight_to_json(path, w):
    payload = {
        "symbol": w.symbol,
        "z0": w.z0,
        "gamma": w.gamma,
        "sample_count": w.sample_count,
        "T0": w.T0,
        "vacuous": w.vacuous,
        "bumps": [{"center": c, "radius": r, "direction": d}
                  for c, r, d in zip(w.centers, w.radii, w.directions)],
        "diagnostics": w.diagnostics,
    }
    return write_json(path, payload)


# ---------------------------------------------------------------------------
# operator container: JSON header + row-major complex128 payload

_MAGIC = b"PSPECOP1"


def operator_to_file(path, op):
    """Write op; its basis is stored as its kind and fields, or as
    {"kind": "raw"} when it has none."""
    basis = op.basis
    bmeta = ({"kind": "raw"} if basis is None
             else {"kind": basis.kind, **dataclasses.asdict(basis)})
    header = json.dumps({
        "size": op.size,
        "h": op.h,
        "basis": bmeta,
        "provenance": op.provenance,
        "dtype": "complex128",
        "order": "row-major",
    }, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(np.ascontiguousarray(op.matrix, dtype=np.complex128).tobytes())
    return Path(path)


def operator_from_file(path):
    from .quantize import FourierGrid, HermiteBasis, OperatorMatrix

    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not an operator container")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode())
        data = f.read()
    size = header["size"]
    mat = np.frombuffer(data, dtype=np.complex128).reshape(size, size).copy()
    fields = dict(header["basis"])
    cls = {c.kind: c for c in (HermiteBasis, FourierGrid)}.get(fields.pop("kind"))
    basis = None if cls is None else cls(**fields)
    return OperatorMatrix(mat, header["h"], basis, header.get("provenance", ""))
