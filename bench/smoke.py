"""Smoke test of the benchmark itself (not part of the pytest suite).

    python3 bench/smoke.py

Runs the tiny variant of every workload, untraced and traced, and
checks that the last output line has the result format run.py
documents and that every metric BENCHMARK.json names is printed with
its unit.  Then it
corrupts one output per workload and checks that the gates reject it,
and checks that a directory holding only the benchmark (no pspeclab
sources) makes run.py fail without printing a result.  Takes about a
minute on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "smoke"


def run_tiny(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (workload, proc.stdout)
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    report = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert f" {m['name']} " in report, f"{m['name']} missing from report"
    return result, report


def check_corruption():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import GateError, WORKLOADS

    def rejected(check, out):
        try:
            check(out, full=True)
        except GateError:
            return True
        return False

    shutil.rmtree(SCRATCH, ignore_errors=True)
    for name, cls in WORKLOADS.items():
        work = SCRATCH / name
        work.mkdir(parents=True)
        wl = cls(5, work, tiny=True)
        with contextlib.redirect_stdout(io.StringIO()):   # repro tables
            out = wl.op()
        wl.check(out, full=True)            # the clean output passes
        if name == "psgrid-rotated":
            # change one sigma_min value and re-sign the manifest, so only
            # the SVD comparison can catch it
            csv = wl.out / "grid.csv"
            lines = csv.read_text().splitlines()
            cells = lines[7].split(",")
            cells[2] = repr(float(cells[2]) * 1.001)
            lines[7] = ",".join(cells)
            csv.write_text("\n".join(lines) + "\n")
            manifest = json.loads((wl.out / "manifest.json").read_text())
            manifest["artifacts"]["grid.csv"] = hashlib.sha256(
                csv.read_bytes()).hexdigest()
            (wl.out / "manifest.json").write_text(json.dumps(manifest))
            assert rejected(wl.check, out), "corrupted sigma_min accepted"
            (wl.out / "grid.pgm").write_text("P2\n")
            assert rejected(wl.check, out), "checksum mismatch accepted"
        elif name == "wick-proximity":
            out[0]["dist"] = 1e3
            assert rejected(wl.check, out), "proximity bound violation accepted"
        else:
            red = next(r for r in out["rows"] if r["measured"] == "1.50e-03")
            red["measured"] = "1.49e-03"
            assert rejected(wl.check, out), "changed known-red value accepted"
            red["measured"], red["ok"] = "1.50e-03", True
            assert rejected(wl.check, out), "known-red row counted as a pass"
        print(f"corrupted {name}: rejected")


def check_bare_directory():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "wick-proximity", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=bare, timeout=170)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("bare directory: exit", proc.returncode, "without a result")


def main():
    for workload in ("psgrid-rotated", "wick-proximity", "repro-suites"):
        for trace in (0, 1):
            result, _ = run_tiny(workload, trace)
            print(f"{workload} trace={trace}: {result['attempted']} ops, "
                  f"{len(result['metrics'])} metrics")
    check_corruption()
    check_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke OK")


if __name__ == "__main__":
    main()
