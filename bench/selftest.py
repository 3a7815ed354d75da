"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 bench/selftest.py

Runs every workload, untraced and traced, on a few small graphs and checks
that the result carries exactly the metrics BENCHMARK.json names, with their
units; that the gates catch corrupted outputs; that wrappers are removed
again; and that without the package sources the benchmark exits nonzero
without a result.  Everything it writes goes to .bench_out/selftest/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qbiblock import cli, closedform  # noqa: E402
from qbiblock.graph import Attachment, BlockSpec, random_biblock, random_tree  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = {
    "verify_corpus": [("K_2_3", [BlockSpec(2, 3)]), ("tree6", random_tree(3, 6)),
                      ("random9", random_biblock(5, 3, 3))],
    "oracle_large": [("tree9", random_tree(1, 9)), ("biblock", random_biblock(4, 4, 3))],
    "formulas_large": [("a", random_biblock(1, 4, 3)), ("b", random_biblock(2, 4, 3)),
                       ("dense", [BlockSpec(2, 2), BlockSpec(2, 3, Attachment(1, "X"))]),
                       ("tree", random_tree(0, 12))],
}


def check_benchmark_json(spec: dict):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(w["name"] for w in spec["workloads"]) == set(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names), "bad or repeated name"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def run_tiny(workload: str, trace: int) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.run(argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace))
    return json.loads(json.dumps(result))


def check_result(result: dict, expected: list[dict]):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == {m["name"] for m in expected}, set(result["metrics"]) ^ {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m


def check_gates_catch_corruption():
    manifest = workloads.prepare("formulas_large", 3, run.OUT / "formulas_large-3")
    outputs = {}
    for cmd in manifest["commands"]:
        outputs[cmd["key"]] = run.run_command(cli, cmd["argv"])["stdout"]
    assert all(msg is None for _, msg in workloads.run_gates(manifest, outputs))

    bad = dict(outputs)
    det_at = json.loads(bad["det@:a"])
    det_at["value"] = [str(int(det_at["value"][0]) + 1), det_at["value"][1]]
    bad["det@:a"] = json.dumps(det_at)
    rows = bad["inverse@:dense"].splitlines()
    cells = rows[0].split("\t")
    cells[0] = str(Fraction(cells[0]) + 1)
    rows[0] = "\t".join(cells)
    bad["inverse@:dense"] = "\n".join(rows) + "\n"
    failed = {gate for gate, msg in workloads.run_gates(manifest, bad) if msg}
    assert "det:symbolic_vs_at:a" in failed, failed
    assert any(g.startswith("inverse:dense:column") for g in failed) or "inverse:dense:symbolic_vs_at" in failed
    bad["inverse:tree"] = ""
    failed = {gate for gate, msg in workloads.run_gates(manifest, bad) if msg}
    assert "inverse:tree" in failed, failed

    manifest = workloads.prepare("oracle_large", 3, run.OUT / "oracle_large-3")
    text = run.run_command(cli, manifest["commands"][0]["argv"])["stdout"]
    assert all(msg is None for _, msg in workloads.gate_verify(manifest, text))
    broken = text.replace('"pass":true', '"pass":false', 1)
    assert any(msg for _, msg in workloads.run_gates(manifest, {"verify": broken}))
    assert any(msg for _, msg in workloads.run_gates(manifest, {"verify": "{not json"}))


def check_bare_checkout_fails():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle_large", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_benchmark_json(spec)
    run.OUT = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(run.OUT, ignore_errors=True)
    run.OUT.mkdir(parents=True)
    run.measure_setup = lambda workload, seed: 0.001
    workloads._references = TINY.__getitem__
    originals = (cli.main, closedform.graph_det, cli.graph_det)
    for workload in run.WORKLOADS:
        check_result(run_tiny(workload, 0), spec["end_to_end"])
        result = run_tiny(workload, 1)
        check_result(result, spec["per_layer"])
        calls = result["metrics"]["moddet.det_int_poly_matrix.calls"]["value"]
        assert (calls == 0) == (workload == "formulas_large"), (workload, calls)
    assert (cli.main, closedform.graph_det, cli.graph_det) == originals, "wrappers left installed"
    spans = json.loads((run.OUT / "spans-verify_corpus-3.json").read_text(encoding="utf-8"))
    ids = {s[0] for s in spans["spans"]}
    assert spans["spans"] and all(s[2] is None or s[2] in ids for s in spans["spans"])
    check_gates_catch_corruption()
    check_bare_checkout_fails()
    print(f"selftest ok ({len(tracer.LAYERS)} traced functions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
