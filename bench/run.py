"""Benchmark of the qbiblock command-line tool.

    python3 bench/run.py --workload verify_corpus --seed 1 --seconds 30 --trace 0

Run from the repository root (any working directory works; the script changes
to the root).  Workloads, metrics and the layer map are described in
bench/NOTES.md.

Commands are issued in-process through qbiblock.cli.main with stdout
captured, one after another, in one client loop: a closed loop with no extra
threads.  The untraced run repeats rounds of the workload's commands while
the next round still fits in --seconds (at least one round) and prints the
end-to-end metrics.  The traced run (--trace 1) makes an untraced round, a
round with layer wrappers installed and a second untraced round, plus, on the
verify workloads, one pass per identity check; it prints the per-layer
metrics.

The last stdout line is the result object {correct, attempted, failed,
metrics}.  Inputs, span files, per-run results and the stdout digests of
earlier runs live under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
CHECK_NAMES = (
    "det_vs_oracle",
    "cofactor_vs_oracle",
    "balance_constant_nonzero",
    "matrix_times_balance_is_constant",
    "balance_vector_sum",
    "anchor_weighted_sum",
    "anchor_affine_sum",
    "local_matrix_product",
    "inverse_product",
    "inverse_vs_elimination",
)
WORKLOADS = ("verify_corpus", "formulas_large", "oracle_large")
COMMAND_CLASSES = ("verify", "det", "at", "scalar_other", "inverse_json", "inverse_at")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.startswith("moddet.deg_"):
        return "count"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_bits", "bits"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def machine_info(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }


def code_fingerprint() -> str:
    """sha256 over the package and benchmark sources: runs with equal
    fingerprints run the same code."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh process that imports the package and
    generates, builds and writes the workload's inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
    return statistics.median(times)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_command(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash of one command is a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    stdout = out.getvalue()
    return {"rc": rc, "s": elapsed, "stdout": stdout, "sha256": sha(stdout), "stderr": err.getvalue()}


def run_round(cli, manifest: dict, tracer=None) -> tuple[float, dict]:
    results = {}
    start = time.perf_counter()
    for index, cmd in enumerate(manifest["commands"], start=1):
        if tracer is not None:
            tracer.operation = index
        results[cmd["key"]] = run_command(cli, cmd["argv"])
    return time.perf_counter() - start, results


def digests_of(results: dict) -> dict:
    return {key: r["sha256"] for key, r in results.items()}


class Ledger:
    """Attempted and failed operations: commands, correctness gates, digests."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def commands(self, results: dict):
        for key, r in results.items():
            self.record(f"command {key}", None if r["rc"] == 0 else f"exit {r['rc']}: {r['stderr'][-300:]}")

    def record(self, name: str, failure: str | None):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{name}: {failure}")


def check_previous_digests(ledger: Ledger, workload: str, seed: int, digests: dict, fingerprint: str):
    """Fail when an earlier run of the same code and seed printed other bytes."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = f"{fingerprint}:{workload}:{seed}"
    previous = store.setdefault(key, digests)
    changed = sorted(k for k in set(previous) | set(digests) if previous.get(k) != digests.get(k))
    ledger.record("digest vs earlier run", f"stdout changed for {changed}" if changed else None)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def untraced(cli, manifest: dict, seconds: float) -> tuple[dict, list]:
    rounds = []
    loop_start = time.perf_counter()
    while True:
        wall, results = run_round(cli, manifest)
        if rounds:
            # only round 1 feeds the gates; later rounds keep digests, so
            # peak memory does not grow with the number of rounds
            for r in results.values():
                r["stdout"] = None
        rounds.append((wall, results))
        if time.perf_counter() - loop_start + wall > seconds:
            break
    return {"wall_s": statistics.median(wall for wall, _ in rounds)}, rounds


def probed_round(cli, tracer_mod, manifest: dict) -> tuple[float, dict, list[float]]:
    """One untraced round, with the latency of each operation: one graph's
    verify_graph on the verify workloads, one command on formulas_large."""
    graph_ms: list[float] = []

    def probe(original):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                graph_ms.append((time.perf_counter() - start) * 1000.0)

        return timed

    with tracer_mod.patched({("oracle", "verify_graph"): probe}):
        wall, results = run_round(cli, manifest)
    return wall, results, graph_ms or [r["s"] * 1000.0 for r in results.values()]


def per_check_times(manifest: dict, ledger: Ledger) -> dict:
    """Each identity check alone over the workload's graphs, wrappers off."""
    from qbiblock.graph import specs_from_json
    from qbiblock.oracle import verify_graph

    specs = [(g["path"], specs_from_json(g["graph"])) for g in manifest["graphs"]]
    times = {}
    for check in CHECK_NAMES:
        total = 0.0
        for name, graph in specs:
            start = time.perf_counter()
            try:
                failure = None if verify_graph(graph, name, select=[check]).passed else "failed alone"
            except Exception as exc:  # a crash of one check is a failed operation
                failure = f"{type(exc).__name__}: {exc}"
            total += time.perf_counter() - start
            ledger.record(f"check {check} {name}", failure)
        times[check] = total
    return times


def traced(cli, tracer_mod, manifest: dict, tracer, ledger: Ledger, run_start: float) -> tuple[dict, list]:
    first_wall, plain, op_ms = probed_round(cli, tracer_mod, manifest)
    with tracer_mod.patched(tracer.replacements()):
        traced_wall, with_trace = run_round(cli, manifest, tracer)
    # the overhead is taken against a later untraced round, so that neither
    # round pays the process's first-use costs
    untraced_wall, after = run_round(cli, manifest)
    ledger.commands(with_trace)
    ledger.commands(after)
    changed = [k for k in plain if not plain[k]["sha256"] == with_trace[k]["sha256"] == after[k]["sha256"]]
    ledger.record("traced and untraced rounds print the same", f"differs for {changed}" if changed else None)
    checks = per_check_times(manifest, ledger) if manifest["commands"][0]["cls"] == "verify" else {}

    metrics = {}
    for module, attr in tracer_mod.LAYERS:
        name = tracer_mod.metric_name(module, attr)
        calls, self_s, _ = tracer.stats[name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for check in CHECK_NAMES:
        metrics[f"oracle.check.{check}.self_s"] = checks.get(check, 0.0)
    for key, value in tracer_mod.moddet_margins(tracer.moddet_calls).items():
        metrics[f"moddet.{key}"] = value
    oracle_total = tracer.stats["oracle.oracle_det"][2] + tracer.stats["oracle.oracle_cofactor"][2]
    metrics["trace.oracle_det_cofactor_share"] = oracle_total / traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["ops.p50_ms"] = statistics.median(op_ms)
    metrics["ops.p90_ms"] = percentile(op_ms, 90)
    for cls in COMMAND_CLASSES:
        metrics[f"cmd.{cls}_s"] = sum(
            plain[c["key"]]["s"] for c in manifest["commands"] if c["cls"] == cls
        )

    operations = ["setup"] + [c["key"] for c in manifest["commands"]]
    spans_path = OUT / f"spans-{manifest['workload']}-{manifest['seed']}.json"
    spans = sorted(tracer.spans, key=lambda s: s[4])
    spans_path.write_text(json.dumps({
        "fields": ["id", "operation", "parent", "name", "start_s", "end_s"],
        "operations": operations,
        "dropped_spans": tracer.dropped_spans,
        "spans": [[i, op, parent, name, round(a - run_start, 7), round(b - run_start, 7)]
                  for i, op, parent, name, a, b in spans],
    }), encoding="utf-8")
    return metrics, [(first_wall, plain)]


def run(args) -> dict:
    run_start = time.perf_counter()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    import tracer as tracer_mod
    import workloads
    from qbiblock import cli

    workdir = OUT / f"{args.workload}-{args.seed}"
    tracer = tracer_mod.Tracer() if args.trace else None
    # the traced run's set-up is operation 0 of its spans
    with tracer_mod.patched(tracer.replacements()) if tracer else contextlib.nullcontext():
        manifest = workloads.prepare(args.workload, args.seed, workdir)

    ledger = Ledger()
    if args.trace:
        metrics, rounds = traced(cli, tracer_mod, manifest, tracer, ledger, run_start)
    else:
        metrics, rounds = untraced(cli, manifest, args.seconds)
    for _, results in rounds:
        ledger.commands(results)

    first = rounds[0][1]
    digests = digests_of(first)
    for index, (_, results) in enumerate(rounds[1:], start=2):
        changed = [k for k, v in digests_of(results).items() if v != digests[k]]
        ledger.record(f"round {index} stdout equals round 1", f"differs for {changed}" if changed else None)
    for gate, failure in workloads.run_gates(manifest, {k: r["stdout"] for k, r in first.items()}):
        ledger.record(gate, failure)
    fingerprint = code_fingerprint()
    check_previous_digests(ledger, args.workload, args.seed, digests, fingerprint)

    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_ratio"] = (ledger.attempted - len(ledger.failures)) / ledger.attempted

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "round_walls_s": [wall for wall, _ in rounds],
        "machine": machine_info(args.seed),
        "code_fingerprint": fingerprint,
        "stdout_sha256": digests,
        "failures": ledger.failures,
    }
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        if not (SRC / "qbiblock" / "cli.py").is_file():
            raise BenchError(f"no qbiblock sources under {SRC}")
        sys.path.insert(0, str(SRC))
        OUT.mkdir(exist_ok=True)
        if args.setup_only:
            import workloads
            import qbiblock.cli  # noqa: F401  -- the CLI's import is part of set-up

            workloads.prepare(args.workload, args.seed, OUT / f"{args.workload}-{args.seed}")
            return 0
        result = run(args)
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
