"""Acceptance suite.

One test per acceptance criterion.  Each criterion prints a single pass/fail
line (run pytest with -s to stream them) and asserts both the exact results
and its runtime budget.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from qbiblock.closedform import (
    block_cofactor,
    block_det,
    block_inverse,
    check_conditions,
    graph_cofactor,
    graph_det,
)
from qbiblock.exactring import Q
from qbiblock.graph import BlockSpec, build, path_tree, random_tree, star_tree
from qbiblock.exactring import RF_ONE, RF_ZERO
from qbiblock.matrix import det_bareiss
from qbiblock.oracle import (
    default_corpus,
    oracle_cofactor,
    oracle_det,
    oracle_inverse,
    verify_graph,
)
from qbiblock.qdist import q_distance_matrix
from helpers import identity, rf_matrix

QP1 = Q + 1


def run_criterion(number: int, name: str, budget_s: float, body) -> None:
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"acceptance {number} {name}: FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - started
    print(f"acceptance {number} {name}: PASS in {elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _composition_corpus():
    corpus = default_corpus(7)
    return [
        (name, specs)
        for name, specs in corpus
        if name.startswith("tree_") or name.startswith("random_")
    ]


def test_criterion_1_block_determinant():
    def body():
        for s in range(1, 6):
            for t in range(1, 6):
                g = build([BlockSpec(s, t)])
                assert block_det(s, t) == det_bareiss(q_distance_matrix(g)), (s, t)

    run_criterion(1, "block determinant", 5.0, body)


def test_criterion_2_block_cofactor():
    def body():
        for s in range(1, 6):
            for t in range(1, 6):
                g = build([BlockSpec(s, t)])
                got = block_cofactor(s, t)
                assert got == oracle_cofactor(g), (s, t)
                sign = -1 if (s + t) % 2 else 1
                explicit = sign * QP1 ** (s + t - 1) * (Q**2 * ((s - 1) * (t - 1)) - 1)
                assert got == explicit, (s, t)

    run_criterion(2, "block cofactor (sign-resolved)", 5.0, body)


def test_criterion_3_block_inverse():
    def body():
        for s in range(1, 5):
            for t in range(1, 5):
                g = build([BlockSpec(s, t)])
                inv = block_inverse(s, t)
                d = rf_matrix(q_distance_matrix(g))
                eye = identity(s + t, RF_ZERO, RF_ONE)
                assert inv @ d == eye, (s, t)
                assert inv == oracle_inverse(g), (s, t)

    run_criterion(3, "block inverse", 10.0, body)


def test_criterion_4_composition_matches_oracles():
    def body():
        corpus = _composition_corpus()
        trees = sum(1 for name, _ in corpus if name.startswith("tree_"))
        randoms = sum(1 for name, _ in corpus if name.startswith("random_"))
        assert trees == 47 and randoms == 100
        for name, specs in corpus:
            g = build(specs)
            assert g.n <= 29, name
            assert graph_det(g) == oracle_det(g), name
            assert graph_cofactor(g) == oracle_cofactor(g), name

    run_criterion(4, "determinant/cofactor composition", 60.0, body)


def test_criterion_5_tree_specialization():
    def body():
        rng = random.Random(505)
        cases = []
        for n in range(2, 13):
            cases.append(path_tree(n))
            cases.append(star_tree(n))
        for _ in range(20):
            cases.append(random_tree(rng.randrange(1 << 30), rng.randint(2, 12)))
        for specs in cases:
            g = build(specs)
            n = g.n
            expected = (-1) ** (n - 1) * (n - 1) * QP1 ** (n - 2)
            got = graph_det(g)
            assert got == expected
            assert got.eval_at(1) == (-1) ** (n - 1) * (n - 1) * 2 ** (n - 2)

    run_criterion(5, "tree specialization", 10.0, body)


def test_criterion_6_identity_suite():
    identity_checks = (
        "matrix_times_balance_is_constant",
        "balance_vector_sum",
        "anchor_weighted_sum",
        "anchor_affine_sum",
        "local_matrix_product",
        "inverse_product",
    )

    def body():
        for name, specs in _composition_corpus():
            report = verify_graph(specs, name, select=identity_checks)
            assert len(report.checks) == len(identity_checks)
            assert report.passed, (name, [c for c in report.checks if not c.passed])

    run_criterion(6, "identity suite", 120.0, body)


def test_criterion_7_condition_gating(tmp_path, checkout_env):
    def body():
        from qbiblock.graph import graph_to_json

        k22 = tmp_path / "k22.json"
        k22.write_text(json.dumps(graph_to_json([BlockSpec(2, 2)])), encoding="utf-8")
        k11 = tmp_path / "k11.json"
        k11.write_text(json.dumps(graph_to_json([BlockSpec(1, 1)])), encoding="utf-8")

        check = check_conditions(build([BlockSpec(2, 2)]), 1)
        assert check.violated("C1") and check.violated("C2")
        assert graph_det(build([BlockSpec(2, 2)])).eval_at(1) == 0

        result = subprocess.run(
            [sys.executable, "-m", "qbiblock.cli", "det", str(k22), "--at", "1", "--format", "json"],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["value"] == ["0", "1"]
        assert {v["condition"] for v in payload["violations"]} == {"C1", "C2"}

        result = subprocess.run(
            [sys.executable, "-m", "qbiblock.cli", "det", str(k22), "--at=-1"],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert result.returncode == 3

        for command in ("det", "xi", "lambda", "vectors", "inverse"):
            result = subprocess.run(
                [sys.executable, "-m", "qbiblock.cli", command, str(k11), "--at", "1"],
                capture_output=True,
                text=True,
                env=checkout_env,
            )
            assert result.returncode == 0, (command, result.stderr)
        assert check_conditions(build([BlockSpec(1, 1)]), 1).ok

    run_criterion(7, "condition gating", 10.0, body)


def test_criterion_8_verify_is_byte_deterministic(checkout_env):
    def body():
        outputs = []
        for jobs in ("1", "2"):
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "qbiblock.cli",
                    "verify",
                    "--seed",
                    "7",
                    "--json",
                    "--jobs",
                    jobs,
                ],
                capture_output=True,
                env=checkout_env,
            )
            assert result.returncode == 0
            outputs.append(result.stdout)
        # byte-identical across consecutive runs, sequential vs pooled
        assert outputs[0] == outputs[1]
        last = json.loads(outputs[0].decode().strip().splitlines()[-1])
        assert last["summary"]["failures"] == 0
        assert last["summary"]["graphs"] == 172

    run_criterion(8, "verify determinism", 300.0, body)
