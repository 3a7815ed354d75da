from __future__ import annotations

import hashlib
import io
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qbiblock import cli, oracle
from qbiblock.closedform import check_conditions, graph_inverse, inverse_at
from qbiblock.graph import Attachment, BlockSpec, build, graph_to_json, path_tree
from qbiblock.oracle import CheckResult, VerificationReport
from helpers import formulas_large_graphs

REPO_ROOT = Path(__file__).resolve().parents[1]
PYTHON = shlex.quote(sys.executable)



def write_graph(tmp_path: Path, name: str, specs) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(specs)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def k11(tmp_path):
    return write_graph(tmp_path, "k11.json", [BlockSpec(1, 1)])


@pytest.fixture()
def k22(tmp_path):
    return write_graph(tmp_path, "k22.json", [BlockSpec(2, 2)])


@pytest.fixture()
def p3(tmp_path):
    return write_graph(tmp_path, "p3.json", path_tree(3))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_text(capsys, k11, p3):
    code, out, _ = run_cli(capsys, "det", k11)
    assert code == 0 and out == "-1\n"
    code, out, _ = run_cli(capsys, "det", p3)
    assert code == 0 and out == "2 + 2q\n"


def test_det_json(capsys, p3):
    code, out, _ = run_cli(capsys, "det", p3, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "det"
    assert payload["value"] == [["2", "1"], ["2", "1"]]


def test_det_and_xi_at_on_a_path_at_the_vertex_cap_match_the_tree_formulas(capsys, tmp_path):
    # det = (-1)^(n-1) (n-1) (q+1)^(n-2) and xi = (-1)^(n-1) (q+1)^(n-1),
    # evaluated factor by factor without expanding either polynomial
    n, q0 = 5000, Fraction(2, 7)
    path = write_graph(tmp_path, "path.json", path_tree(n))
    sign = (-1) ** (n - 1)
    wants = {"det": sign * (n - 1) * (q0 + 1) ** (n - 2), "xi": sign * (q0 + 1) ** (n - 1)}
    for command, want in wants.items():
        code, out, _ = run_cli(capsys, command, path, "--at", "2/7")
        # the values have about 4,900 digits, above CPython's default str() limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            assert code == 0 and out == f"{want}\n", command
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


def test_det_at_with_condition_violations_warns_but_prints(capsys, k22):
    code, out, err = run_cli(capsys, "det", k22, "--at", "1")
    assert code == 0
    assert out == "0\n"
    assert "C1" in err and "C2" in err


def test_det_at_json_reports_violations(capsys, k22):
    code, out, _ = run_cli(capsys, "det", k22, "--at", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == ["0", "1"]
    conditions = {v["condition"] for v in payload["violations"]}
    assert conditions == {"C1", "C2"}


def test_minus_one_is_rejected(capsys, k11):
    for command in ("det", "xi", "lambda", "vectors", "inverse"):
        code, _, err = run_cli(capsys, command, k11, "--at=-1")
        assert code == 3
        assert "q = -1" in err


def test_at_takes_a_negative_fraction_as_its_own_argument(capsys, tmp_path):
    # argparse reads -1 as a number but would take -3/5 for an option
    path = write_graph(tmp_path, "p4.json", path_tree(4))
    for command in ("det", "vectors", "inverse"):
        for fmt in ("text", "json"):
            joined = run_cli(capsys, command, path, "--at=-3/5", "--format", fmt)
            assert joined[0] == 0 and joined[1], (command, fmt)
            assert run_cli(capsys, command, path, "--at", "-3/5", "--format", fmt) == joined
            assert run_cli(capsys, command, "--at", "-3/5", path, "--format", fmt) == joined
    # -3 (1 + q)^2 at q = -3/5
    assert run_cli(capsys, "det", path, "--at", "-3/5") == (0, "-12/25\n", "")
    assert run_cli(capsys, "det", path, "--at", "-1") == (
        3, "", "error: q = -1 is outside the admissible domain\n"
    )


def test_k11_at_one_passes_all_gates(capsys, k11):
    for command in ("det", "xi", "lambda", "vectors", "inverse"):
        code, _, err = run_cli(capsys, command, k11, "--at", "1")
        assert code == 0, (command, err)


def test_lambda_text(capsys, k11):
    code, out, _ = run_cli(capsys, "lambda", k11)
    assert code == 0 and out == "(1)/(1 + q)\n"


def test_lambda_refused_at_c1_violation(capsys, k22):
    code, _, err = run_cli(capsys, "lambda", k22, "--at", "1")
    assert code == 3 and "C1" in err


def test_vectors_text(capsys, k11):
    code, out, _ = run_cli(capsys, "vectors", k11)
    assert code == 0
    assert out.splitlines() == [
        "x[0] = (1)/(1 + q)",
        "x[1] = (1)/(1 + q)",
        "y[0] = 0",
        "y[1] = 0",
    ]


def test_inverse_text(capsys, k11):
    code, out, _ = run_cli(capsys, "inverse", k11)
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t0"]


def test_inverse_refused_at_c2_violation(capsys, k22):
    # K_{2,2} at q = 1 violates C1 and C2; inverse refuses it for C1 alone
    code, _, err = run_cli(capsys, "inverse", k22, "--at", "1")
    assert code == 3 and "C1" in err and "C2" not in err


def test_inverse_at_value(capsys, k11):
    code, out, _ = run_cli(capsys, "inverse", k11, "--at", "2")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t0"]


def test_inverse_at_singular_point_without_block_violation(capsys, tmp_path):
    # random_059 of the default corpus: at q = -5/3 no block violates C1 or C2,
    # but the balance constant and the determinant are zero
    path = write_graph(tmp_path, "random_059.json", [BlockSpec(1, 2), BlockSpec(2, 2, Attachment(0, "Y"))])
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "inverse", path, "--at=-5/3", "--format", fmt)
        assert code == 3 and out == "" and err.startswith("error:"), (fmt, out, err)
    code, out, _ = run_cli(capsys, "det", path, "--at=-5/3")
    assert code == 0 and out == "0\n"


def test_c2_is_a_per_block_condition(capsys, tmp_path):
    # at q = 1/2 the determinant core of K_{2,9} vanishes, (3/2)^2 * 8 = 18,
    # but K_{1,1}'s term of the product rule does not: det and the inverse exist
    specs = [BlockSpec(2, 9), BlockSpec(1, 1, Attachment(0, "X"))]
    path = write_graph(tmp_path, "k29_k11.json", specs)
    code, out, err = run_cli(capsys, "det", path, "--at", "1/2")
    assert code == 0 and out == "59049/1024\n" and "C2" in err
    g = build(specs)
    q0 = Fraction(1, 2)
    assert [v.condition for v in check_conditions(g, q0).violations] == ["C2"]
    assert oracle.oracle_det(g).eval_at(q0) == Fraction(59049, 1024)
    expected = [[e.eval_at(q0) for e in row] for row in oracle.oracle_inverse(g).rows]
    assert inverse_at(g, q0) == expected
    # the inverse command refuses only C1: here it warns and prints
    code, out, err = run_cli(capsys, "inverse", path, "--at", "1/2")
    assert code == 0 and "C2" in err
    assert [line.split("\t") for line in out.splitlines()] == [[str(v) for v in row] for row in expected]
    # K_{2,2} at q = -3 violates only C2, (-2)^2 * 1 = 4, and there the
    # balance constant vanishes, Lambda(-3) = 0 with delta(-3) = -16: a pole
    k22 = write_graph(tmp_path, "k22.json", [BlockSpec(2, 2)])
    assert [v.condition for v in check_conditions(build([BlockSpec(2, 2)]), -3).violations] == ["C2"]
    code, out, err = run_cli(capsys, "inverse", k22, "--at=-3")
    assert code == 3 and out == "" and "balance constant vanishes" in err


def test_at_accepts_only_ascii_rational_literals(capsys, p3):
    for at in ("1_0", "\u0663", "3/\u0664", "1.5"):
        code, out, err = run_cli(capsys, "det", p3, "--at", at)
        assert code == 2 and out == "" and err.startswith("error:"), (at, out, err)
    # det = 2 + 2q
    for at, same in ((" 2 ", "2"), ("+3", "3"), ("3/-4", "-3/4"), ("-0", "0")):
        for fmt in ("text", "json"):
            got = run_cli(capsys, "det", p3, f"--at={at}", "--format", fmt)
            assert got == run_cli(capsys, "det", p3, f"--at={same}", "--format", fmt), (at, fmt)
    assert run_cli(capsys, "det", p3, "--at", "3/-4")[:2] == (0, "1/2\n")


def test_input_errors(capsys, tmp_path, k11):
    code, _, err = run_cli(capsys, "det", str(tmp_path / "missing.json"))
    assert code == 2 and "missing.json" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "det", str(bad))
    assert code == 2
    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text('{"blocks": [{"m": 0, "n": 1}]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "det", str(schema_bad))
    assert code == 2
    for boolean_field in (
        '{"blocks": [{"m": true, "n": 2}]}',
        '{"blocks": [{"m": 1, "n": 1}, {"m": 1, "n": 1, "attach": {"vertex": true, "side": "X"}}]}',
    ):
        schema_bad.write_text(boolean_field, encoding="utf-8")
        code, out, err = run_cli(capsys, "det", str(schema_bad))
        assert code == 2 and out == "" and err.startswith("error:"), (boolean_field, out, err)
    code, _, err = run_cli(capsys, "det", k11, "--at", "0.5")
    assert code == 2
    # past the vertex cap: refused while parsing, before any graph is allocated
    for oversized in (
        '{"blocks": [{"m": 1000000, "n": 1}]}',
        '{"blocks": [{"m": 2500, "n": 2500}, {"m": 1, "n": 2, "attach": {"vertex": 0, "side": "X"}}]}',
    ):
        schema_bad.write_text(oversized, encoding="utf-8")
        code, out, err = run_cli(capsys, "det", str(schema_bad))
        assert code == 2 and out == "" and "5000" in err, (oversized, out, err)
    for gen_argv in (
        ("--kind", "tree", "--n", "5001"),
        ("--kind", "random", "--blocks", "715", "--part-max", "4"),
    ):
        code, out, err = run_cli(capsys, "gen", *gen_argv)
        assert code == 2 and out == "" and err.startswith("error:"), (gen_argv, out, err)
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--jobs", jobs)
        assert code == 2 and out == "" and err.startswith("error:"), (jobs, out, err)
    # bytes that are not UTF-8, and JSON nested past the interpreter's recursion limit
    for hostile in (b'{"blocks": [{"m": 1, "n": 1}], "name": "\xff"}', b"[" * 100000):
        schema_bad.write_bytes(hostile)
        for argv in (("det", str(schema_bad)), ("verify", "--corpus", str(schema_bad))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:"), (argv, out, err)
            assert err.count("\n") == 1 and "schema.json" in err, err


def test_integer_literals_past_the_digit_cap_exit_2(capsys, tmp_path, k11):
    huge = "1" * (cli.MAX_DIGITS + 700)
    graph = tmp_path / "huge.json"
    graph.write_text('{"blocks": [{"m": %s, "n": 1}]}' % huge, encoding="utf-8")
    for argv in (
        ("det", str(graph)),
        ("verify", "--corpus", str(graph)),
        ("det", k11, "--at", huge),
        ("xi", k11, f"--at=-1/{huge}", "--format", "json"),
        ("inverse", k11, "--at", f"{huge}/3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), (argv[0], out, err)
        assert err.count("\n") == 1 and str(cli.MAX_DIGITS) in err, err
    code, out, _ = run_cli(capsys, "det", k11, "--at", "1" * cli.MAX_DIGITS)
    assert code == 0 and out == "-1\n"


def test_exact_values_past_the_int_str_digit_limit_are_printed(capsys, tmp_path):
    # on a 250-vertex path at q = 10^-20, det is -249 (1 + q)^248: the
    # reduced denominator is 10^4960
    path = write_graph(tmp_path, "p250.json", path_tree(250))
    at = "1/1" + "0" * 20
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for command, exponent in (("det", 4960), ("xi", 4980)):
        code, text, err = run_cli(capsys, command, path, "--at", at)
        assert code == 0 and err == "", err
        num, den = text.rstrip("\n").split("/")
        assert den == "1" + "0" * exponent and len(num) > cli.MAX_DIGITS
        code, out, _ = run_cli(capsys, command, path, "--at", at, "--format", "json")
        assert code == 0 and json.loads(out)["value"] == [num, den]
    # the digit limit of the calling process is left as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_handlers_are_looked_up_when_called(capsys, monkeypatch, k11):
    assert run_cli(capsys, "det", k11)[:2] == (0, "-1\n")
    seen = []
    monkeypatch.setattr(cli, "cmd_det", lambda args: seen.append(args.graph) or 0)
    assert run_cli(capsys, "det", k11) == (0, "", "") and seen == [k11]
    assert cli._parser() is cli._parser()


def test_gen_tree(capsys):
    code, out, _ = run_cli(capsys, "gen", "--kind", "tree", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["blocks"]) == 3
    assert all(b["m"] == 1 and b["n"] == 1 for b in payload["blocks"])


def test_gen_random_is_reproducible(capsys):
    code, first, _ = run_cli(capsys, "gen", "--kind", "random", "--blocks", "3", "--part-max", "4", "--seed", "9")
    assert code == 0
    code, second, _ = run_cli(capsys, "gen", "--kind", "random", "--blocks", "3", "--part-max", "4", "--seed", "9")
    assert first == second


def test_gen_parameter_errors(capsys):
    code, _, _ = run_cli(capsys, "gen", "--kind", "tree", "--n", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "gen", "--kind", "random", "--blocks", "0", "--part-max", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "gen", "--kind", "random", "--blocks", "2")
    assert code == 2


def test_gen_pipes_into_det(checkout_env):
    command = (
        f"{PYTHON} -m qbiblock.cli gen --kind tree --n 4 | "
        f"{PYTHON} -m qbiblock.cli det -"
    )
    result = subprocess.run(
        command,
        shell=True,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=checkout_env,
    )
    assert result.returncode == 0, (command, result.stderr)
    assert result.stdout == "-3 - 6q - 3q^2\n"


def test_console_reads_a_negative_fraction_after_at(checkout_env):
    command = (
        f"{PYTHON} -m qbiblock.cli gen --kind tree --n 4 | "
        f"{PYTHON} -m qbiblock.cli det - --at -3/5"
    )
    result = subprocess.run(
        command, shell=True, capture_output=True, text=True, cwd=REPO_ROOT, env=checkout_env
    )
    assert (result.returncode, result.stdout) == (0, "-12/25\n"), (command, result.stderr)


def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path, checkout_env):
    # the inverse of a 300-vertex path runs far past a pipe's buffer
    graph = write_graph(tmp_path, "p300.json", path_tree(300))
    command = [sys.executable, "-m", "qbiblock.cli", "inverse", graph, "--at", "2/7"]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO_ROOT, env=checkout_env
    ) as child:
        assert child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        assert (child.wait(timeout=60), stderr) == (141, b"")


def test_inverse_json_of_one_dense_block_is_written_row_by_row(tmp_path, checkout_env):
    # K_{1000,1000}'s inverse at 2/7 has 4 distinct values among its 10^6
    # entries; written row by row, the child's peak stays far below the 84 MB
    # that it prints (460 MiB when the whole output was one string)
    pytest.importorskip("resource")
    graph = write_graph(tmp_path, "k1000.json", [BlockSpec(1000, 1000)])
    child_code = (
        "import resource, sys; from qbiblock.cli import main; code = main(sys.argv[1:]); "
        "sys.stdout.flush(); print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
        "sys.exit(code)"
    )
    command = [sys.executable, "-c", child_code, "inverse", graph, "--at", "2/7", "--format", "json"]
    digest, size = hashlib.sha256(), 0
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO_ROOT, env=checkout_env
    ) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
        stderr = child.stderr.read()
        assert child.wait(timeout=120) == 0, stderr
    # ru_maxrss counts KiB on Linux and bytes on macOS
    peak = int(stderr) * (1 if sys.platform == "darwin" else 1024)
    assert peak < 200 * 2**20, peak
    assert size == 84_008_074
    assert digest.hexdigest() == "4d2e73f2b84efec764a58b9e9826c324797ecae22e99cda5ada2df3f3a06252f"


def test_graph_input_past_the_byte_cap_exits_2(capsys, monkeypatch, tmp_path):
    cap = cli.MAX_GRAPH_BYTES
    k11 = json.dumps(graph_to_json([BlockSpec(1, 1)])).encode("utf-8")
    # whitespace is valid JSON padding: at the cap the graph loads, one byte past it does not
    for size in (cap, cap + 1):
        padded = k11 + b" " * (size - len(k11))
        path = tmp_path / f"padded{size}.json"
        path.write_bytes(padded)
        for source in (str(path), "-"):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(padded), encoding="utf-8"))
            refused = (2, "", f"error: {source}: larger than the cap of {cap} bytes\n")
            assert run_cli(capsys, "det", source) == ((0, "-1\n", "") if size == cap else refused)


def test_a_closed_stdout_exits_141_in_process(capsys, monkeypatch, p3):
    # capsys's stdout has no file descriptor to point at devnull
    def closed(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_det", closed)
    assert run_cli(capsys, "det", p3) == (141, "", "")


def test_gen_det_json_pipe_is_byte_stable(checkout_env):
    command = (
        f"{PYTHON} -m qbiblock.cli gen --kind random --blocks 3 --part-max 4 --seed 9 | "
        f"{PYTHON} -m qbiblock.cli det - --format json"
    )
    runs = [
        subprocess.run(
            command, shell=True, capture_output=True, cwd=REPO_ROOT, env=checkout_env
        )
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs), (command, [r.stderr for r in runs])
    assert runs[0].stdout == runs[1].stdout


def _classical_det(table):
    # independent integer-arithmetic determinant of the plain distance matrix
    from fractions import Fraction

    n = len(table)
    work = [[Fraction(v) for v in row] for row in table]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            if work[i][k]:
                f = work[i][k] / work[k][k]
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return det


def _classical_inverse(table):
    from fractions import Fraction

    n = len(table)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(table)]
    for k in range(n):
        piv = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        pivot = aug[k][k]
        aug[k] = [v / pivot for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def test_values_at_one_match_classical_distance_matrix(capsys, tmp_path):
    from fractions import Fraction

    from qbiblock.graph import Attachment, build, distances

    cases = [
        ("k11", [BlockSpec(1, 1)]),
        ("p4", path_tree(4)),
        ("k23", [BlockSpec(2, 3)]),
        ("mixed", [BlockSpec(2, 3), BlockSpec(1, 2, Attachment(0, "X"))]),
    ]
    for name, specs in cases:
        g = build(specs)
        table = distances(g)
        path = write_graph(tmp_path, f"{name}.json", specs)

        code, out, _ = run_cli(capsys, "det", path, "--at", "1")
        assert code == 0
        assert out.strip() == str(_classical_det(table))

        code, out, _ = run_cli(capsys, "inverse", path, "--at", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        got = [
            [Fraction(int(num), int(den)) for num, den in row] for row in payload["value"]
        ]
        assert got == _classical_inverse(table)


def test_verify_file_corpus(capsys, k11, p3):
    code, out, _ = run_cli(capsys, "verify", "--corpus", k11, p3)
    assert code == 0
    assert "all pass" in out
    assert "ms" in out  # timing column in the human format


def test_verify_json_stream(capsys, k11, p3):
    code, out, _ = run_cli(capsys, "verify", "--corpus", k11, p3, "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    reports = [json.loads(line) for line in lines]
    assert all(r["schema"] == 1 for r in reports)
    assert "summary" in reports[-1]
    assert reports[-1]["summary"]["failures"] == 0
    assert all(c["pass"] for c in reports[0]["checks"])


def test_verify_json_stream_is_byte_identical_across_runs_and_jobs(capsys, k11, k22, p3):
    outs = []
    for jobs in ("1", "2", "2"):
        code, out, _ = run_cli(capsys, "verify", "--corpus", k11, k22, p3, "--json", "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_verify_bad_corpus_file_names_the_file(capsys, tmp_path, k11):
    bad = tmp_path / "broken.json"
    bad.write_text("[]", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", "--corpus", k11, str(bad))
    assert code == 2
    assert "broken.json" in err


def test_verify_corpus_file_that_parses_but_does_not_build_exits_2(capsys, tmp_path, k11):
    for name, blocks in (
        ("unknown_vertex.json", [{"m": 1, "n": 1}, {"m": 1, "n": 2, "attach": {"vertex": 9, "side": "X"}}]),
        ("empty_part.json", [{"m": 0, "n": 2}]),
        ("attached_first.json", [{"m": 1, "n": 1, "attach": {"vertex": 0, "side": "X"}}]),
    ):
        path = tmp_path / name
        path.write_text(json.dumps({"blocks": blocks}), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--corpus", k11, str(path))
        assert code == 2 and out == "" and err.startswith("error:") and name in err, (name, err)


def test_verify_refuses_a_graph_above_the_vertex_cap_before_any_check(capsys, monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(cli, "verify_corpus", lambda corpus, jobs: seen.append(corpus) or [])
    big = write_graph(tmp_path, "path129.json", path_tree(129))
    code, out, err = run_cli(capsys, "verify", "--corpus", big)
    assert code == 2 and out == "" and seen == []
    assert err.startswith("error:") and "path129.json" in err and "n = 129" in err and "128" in err
    at_cap = write_graph(tmp_path, "path128.json", path_tree(128))
    code, _, _ = run_cli(capsys, "verify", "--corpus", at_cap)
    assert code == 0 and [name for name, _ in seen[0]] == [at_cap]


def test_verify_corpus_needs_at_least_one_file(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "verify_corpus", lambda corpus, jobs: seen.append(corpus) or [])
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--corpus"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and seen == []
    assert "--corpus" in captured.err
    # leaving --corpus out and --corpus default both mean the default corpus
    for argv in (["verify"], ["verify", "--corpus", "default"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert [len(corpus) for corpus in seen] == [172, 172]


# sha256 of the stdout of `verify --seed 7 --json`: the default corpus's report
# stream, which every change to the closed forms or the checks must keep
VERIFY_SEED_7_SHA256 = "551f0318729233e5cfa790edd198bc19bffdf9f8aaecaf39f3decd49f3cedd6c"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_seed_7_json_stdout_is_pinned(capsys, jobs):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--json", "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_SEED_7_SHA256


# sha256 of [exit code, stdout, stderr] of the formula commands on the
# formulas_large benchmark graphs (big299, big303 for the scalar commands and
# vectors, dense87, tree180 for inverse) and on K_{2,2} at q = 1, where det
# warns and inverse refuses.  Keyed "command graph format at".
FORMULA_SHA256 = {
    "det big299 json -": "890274fc4892df73be5c62dbb8385a20b758154743ff322d83e3e67eb98f922c",
    "det big299 json 2/7": "d3130871a0d4a64339fea3466a153e99499e02833791dce05b1bfa34d76f205d",
    "det big299 text -": "05caad944459383f48909f3fba2c61175f3ab86460cfdd9b3c7c83939d7737f6",
    "det big299 text 2/7": "2f43ac47daad5c6f24b87427ab6c6eceab7ba89ee77b4bd4e63af4c0f06df7ca",
    "det big303 json -": "1ff6d2e5f5c42a4b29d131a693d49ffe575ca43283b24c119144051ef478f2ad",
    "det big303 json 2/7": "e8ddbfbf7b624c3e640459352debefb8e616e272803eb7a17a62cd172697e7bb",
    "det big303 text -": "6ee8edbf58758d3482626a84728c7cafd63c877a5672604979fa0d0d72fb63d9",
    "det big303 text 2/7": "79019146889fecb17b5d16c21a14d9478109a956b9d0c0050376a80a1bd71fd5",
    "det k22 json 1": "87183921c50c811fdb027ba3c36fd7b06466853c6f6b93f89fae7c266bdcaf72",
    "det k22 text 1": "1b105632f697b8c6634d910278ec6d6e73c099874b2f1158724fbe44501b1341",
    "inverse dense87 json -": "e2e402c464d499553cf85e00787268eb81646f395f4138be54d5ac69de50be4e",
    "inverse dense87 json 2/7": "d7cd1cf0612679253cc79b9d645050bfde4da2c287acd5b2bd3fda9f2ad12903",
    "inverse dense87 text -": "634707cb22dce313940f58199737716afb956002555f590de39c33004339aa86",
    "inverse dense87 text 2/7": "f7bd06ee5adc021352855e829bc65ea4d4616f7d49d212e82644252436e9cda2",
    "inverse k22 json 1": "3183113bcb5da2db7e2769cf08285ab98450d4008da72ca48fa8a17d4d509139",
    "inverse k22 text 1": "3183113bcb5da2db7e2769cf08285ab98450d4008da72ca48fa8a17d4d509139",
    "inverse tree180 json -": "5f0c84814a227bfb6dc97947b2150710e3150da974556ec00ae55549d33c27b9",
    "inverse tree180 json 2/7": "79193c90e90c4770fb2a38d25f0dff6c4bea72c146fed1ae9b62dbdcc0fdef51",
    "inverse tree180 text -": "e05df90140ba1e8f542eb2cf508e206c48e5578343fb39d15d05a8286a1a5d66",
    "inverse tree180 text 2/7": "186a4e28b7cdd76b7a8db0022c9d897700c08311f834bd7485186be90991136b",
    "lambda big299 json -": "322b1d806ca8dc2d12018fca96b1290c77f9b872b915dca3a73d78d7112a7039",
    "lambda big299 json 2/7": "5466f9c4f49a18f760948b6b80080962c912a5a3881c2ac5fb37313e538e09a2",
    "lambda big299 text -": "8ef72d82d9c436130d997b97789f683107f034000ec2019b9676adee05f11f47",
    "lambda big299 text 2/7": "df685e579692859adbbcd70d68b1c16aea78d8fd29c63a154ca84b881ae2f8a8",
    "lambda big303 json -": "19a6dcaaabd3638f5d159e191bb4641653eaf4c666ad54e081cde3de2f4c2819",
    "lambda big303 json 2/7": "63de837657384a22361f16ec0c7e421c695739fd504ace394d38ae398c72dfc8",
    "lambda big303 text -": "944dc13e5b61263c4979f836ca6df16328c5d710d18e106083bb786637719aac",
    "lambda big303 text 2/7": "d5476956aefa91fa6157e54c79389efe23f8df3c84bec16b5cdbc9542ec773f5",
    "vectors big299 json -": "65e50707dcd8faef660d8fae5b4f9d55ccb851083e9e194c9129b1d7c4a2aff6",
    "vectors big299 json 2/7": "40382d3e66efe0f86d19b9eb6ccf96697392b0c18c8b42195d222a1913605b46",
    "vectors big299 text -": "539094c481e9e2aa3345ffef6d6043844d7d4a330efc96c48b07d8dd76b679a7",
    "vectors big299 text 2/7": "e58dd58e0df1438afda93fb2a260fc29fb323abe3421934df6266b4a1dee6cd5",
    "vectors big303 json -": "104ae68318ada6fe655429987dd96b6f0eedbcaf5f131fff0f869bb364ac0483",
    "vectors big303 json 2/7": "a8aeeca32c2ccc6fafe9658d94cc77c4b7d0ef6a4d3f1c555923aa5889630345",
    "vectors big303 text -": "f1bb7cbd8b9e7972ef5ea609e00d209198548638f6a2c309efba6774979d8452",
    "vectors big303 text 2/7": "db370ac572a8137559a7b7b6b94bb74044258a84e1688f49f7ec43411a40e10b",
    "xi big299 json -": "fcb4234e4481086b3e0934ce08d3dddf7d6aa3a4f624b7115c5e219fc26bd824",
    "xi big299 json 2/7": "8ae2d32c4c90d3445b7bed86d695836608570e7cc48e847545aecdefcbbcccbf",
    "xi big299 text -": "2162a1ea3677f58197c7914b664a3db7bd9b79e79058249929e68ded85769d29",
    "xi big299 text 2/7": "d740c8e7d7d264e84b2eb533d6888f16beabf3f5fceabd91e84273312406005b",
    "xi big303 json -": "54aec9249c846d2cbf48968fcfe193ba6331ba95a02ee3d102fd1cda376d8355",
    "xi big303 json 2/7": "31420f8a03017258dac18ae101bea462935aaae3936b1c1fa1678ea693c2a6a9",
    "xi big303 text -": "ed9efbb149060637b08e208460643ff74312257bb5a73523f68279036aa10a45",
    "xi big303 text 2/7": "90162a2571a6ed93d14a95a6dd2d75c61ff4178b15e83ab8bb75debe86b3cb9c",
}


@pytest.fixture(scope="module")
def formula_graphs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("formulas")
    names = ("big299", "big303", "dense87", "tree180")
    paths = {
        name: write_graph(directory, f"{name}.json", g.specs)
        for name, g in zip(names, formulas_large_graphs())
    }
    paths["k22"] = write_graph(directory, "k22.json", [BlockSpec(2, 2)])
    return paths


def formula_digest(capsys, paths, key: str) -> str:
    command, graph, fmt, at = key.split()
    argv = [command, paths[graph], "--format", fmt] + ([] if at == "-" else ["--at", at])
    result = run_cli(capsys, *argv)
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(FORMULA_SHA256))
def test_formula_outputs_are_pinned(capsys, formula_graphs, key):
    assert formula_digest(capsys, formula_graphs, key) == FORMULA_SHA256[key]


def test_formula_commands_render_each_value_once(capsys, monkeypatch, formula_graphs):
    from qbiblock.exactring import Polynomial, RationalFunction

    counts = {}
    for cls in (Polynomial, RationalFunction):
        for method in ("to_json", "__str__"):
            def counted(self, _original=getattr(cls, method), _key=(cls.__name__, method)):
                counts[_key] = counts.get(_key, 0) + 1
                return _original(self)

            monkeypatch.setattr(cls, method, counted)

    def renders(*argv):
        counts.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        return counts.copy()

    # big299's closed forms have 38 distinct x and 36 distinct y values, each
    # one object; a RationalFunction renders its two Polynomials through
    # their own methods
    path = formula_graphs["big299"]
    for command, distinct in (("vectors", 74), ("lambda", 1)):
        assert renders(command, path, "--format", "json")[("RationalFunction", "to_json")] == distinct
        assert renders(command, path)[("RationalFunction", "__str__")] == distinct
    for command in ("det", "xi"):
        assert renders(command, path, "--format", "json") == {("Polynomial", "to_json"): 1}
        assert renders(command, path) == {("Polynomial", "__str__"): 1}

    # dense87's inverse shares 266 distinct entry objects among its 87^2 entries
    g, path = formulas_large_graphs()[2], formula_graphs["dense87"]
    distinct = len({id(e) for row in graph_inverse(g).rows for e in row})
    assert distinct == 266
    assert renders("inverse", path, "--format", "json")[("RationalFunction", "to_json")] == distinct
    assert renders("inverse", path)[("RationalFunction", "__str__")] == distinct
    rationals = []
    original = cli.rational_to_json
    monkeypatch.setattr(cli, "rational_to_json", lambda v: rationals.append(v) or original(v))
    assert renders("inverse", path, "--at", "2/7", "--format", "json") == {}
    # one call renders the "at" field, the others one distinct entry each
    distinct = len({id(e) for row in inverse_at(g, Fraction(2, 7)) for e in row})
    assert len(rationals) - 1 == distinct


def test_verify_failure_exit_code(capsys, monkeypatch, k11):
    def fake_verify(specs, name):
        return VerificationReport(
            name, tuple(specs), 2, (CheckResult("det_vs_oracle", False, "entry (0,0): 1 != 2"),)
        )

    monkeypatch.setattr(oracle, "verify_graph", fake_verify)
    code, out, _ = run_cli(capsys, "verify", "--corpus", k11)
    assert code == 1
    assert "FAIL" in out
