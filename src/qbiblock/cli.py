"""Command-line front end.

Subcommands
-----------
det / xi / lambda / vectors / inverse
    Closed forms of a graph given as a JSON file (or - for stdin), printed
    symbolically, or evaluated exactly at a rational q via --at.  All five
    run through one driver, which takes each field as a (values, index) form,
    renders each distinct value once and writes each row as it lays it out.
    With --at, lambda, vectors and inverse refuse a point that violates C1;
    every other condition violation is printed as a warning (text) or listed
    under "violations" (JSON), and a pole of the value still exits 3.

verify
    Run the oracle-backed identity checks over the default corpus or over
    graph files of at most MAX_VERIFY_VERTICES vertices; exit 1 on a failure.

gen
    Emit a graph JSON (tree chain or seeded random bi-block graph) to stdout.

Exit codes: 0 success, 1 verification failure, 2 input error, 3
evaluation-domain error (q = -1, a refused condition violation, or a pole),
141 (128 + SIGPIPE) when the reader closes stdout early.
Rational literals are integers or fractions like 3/2; no decimal floats.
Integer literals in graph files and in --at have at most MAX_DIGITS digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .closedform import (
    ClearedForms,
    _inverse_form,
    _inverse_form_at,
    _shared_rfs,
    balance_constant,
    check_conditions,
    graph_cofactor,
    graph_det,
    values_at,
)
from .exactring import PoleError, parse_rational, rational_to_json
from .graph import (
    MAX_VERTICES,
    GraphError,
    build,
    graph_to_json,
    path_tree,
    random_biblock,
    specs_from_json,
)
from .oracle import default_corpus, verify_corpus

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

SCHEMA_VERSION = 1

# Longest integer literal accepted in a graph file or in --at: CPython's
# default int/str conversion limit, which main lifts for the exact output.
MAX_DIGITS = 4300

# Most bytes read from a graph file or stdin; a 5,000-vertex file is about 0.3 MB.
MAX_GRAPH_BYTES = 16 * 2**20

# Most vertices verify takes in a file.  It bounds memory, not time.  The
# oracle differences each row against its twin's, else against its parent's
# and grandparent's, so neither a dense block nor a path is a slow case:
# verify_graph takes 1.8 s on K_{64,64} and 9 s on path_tree(128), both at
# n = 128 (2 cores, Python 3.11).  The oracle's rows store each q^m as m
# zeros and a 1 (5.4 MiB at n = 200, rooted at its middle).
MAX_VERIFY_VERTICES = 128


class _InputError(Exception):
    pass


class _DomainError(Exception):
    pass


def _build_graph(path: str):
    try:
        if path == "-":
            raw = sys.stdin.buffer.read(MAX_GRAPH_BYTES + 1)
        else:
            with open(path, "rb") as handle:
                raw = handle.read(MAX_GRAPH_BYTES + 1)
        if len(raw) > MAX_GRAPH_BYTES:
            raise _InputError(f"{path}: larger than the cap of {MAX_GRAPH_BYTES} bytes")
        raw = raw.decode("utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read graph file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text: {exc}") from exc

    def bounded_int(literal: str) -> int:
        digits = len(literal.lstrip("-"))
        if digits > MAX_DIGITS:
            raise _InputError(f"{path}: an integer literal of {digits} digits; at most {MAX_DIGITS}")
        return int(literal)

    try:
        obj = json.loads(raw, parse_int=bounded_int)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise _InputError(f"{path}: JSON nested too deeply") from None
    try:
        return build(specs_from_json(obj))
    except GraphError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _parse_at(text: str):
    if any(len(part.strip().lstrip("+-")) > MAX_DIGITS for part in text.split("/")):
        raise _InputError(f"--at accepts at most {MAX_DIGITS} digits above and below the bar")
    try:
        q0 = parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"--at expects an exact rational like 2 or -3/5: {exc}") from exc
    if q0 == -1:
        raise _DomainError("q = -1 is outside the admissible domain")
    return q0


_to_json = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _scalar_text(fields):
    return next(fields["value"])


def _vectors_text(fields):
    return (f"{k}[{i}] = {s}" for k, (row,) in fields.items() for i, s in enumerate(row))


def _inverse_text(fields):
    return map("\t".join, fields["value"])


def _formula_command(args, symbolic, at, *, refuse: tuple[str, ...], depth: int, text) -> int:
    """Print symbolic(g), or at(g, q0) for --at: a dict of field name to a
    (values, index) form, index a list of rows.  Each distinct value is rendered
    once, and each row is written as it is laid out.  With --at, a violation of a
    condition in refuse exits 3.  JSON writes each field depth deep (0 a value, 1 a
    row, 2 rows) over its null in the payload; text(fields) gives the text lines."""
    g = _build_graph(args.graph)
    payload = {"schema": SCHEMA_VERSION, "command": args.command}
    violations = ()
    if args.at is None:
        fields = symbolic(g)
        to_json = lambda e: _to_json(e.to_json())
    else:
        q0 = _parse_at(args.at)
        violations = check_conditions(g, q0).violations
        refused = [v for v in violations if v.condition in refuse]
        if refused:
            details = "; ".join(f"block {v.block} {v.condition}: {v.witness}" for v in refused)
            raise _DomainError(f"q = {q0} violates admissibility conditions ({details})")
        fields = at(g, q0)
        to_json = lambda v: _to_json(rational_to_json(v))
        payload.update(at=rational_to_json(q0), violations=[vars(v) for v in violations])
    as_json = args.format == "json"
    rows = {}
    for name, (values, index) in fields.items():
        rendered = list(map(to_json if as_json else str, values))
        rows[name] = map(functools.partial(map, rendered.__getitem__), index)
    if not as_json:
        for v in violations:
            print(f"warning: block {v.block} violates {v.condition}: {v.witness}", file=sys.stderr)
        sys.stdout.writelines(f"{line}\n" for line in text(rows))
        return EXIT_OK
    tail = _to_json({**payload, **dict.fromkeys(rows)})
    for name in sorted(rows):
        head, tail = tail.split(f'"{name}":null', 1)
        sys.stdout.write(f'{head}"{name}":' + "[" * depth)
        sys.stdout.writelines(("],[" if i else "") + ",".join(row) for i, row in enumerate(rows[name]))
        sys.stdout.write("]" * depth)
    print(tail)
    return EXIT_OK


def _scalar(value) -> dict:
    return {"value": ([value], [[0]])}


def cmd_det(args) -> int:
    at = lambda g, q0: _scalar(ClearedForms(g).det_at(q0))
    symbolic = lambda g: _scalar(graph_det(g))
    return _formula_command(args, symbolic, at, refuse=(), depth=0, text=_scalar_text)


def cmd_xi(args) -> int:
    at = lambda g, q0: _scalar(ClearedForms(g).cofactor_at(q0))
    symbolic = lambda g: _scalar(graph_cofactor(g))
    return _formula_command(args, symbolic, at, refuse=(), depth=0, text=_scalar_text)


def _lambda_at(g, q0):
    forms = ClearedForms(g)
    return _scalar(*values_at([forms.lam], forms.delta, q0))


def cmd_lambda(args) -> int:
    symbolic = lambda g: _scalar(balance_constant(g))
    return _formula_command(args, symbolic, _lambda_at, refuse=("C1",), depth=0, text=_scalar_text)


def _vectors(g, wrap) -> dict:
    """x over delta and y over P, their values mapped by wrap(values, den)."""
    forms = ClearedForms(g)
    (x, x_index), (y, y_index) = forms.x, forms.y
    return {"x": (wrap(x, forms.delta), [x_index]), "y": (wrap(y, forms.product), [y_index])}


def cmd_vectors(args) -> int:
    at = lambda g, q0: _vectors(g, lambda values, den: values_at(values, den, q0))
    symbolic = lambda g: _vectors(g, _shared_rfs)
    return _formula_command(args, symbolic, at, refuse=("C1",), depth=1, text=_vectors_text)


def cmd_inverse(args) -> int:
    at = lambda g, q0: {"value": _inverse_form_at(g, q0)}
    symbolic = lambda g: {"value": _inverse_form(g)}
    return _formula_command(args, symbolic, at, refuse=("C1",), depth=2, text=_inverse_text)


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise _InputError("verify --jobs needs at least 1")
    if args.corpus == ["default"]:
        corpus = default_corpus(args.seed)
    else:
        # each file is built here: one that does not build, or is above the cap, exits 2
        graphs = [(path, _build_graph(path)) for path in args.corpus]
        for path, g in graphs:
            if g.n > MAX_VERIFY_VERTICES:
                raise _InputError(f"{path}: n = {g.n}, above verify's cap of {MAX_VERIFY_VERTICES}")
        corpus = [(path, g.specs) for path, g in graphs]

    results = verify_corpus(corpus, args.jobs)

    total_checks = sum(len(r.checks) for r, _ in results)
    failures = [
        (r.name, c) for r, _ in results for c in r.checks if not c.passed
    ]
    if args.json:
        for report, _ in results:
            payload = report.to_json()
            payload["schema"] = SCHEMA_VERSION
            print(_to_json(payload))
        summary = {
            "graphs": len(results),
            "checks": total_checks,
            "failures": len(failures),
            "seed": args.seed,
        }
        print(_to_json({"schema": SCHEMA_VERSION, "summary": summary}))
    else:
        for report, elapsed_ms in results:
            status = "ok" if report.passed else "FAIL"
            print(f"{report.name:<16} n={report.vertex_count:<3} {status:<4} {elapsed_ms:8.1f} ms")
        if failures:
            for name, check in failures:
                print(f"FAIL {name} {check.name}: {check.witness}")
            print(f"{len(results)} graphs, {total_checks} identity checks, {len(failures)} FAILED")
        else:
            print(f"{len(results)} graphs, {total_checks} identity checks, all pass")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def cmd_gen(args) -> int:
    if args.kind == "tree":
        if args.n is None or args.n < 2:
            raise _InputError("gen --kind tree needs --n of at least 2")
        if args.n > MAX_VERTICES:
            raise _InputError(f"gen --kind tree: --n exceeds {MAX_VERTICES} vertices")
        specs = path_tree(args.n)
    else:
        if args.blocks is None or args.blocks < 1:
            raise _InputError("gen --kind random needs --blocks of at least 1")
        if args.part_max is None or args.part_max < 1:
            raise _InputError("gen --kind random needs --part-max of at least 1")
        if 1 + args.blocks * (2 * args.part_max - 1) > MAX_VERTICES:
            raise _InputError(
                f"gen --kind random: --blocks and --part-max allow more than {MAX_VERTICES} vertices"
            )
        specs = random_biblock(args.seed, args.blocks, args.part_max)
    print(_to_json(graph_to_json(specs)))
    return EXIT_OK


def _add_formula_parser(sub, name: str, help_text: str):
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("graph", help="graph JSON file, or - for stdin")
    parser.add_argument("--at", metavar="RATIONAL", help="evaluate exactly at q = p or p/q")
    parser.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbiblock",
        description="Exact q-distance matrices of bi-block graphs: closed forms and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_formula_parser(sub, "det", "determinant of the q-distance matrix")
    _add_formula_parser(sub, "xi", "reduced cofactor of the q-distance matrix")
    _add_formula_parser(sub, "lambda", "the balance constant")
    _add_formula_parser(sub, "vectors", "the balance and diagonal-weight vectors")
    _add_formula_parser(sub, "inverse", "inverse of the q-distance matrix")

    verify = sub.add_parser("verify", help="run the identity checks over a corpus")
    verify.add_argument(
        "--corpus",
        nargs="+",
        default=["default"],
        help="'default' or one or more graph JSON files",
    )
    verify.add_argument("--seed", type=int, default=7, help="seed for the default corpus")
    verify.add_argument("--json", action="store_true", help="emit a JSON report stream")
    verify.add_argument(
        "--jobs", type=int, default=1, help="worker processes (report order is fixed)"
    )

    gen = sub.add_parser("gen", help="emit a graph JSON to stdout")
    gen.add_argument("--kind", choices=("tree", "random"), required=True)
    gen.add_argument("--n", type=int, help="tree vertex count")
    gen.add_argument("--blocks", type=int, help="random: maximum block count")
    gen.add_argument("--part-max", dest="part_max", type=int, help="random: maximum part size")
    gen.add_argument("--seed", type=int, default=0, help="random: generator seed")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value starting with "-" for an option unless it reads
    # as a number, as -3/5 does not, so such a value is joined to its --at
    for i in reversed(range(len(argv) - 1)):
        value = argv[i + 1]
        if argv[i] == "--at" and value.startswith("-") and not value.startswith("--"):
            argv[i:i + 2] = [f"--at={value}"]
    args = _parser().parse_args(argv)
    # exact values may run to many thousands of digits; the inputs stay
    # capped at MAX_DIGITS where they are parsed
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        # looked up when called, so that a handler replaced on this module runs
        return globals()[f"cmd_{args.command}"](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (_DomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull, so the
        # interpreter's last flush is silent; 141 is how a shell reports SIGPIPE
        try:
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        except (AttributeError, OSError, ValueError):
            pass  # an in-process stdout with no file descriptor
        return 141
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
