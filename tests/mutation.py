"""A mutation run over chosen functions of one polycrep module.

Run by hand from anywhere; pytest never collects this file (its name does
not start with test_):

    python3 tests/mutation.py complexes \\
        -f count_max_biconnected -f _downset_counter \\
        -t tests/test_complexes.py

Each mutant is one operator swap at one site inside the named top-level
functions (all of the module's when none is named), nested functions
included and annotations skipped:

* a comparison: == and !=, < and <=, > and >=, is and is not, in and
  not in, each to the other;
* + and -, & and |, each to the other, in an expression or an augmented
  assignment;
* a shift, << or >>, by one more and by one less.

The swap is made in the module's text, so every other line, comment and
docstring stays as it is.  For each mutant the run writes the module,
runs `python3 -m pytest -x -q` on the test files with PYTHONPATH=src and
a fresh bytecode cache directory, and records the mutant as killed when
pytest fails or runs past the time limit (three times the unmutated
run, plus 5 s), and as a survivor when it passes.  Each pytest process
gets an address-space limit of MEMORY_MB, so a mutant
that makes a walk run away fails with MemoryError instead of filling
the host.  The module's text is written back after each mutant, and also
when the run is interrupted (Ctrl-C or SIGTERM).  The unmutated module
must pass first.  The last lines list the survivors; each one needs a
test that kills it or a note on why it is equivalent.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import pathlib
import resource
import signal
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]

SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
    ast.GtE: ">=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.BitAnd: "&",
    ast.BitOr: "|", ast.LShift: "<<", ast.RShift: ">>",
}
ANNOTATIONS = ("annotation", "returns")
MEMORY_MB = 1024


def _nodes(node):
    """node and everything below it, annotations left out."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field in ANNOTATIONS:
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    todo.append(child)


class Text:
    """The module's text, with (line, byte column) positions of the AST
    mapped to offsets into the text, and its operator tokens."""

    def __init__(self, source: str):
        self.source = source
        self.starts = [0]
        for line in source.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))
        self.lines = source.splitlines(keepends=True)
        self.tokens = [
            (self.offset(t.start[0], t.start[1], chars=True),
             self.offset(t.end[0], t.end[1], chars=True), t.string)
            for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type in (tokenize.OP, tokenize.NAME)]

    def offset(self, line: int, col: int, chars: bool = False) -> int:
        """The text offset of a 1-based line and a column, in UTF-8
        bytes as ast counts it or in characters as tokenize does."""
        if not chars:
            col = len(self.lines[line - 1].encode()[:col].decode())
        return self.starts[line - 1] + col

    def end(self, node) -> int:
        return self.offset(node.end_lineno, node.end_col_offset)

    def start(self, node) -> int:
        return self.offset(node.lineno, node.col_offset)

    def operator(self, lo: int, hi: int, symbol: str) -> tuple:
        """The span of the operator between offsets lo and hi: the tokens
        there but brackets, which must spell symbol."""
        found = [(a, b, s) for a, b, s in self.tokens
                 if lo <= a and b <= hi and s not in "()"]
        assert " ".join(s for _, _, s in found) == symbol, (found, symbol)
        return found[0][0], found[-1][1]


def _sites(text: Text, node) -> list:
    """(start, end, replacement) for each mutant of one node."""
    out = []
    if isinstance(node, ast.Compare):
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if type(op) in SWAPS:
                a, b = text.operator(text.end(left), text.start(right),
                                     SYMBOLS[type(op)])
                out.append((a, b, SYMBOLS[SWAPS[type(op)]]))
            left = right
        return out
    if isinstance(node, ast.BinOp):
        lo, hi, right = text.end(node.left), text.start(node.right), node.right
    elif isinstance(node, ast.AugAssign):
        lo, hi, right = text.end(node.target), text.start(node.value), node.value
    else:
        return out
    op = type(node.op)
    if op in SWAPS:
        suffix = "=" if isinstance(node, ast.AugAssign) else ""
        a, b = text.operator(lo, hi, SYMBOLS[op] + suffix)
        out.append((a, b, SYMBOLS[SWAPS[op]] + suffix))
    elif op in (ast.LShift, ast.RShift):
        a, b = text.start(right), text.end(right)
        amount = text.source[a:b]
        out += [(a, b, f"({amount} + 1)"), (a, b, f"({amount} - 1)")]
    return out


def mutants(source: str, functions) -> list:
    """(function, line, start, end, replacement) for every mutant in the
    named top-level functions, in source order."""
    tree = ast.parse(source)
    text = Text(source)
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if functions:
        missing = set(functions) - {node.name for node in defs}
        if missing:
            raise SystemExit(f"no top-level function {sorted(missing)}")
        defs = [node for node in defs if node.name in functions]
    found = []
    for node in defs:
        for sub in _nodes(node):
            for a, b, new in _sites(text, sub):
                line = source.count("\n", 0, a) + 1
                found.append((node.name, line, a, b, new))
    return sorted(found, key=lambda m: m[2:])


def run_tests(tests, limit: float) -> tuple:
    """(passed, seconds) of one pytest run, with a bytecode cache of its
    own so that no mutant is read from a stale .pyc."""
    cap = MEMORY_MB << 20
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        t0 = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=limit,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                      (cap, cap)))
        except subprocess.TimeoutExpired:
            return False, time.monotonic() - t0
    return done.returncode == 0, time.monotonic() - t0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="a module of polycrep, e.g. complexes")
    parser.add_argument("-f", "--function", action="append", default=[],
                        help="a top-level function to mutate (repeatable)")
    parser.add_argument("-t", "--tests", action="append", required=True,
                        help="a test file to run, relative to the "
                             "repository root (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and run nothing")
    args = parser.parse_args(argv)
    path = ROOT / "src" / "polycrep" / f"{args.module}.py"
    source = path.read_text()
    found = mutants(source, args.function)
    labels = [f"{args.module}.py:{line} {name}: {source[a:b]!r} -> {new!r}"
              for name, line, a, b, new in found]
    if args.list:
        print("\n".join(labels))
        return 0
    passed, base = run_tests(args.tests, None)
    if not passed:
        print("the unmutated module fails its tests", file=sys.stderr)
        return 1
    limit = 3 * base + 5
    print(f"{len(found)} mutants, unmutated run {base:.1f} s, "
          f"limit {limit:.0f} s", flush=True)
    survivors = []
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        for (_, _, a, b, new), label in zip(found, labels):
            path.write_text(source[:a] + new + source[b:])
            passed, seconds = run_tests(args.tests, limit)
            if passed:
                survivors.append(label)
            print(f"{'SURVIVED' if passed else 'killed  '} {seconds:6.1f} s "
                  f"{label}", flush=True)
    finally:
        path.write_text(source)
    print(f"{len(survivors)} of {len(found)} survived")
    for label in survivors:
        print("  " + label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
