"""Print, for each module of src/adpm, the statements no caller outside
the tests runs.

The callers are one set-up, one pass and every check of each benchmark
workload in perfbench/workloads.py (desk, sample and bound at seed 1,
with the workloads' OUT_DIR pointed at a temporary directory), each demo
in demos/, and the fixed command-line tour of ``tour``. Lines are traced
with sys.settrace from before adpm is imported, so module-level code
counts too. sweep's cells run in this process, not in its worker pool,
so their lines are traced as well. Nothing under perfbench/ is written.

A statement is an ast statement that holds bytecode, docstrings aside.
Its lines are a simple statement's own lines and a compound statement's
header lines (decorators, ``def`` or ``if`` line, up to its body), and
it ran when a line event fired on one of them. Per module the script
prints ``<module>: <n> of <total> statements not run``, then the
functions whose body never ran, and the first lines of the other
statements that never ran.

Run it as a script, from any directory: ``python tools/caller_lines.py``.
It takes a few seconds on two CPUs.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import runpy
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adpm"
WORKLOAD_SEED = 1


def code_lines(code: types.CodeType) -> set[int]:
    """Lines that hold bytecode in code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def _first_line(node: ast.stmt) -> int:
    """The statement's first line, its first decorator's if it has any."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring statements in tree."""
    return {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None}


def statements(source: str, filename: str = "<source>") -> dict[int, tuple[int, ...]]:
    """Each statement of source that holds bytecode, as its first line ->
    the lines whose line event means it ran."""
    executable = code_lines(compile(source, filename, "exec"))
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        start = _first_line(node)
        end = _first_line(node.body[0]) - 1 if hasattr(node, "body") else node.end_lineno
        lines = tuple(range(start, max(start, end) + 1))
        if executable.intersection(lines):
            out[start] = lines
    return out


def functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Each function of tree by qualified name, outer before inner."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    out[prefix + child.name] = child
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


class LineTracer:
    """Records the line events of code in the given files."""

    def __init__(self, files):
        self.hits = {str(f): set() for f in files}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.hits else None

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)


def report(source: str, hits: set[int], name: str) -> list[str]:
    """The lines main prints for one module: the count of statements not
    run, the functions whose body never ran (an inner function of such a
    function is not named again), and the first lines of the other
    statements that never ran."""
    stmts = statements(source, name)
    missed = {first for first, lines in stmts.items() if not hits.intersection(lines)}
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    never, inside = [], set()
    for qual, node in functions(tree).items():
        body = [s for s in node.body if id(s) not in docstrings]
        first = _first_line(body[0]) if body else None
        if first in missed and _first_line(node) not in inside:
            never.append(qual)
            inside.update(line for line in missed if first <= line <= node.end_lineno)
    other = sorted(missed - inside)
    out = [f"{name}: {len(missed)} of {len(stmts)} statements not run"]
    if never:
        out.append("  never run: " + ", ".join(never))
    if other:
        out.append("  other lines: " + ", ".join(map(str, other)))
    return out


class _InProcessPool:
    """Stands in for sweep's process pool, so its cells run traced here."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def tour(tmp: Path) -> list[list[str]]:
    """The command lines of the tour, after writing the CSV files and the
    config file they read into tmp."""
    from adpm import data
    table = data.generate_longtail(data.LongTailSpec(k=3, head_count=12, decay=0.6, d=3,
                                                     separation=6.0, spread=1.0, seed=1))
    train, test = data.split_fractions(table, (0.7, 0.3), seed=1)
    data.save_csv(train, tmp / "train.csv")
    data.save_csv(test, tmp / "test.csv")
    (tmp / "config.json").write_text(json.dumps({
        "T": 15, "sample_steps": 5, "epochs": 2, "warmup_epochs": 1, "hidden": 6,
        "checkpoint_every": 1, "seed": 1,
        "synthetic": {"k": 3, "head_count": 12, "decay": 0.6, "d": 3}}))
    small = ["--T", "12", "--sample-steps", "4", "--epochs", "1", "--warmup-epochs", "1",
             "--hidden", "6"]
    ckpt = tmp / "csv" / "checkpoint.json"
    return [
        ["schedule", "--counts", "845,52", "--alpha", "0.1667", "--c", "2", "--T", "50",
         "--out", tmp / "schedule"],
        ["schedule", "--data", tmp / "train.csv"],
        ["train", "--config", tmp / "config.json", "--out", tmp / "synthetic"],
        ["train", "--config", tmp / "config.json", "--resume",
         tmp / "synthetic" / "checkpoint.epoch1.json", "--out", tmp / "resumed"],
        ["train", "--data", tmp / "train.csv", *small, "--seed", "2", "--out", tmp / "csv"],
        ["eval", "--checkpoint", ckpt, "--data", tmp / "test.csv", "--dump-embeddings",
         "--out", tmp / "eval"],
        ["eval", "--checkpoint", ckpt, "--data", tmp / "test.csv", "--steps", "2"],
        ["sample", "--checkpoint", ckpt, "--data", tmp / "test.csv", "--trace",
         "--out", tmp / "sample"],
        ["sweep", "--synthetic", "--k", "3", "--head-count", "10", "--decay", "0.6",
         "--dim", "3", *small, "--seed", "2", "--alphas", "0,0.25", "--cs", "1,4",
         "--out", tmp / "sweep"],
        ["bound", "--draws", "2", "--mc-draws", "5", "--pop-size", "300",
         "--out", tmp / "bound"],
    ]


def run_callers(tmp: Path) -> None:
    """Run every caller once; a failing caller stops the script."""
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/ or demos/
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    workloads.OUT_DIR = tmp
    for workload_cls in workloads.WORKLOADS.values():
        workload = workload_cls(WORKLOAD_SEED)
        state = workload.setup()
        first = workload.run_pass(state)
        for _, check in workload.run_checks(state, first):
            check()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    from adpm.cli import main
    with mock.patch("concurrent.futures.ProcessPoolExecutor", _InProcessPool):
        for argv in tour(tmp):
            argv = [str(a) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"caller_lines: adpm {' '.join(argv)} exited {code}")


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    tracer = LineTracer(modules)
    with tempfile.TemporaryDirectory() as tmp, tracer.installed():
        run_callers(Path(tmp))
    for path in modules:
        print("\n".join(report(path.read_text(encoding="utf-8"), tracer.hits[str(path)],
                               path.name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
