"""tools/caller_lines.py collects statements and reports the ones a
traced run never reached, on a small stub module (the full tour of the
benchmark, demos and command line is not run here)."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "caller_lines.py")
_spec = importlib.util.spec_from_file_location("caller_lines", _PATH)
caller_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(caller_lines)

STUB = '''"""A stub module."""

import functools


def used(x):
    """A function docstring."""
    if x > 0:
        return max(x,
                   0)
    raise ValueError(x)


@functools.lru_cache
def unused(x):
    y = x + 1
    return y


class Box:
    """A class docstring."""

    def open(self):
        return 1

    def close(self):
        def inner():
            return 2
        return inner()
'''
# first line -> the lines whose line event means the statement ran: the
# decorated def starts at its decorator, the two-line return spans both
# lines, and a compound statement owns only its header; docstrings hold
# no statement
STUB_STATEMENTS = {3: (3,), 6: (6,), 8: (8,), 9: (9, 10), 11: (11,), 14: (14, 15), 16: (16,),
                   17: (17,), 20: (20,), 23: (23,), 24: (24,), 26: (26,), 27: (27,), 28: (28,),
                   29: (29,)}


def test_statements_are_collected_with_the_lines_that_mark_them_run():
    assert caller_lines.statements(STUB) == STUB_STATEMENTS


def test_a_traced_import_and_two_calls_leave_the_rest_reported(tmp_path):
    path = tmp_path / "stub_mod.py"
    path.write_text(STUB)
    tracer = caller_lines.LineTracer([path])
    with tracer.installed():
        spec = importlib.util.spec_from_file_location("stub_mod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.used(1)
        module.Box().open()
    # unused's and close's bodies never ran (inner is inside close, so it is
    # not named again), nor did used's raise
    assert caller_lines.report(STUB, tracer.hits[str(path)], "stub_mod.py") == [
        "stub_mod.py: 6 of 15 statements not run",
        "  never run: unused, Box.close",
        "  other lines: 11"]
