"""The benchmark under perfbench/ looks library names up by attribute.

A library change that drops or moves one of those names must fail here,
not only in a traced benchmark run. These tests read perfbench/ and
change nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load("spans").WRAPPED, ids=lambda entry: entry[3])
def test_wrapped_attribute_resolves(entry):
    module_name, owner_name, attr, _, _ = entry
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__


def test_workloads_import():
    assert sorted(load("workloads").WORKLOADS) == ["bound", "desk", "sample"]
