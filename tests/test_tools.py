"""The generator scripts under tools/ reproduce the committed data."""

import importlib.util
from pathlib import Path

import pytest

from relock import emit_bench

from conftest import bench_path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["s298", "s1238"])
def test_make_benchmarks_reproduces_committed_bench(name):
    # make() probes candidates with eval_nets and checks them with simulate,
    # so this also runs both kernels on every gate of the generated netlists
    nl = load_tool("make_benchmarks").make(name)
    assert emit_bench(nl) == bench_path(name).read_text()
