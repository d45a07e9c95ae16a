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
    # make() probes candidates with eval, every gate output listed as an
    # output, and checks them with simulate, so this also runs the kernel
    # with and without inlining on every gate of the generated netlists
    nl = load_tool("make_benchmarks").make(name)
    assert emit_bench(nl) == bench_path(name).read_text()


def test_code_size_counts_the_public_names():
    import relock

    code_size = load_tool("code_size")
    size = code_size.measure()
    assert size["public_names"] == len(relock.__all__)
    assert size["src_lines"] > 0
    modules = code_size.imported_modules()
    assert size["import_modules"] == len(modules)
    assert {"relock", "relock.cli", "relock.bench"} <= set(modules)


def test_importing_relock_loads_neither_dataclasses_nor_inspect():
    # each costs start-up time in every CLI call and sweep worker:
    # dataclasses builds its classes through exec, and imports inspect
    modules = set(load_tool("code_size").imported_modules())
    assert "relock.cli" in modules
    assert not modules & {"dataclasses", "inspect"}


# every public name, so adding or removing one shows up in this file's diff
PUBLIC_API = [
    "AttackResult", "AuthWindow", "BenchError", "Case", "CircuitStats", "CnfBuilder",
    "CompiledCircuit", "DEFAULT_SEED", "DanglingNetWarning", "EncryptConfig", "EncryptReport",
    "EncryptedDesign", "Gate", "HdReport", "KeySchedule", "Lfsr", "MAXIMAL_TAPS", "Netlist",
    "OverheadReport", "SAT", "STATUS_BUDGET", "STATUS_NO_KEY", "STATUS_RECOVERED",
    "STATUS_VERIFY_FAILED", "SequenceOracle", "SolveResult", "Solver", "Stimulus", "Trace",
    "UNKNOWN", "UNSAT", "WindowRecovery", "XorSite", "authentication_schedule",
    "brute_force_effort", "cycle_delay_overhead", "cycle_delay_sweep",
    "derive_window_starts", "emit_bench", "encrypt", "load_bench", "load_config",
    "load_schedule", "new_lfsr", "overhead_report", "parse_bench", "period",
    "recover_key_sequences", "run_case", "save_bench", "save_schedule", "simulate", "solve",
    "step", "to_dimacs", "trusted_user_stimulus", "workload_cycle_mask", "workload_stimulus",
    "write_columnar", "write_hd_csv", "write_vcd",
]


def test_public_api_is_pinned():
    import relock

    assert sorted(relock.__all__) == PUBLIC_API


def test_unrun_lines_reports_what_a_call_never_reached():
    from relock.lfsr import new_lfsr, period

    source = (TOOLS.parent / "src" / "relock" / "lfsr.py").read_text().splitlines()

    def line_of(text):
        (line,) = [k for k, s in enumerate(source, 1) if s.strip() == text]
        return line

    result, unrun = load_tool("unrun_lines").unrun_lines(period, new_lfsr(3))
    assert result == 7
    assert line_of('raise ValueError(f"period enumeration capped at width {_PERIOD_WIDTH_LIMIT}")') in unrun["lfsr.py"]
    assert line_of("cur = _shift(cur, mask, g.taps)") not in unrun["lfsr.py"]
    assert line_of("def period(g: Lfsr) -> int:") not in unrun["lfsr.py"]
