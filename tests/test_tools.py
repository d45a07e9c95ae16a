"""The generator scripts under tools/ reproduce the committed data."""

import importlib.util
import json
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
    # dataclasses builds its classes through exec, and imports inspect;
    # fractions, decimal and csv are imported by the few functions using them
    modules = set(load_tool("code_size").imported_modules())
    assert "relock.cli" in modules
    assert not modules & {"dataclasses", "inspect", "fractions", "decimal", "csv"}


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


# Every formula, solver result and attack report of tools/attack_digest.py's
# locks.  Re-record only for an intended change to the attack's search, and
# say why in CHANGES.md.
ATTACK_DIGEST = "0dbdee9a48e704dbfee03260451c427fece394c54da691ce28a420a2794cc02a"


def test_attack_digest_is_pinned():
    sha, statuses = load_tool("attack_digest").digest()
    # the last two locks commit a wrong window-2 key that the replay catches
    assert statuses == ["recovered"] * 5 + ["verify-failed"] * 2
    assert sha == ATTACK_DIGEST


def test_committed_bench_records_follow_the_schema():
    bench = load_tool("bench")
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    records = sorted(TOOLS.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert tuple(record) == bench.KEYS and record["schema"] == bench.SCHEMA, path.name
        assert set(record["env"]) == {"python", "nproc"}
        assert set(record["end_to_end"]) == set(record["layers"]) == workloads
        for entry in record["end_to_end"].values():
            assert set(entry) == {"correct", "failed_ratio", *(m["name"] for m in spec["end_to_end"])}
        for entry in record["layers"].values():
            assert set(entry) == {"correct", *(m["name"] for m in spec["per_layer"])}
        assert set(record["code"]) == set(load_tool("code_size").measure())


def test_bench_diff_prints_every_metric_with_its_change(capsys):
    bench = load_tool("bench")
    paths = [str(TOOLS.parent / f"BENCH_{n}.json") for n in (16, 17)]
    assert bench.main(["--diff", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    old, new = (json.loads(Path(p).read_text()) for p in paths)
    assert len(lines) == sum(len(m) for sec in ("end_to_end", "layers") for m in old[sec].values())
    op_old, op_new = (r["end_to_end"]["attack-s298"]["op_s"] for r in (old, new))
    want = f"end_to_end attack-s298 op_s {op_old:.4g} -> {op_new:.4g} {(op_new - op_old) / op_old:+.1%}"
    assert want in lines
    assert "end_to_end attack-s298 correct True -> True n/a" in lines
    assert "layers attack-s298 bench.parse_s 0 -> 0 n/a" in lines
