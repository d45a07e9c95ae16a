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
    # fractions, decimal, csv and json are imported by the few functions using them
    modules = set(load_tool("code_size").imported_modules())
    assert "relock.cli" in modules
    json_modules = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}
    assert not modules & {"dataclasses", "inspect", "fractions", "decimal", "csv", *json_modules}


# every public name, so adding or removing one shows up in this file's diff
PUBLIC_API = [
    "AttackResult", "AuthWindow", "BenchError", "Case", "CircuitStats", "CnfBuilder",
    "CompiledCircuit", "DEFAULT_SEED", "DanglingNetWarning", "EncryptConfig", "EncryptReport",
    "EncryptedDesign", "Gate", "HdReport", "KeySchedule", "Lfsr", "MAXIMAL_TAPS", "Netlist",
    "OverheadReport", "SAT", "STATUS_BUDGET", "STATUS_NO_KEY", "STATUS_RECOVERED",
    "STATUS_VERIFY_FAILED", "SequenceOracle", "SolveResult", "Solver", "Trace",
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


# Every formula, added clause, solver result and attack report of
# tools/attack_digest.py's locks.  Re-record only for an intended change to
# the attack's search, and say why in CHANGES.md.
ATTACK_DIGEST = "fb40e53125e402f033876dca2332c5e4c9a8a674d27e00d549ca91ac669d6861"
# Every oracle query and answer, key, verdict and per-window outcome of the
# same attacks, without solver effort: no change to the search may move it.
ATTACK_OUTCOME_DIGEST = "d231514f809de630468ea80495c3d1685cda7c40fccfa2e0456ca38730794ea2"


def test_attack_digest_is_pinned():
    effort, outcome, statuses = load_tool("attack_digest").digest()
    # the last two locks commit a wrong window-2 key that the replay catches
    assert statuses == ["recovered"] * 5 + ["verify-failed"] * 2
    assert outcome == ATTACK_OUTCOME_DIGEST
    assert effort == ATTACK_DIGEST


def test_long_gap_runs_a_width_in_a_capped_child():
    long_gap = load_tool("long_gap")
    line = long_gap.measure(12)
    assert line["gaps"] == [10, 1876]
    assert (line["status"], line["verified"], line["truth"]) == ("recovered", True, True)
    assert line["peak_rss_mib"] < long_gap.AS_CAP_MIB


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


def test_bench_records_the_median_of_three_traced_runs(monkeypatch):
    bench = load_tool("bench")
    runs = [
        {"correct": True, "sat.search_s": 0.3, "sat.propagations_per_s": 10.0, "sat.decisions": 12.0},
        {"correct": True, "sat.search_s": 0.1, "sat.propagations_per_s": 30.0, "sat.decisions": 12.0},
        {"correct": True, "sat.search_s": 0.2, "sat.propagations_per_s": 20.0, "sat.decisions": 12.0},
    ]
    calls = []

    def fake_run(workload, trace, root=bench.ROOT):
        calls.append((workload, trace, root))
        return dict(runs[len(calls) - 1]), {}

    monkeypatch.setattr(bench, "run", fake_run)
    assert bench.traced_layers("attack-s298") == {
        "correct": True, "sat.search_s": 0.2, "sat.propagations_per_s": 20.0, "sat.decisions": 12.0,
    }
    assert calls == [("attack-s298", 1, bench.ROOT)] * 3
    for name, value in [("sat.decisions", 13.0), ("correct", False)]:
        calls.clear()
        runs[2] = {**runs[1], name: value}
        with pytest.raises(SystemExit, match=f"^attack-s298: {name} differs across the 3 traced runs"):
            bench.traced_layers("attack-s298")


def test_bench_records_the_median_of_three_untraced_runs(monkeypatch):
    bench = load_tool("bench")
    runs = [
        ({"correct": True, "op_s": 0.3, "setup_s": 0.02, "peak_rss_mib": 25.0}, {"failed_ratio": 0.0, "env.nproc": 1}),
        ({"correct": True, "op_s": 0.1, "setup_s": 0.03, "peak_rss_mib": 24.0}, {"failed_ratio": 0.5, "env.nproc": 2}),
        ({"correct": True, "op_s": 0.2, "setup_s": 0.01, "peak_rss_mib": 26.0}, {"failed_ratio": 0.0, "env.nproc": 3}),
    ]
    calls = []

    def fake_run(workload, trace, root=bench.ROOT):
        calls.append((workload, trace, root))
        result, info = runs[len(calls) - 1]
        return dict(result), dict(info)

    monkeypatch.setattr(bench, "run", fake_run)
    metrics, info = bench.untraced_metrics("attack-s298")
    assert metrics == {"correct": True, "op_s": 0.2, "setup_s": 0.02, "peak_rss_mib": 25.0, "failed_ratio": 0.5}
    assert list(metrics) == ["correct", "op_s", "setup_s", "peak_rss_mib", "failed_ratio"]
    assert info == runs[2][1]
    assert calls == [("attack-s298", 0, bench.ROOT)] * 3
    calls.clear()
    runs[1] = ({**runs[1][0], "correct": False}, runs[1][1])
    with pytest.raises(SystemExit, match="^attack-s298: untraced run 2 of 3 is not correct$"):
        bench.untraced_metrics("attack-s298")


def test_bench_pairs_alternates_sides_and_counts_wins(monkeypatch, capsys, tmp_path):
    bench = load_tool("bench")
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    # op_s per run: this checkout wins pairs 0 and 1, ties pair 2, loses pair 3
    op_s = {tmp_path: [1.0, 1.2, 0.9, 1.1], bench.ROOT: [0.5, 0.6, 0.9, 1.3]}
    calls = []

    def fake_run(workload, trace, root=bench.ROOT):
        calls.append(root)
        value = op_s[root][sum(r == root for r in calls) - 1]
        return {"correct": root == tmp_path or len(calls) > 2, **{n: value for n in names}}, {}

    monkeypatch.setattr(bench, "run", fake_run)
    assert bench.main(["--pairs", str(tmp_path), "4", "--workload", "attack-s298"]) == 0
    assert calls == [tmp_path, bench.ROOT, bench.ROOT, tmp_path] * 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "attack-s298 correct 4/4 -> 3/4"
    # the other side's quartiles of 0.9, 1.0, 1.1, 1.2 are 0.925 and 1.175
    assert lines[1:] == [f"attack-s298 {n} 1.05 -> 0.75 other quartiles 0.925..1.175 won 2/4" for n in names]
    with pytest.raises(SystemExit):
        bench.main(["--pairs", str(tmp_path), "1", "--workload", "attack-s298"])
