"""End-to-end CLI coverage: every subcommand, every exit code."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import relock
from relock import cycle_delay_overhead
from relock.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main, sci

from conftest import bench_path

SRC = str(Path(relock.__file__).resolve().parent.parent)

TOY_CONFIG = {
    "lfsr_width": 3,
    "lfsr_taps": [3, 1],
    "enc_out_width": 3,
    "key_len": 2,
    "sbj_bits": 1,
    "coverage": 0.5,
    "master_seed": 24302,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One locked s27 shared by the simulate/eval/attack tests."""
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "toy.json"
    cfg.write_text(json.dumps(TOY_CONFIG))
    enc = d / "s27_enc.bench"
    keys = d / "s27_keys.json"
    rc = main([
        "encrypt", str(bench_path("s27")),
        "--config", str(cfg), "--out", str(enc), "--keys", str(keys),
    ])
    assert rc == EXIT_OK
    return d


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# -- stats -----------------------------------------------------------------

def test_stats_counts(capsys):
    rc, out, _ = run(capsys, "stats", str(bench_path("s27")))
    assert rc == EXIT_OK
    assert out == "s27: 4/1/3/10 (inputs/outputs/dffs/gates)\n"


def test_stats_missing_file(capsys):
    rc, out, err = run(capsys, "stats", "/no/such/file.bench")
    assert rc == EXIT_INPUT
    assert out == ""
    assert "cannot read" in err


def test_stats_parse_error_names_the_line(capsys, tmp_path):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\ny = FROB(a)\n")
    rc, _, err = run(capsys, "stats", str(bad))
    assert rc == EXIT_INPUT
    assert "line 2" in err


def not_utf8(tmp_path, name):
    """A file whose bytes are not UTF-8: a valid netlist with a 0xff in a comment."""
    path = tmp_path / name
    path.write_bytes(b"INPUT(a)\nOUTPUT(y)\n# \xff\ny = NOT(a)\n")
    return path


@pytest.mark.parametrize("command", ["stats", "simulate", "eval-hd", "attack"])
def test_undecodable_bench_names_the_file(capsys, workdir, tmp_path, command):
    bad = str(not_utf8(tmp_path, "bad.bench"))
    enc, keys = str(workdir / "s27_enc.bench"), str(workdir / "s27_keys.json")
    argv = {
        "stats": ["stats", bad],
        "simulate": ["simulate", bad, "--cycles", "5"],
        "eval-hd": ["eval-hd", str(bench_path("s27")), bad, "--keys", keys],
        "attack": ["attack", enc, "--oracle", bad, "--keys-timing", keys],
    }[command]
    rc, out, err = run(capsys, *argv)
    assert rc == EXIT_INPUT
    assert bad in err and "UTF-8" in err
    assert "Traceback" not in err and out == ""


# -- encrypt -----------------------------------------------------------------

def test_encrypt_reports_and_writes(capsys, workdir, tmp_path):
    cfg = workdir / "toy.json"
    out = tmp_path / "enc.bench"
    keys = tmp_path / "keys.json"
    rc, text, _ = run(
        capsys, "encrypt", str(bench_path("s27")),
        "--config", str(cfg), "--out", str(out), "--keys", str(keys),
    )
    assert rc == EXIT_OK
    assert "s27: +" in text and "corrupted nets" in text
    assert out.exists() and keys.exists()
    assert json.loads(keys.read_text())["c"] == 2


def test_encrypt_is_byte_reproducible(capsys, workdir, tmp_path):
    cfg = workdir / "toy.json"
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.bench"
        keys = tmp_path / f"{tag}.json"
        rc, _, _ = run(
            capsys, "encrypt", str(bench_path("s27")),
            "--config", str(cfg), "--out", str(out), "--keys", str(keys),
        )
        assert rc == EXIT_OK
        pairs.append((out.read_bytes(), keys.read_bytes()))
    assert pairs[0] == pairs[1]


def test_encrypt_default_config(capsys, tmp_path):
    rc, text, _ = run(
        capsys, "encrypt", str(bench_path("s298")),
        "--out", str(tmp_path / "e.bench"), "--keys", str(tmp_path / "k.json"),
    )
    assert rc == EXIT_OK
    assert text.startswith("s298: +")


def test_encrypt_bad_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coverage": 2.0}))
    rc, _, err = run(
        capsys, "encrypt", str(bench_path("s27")),
        "--config", str(cfg), "--out", str(tmp_path / "e"), "--keys", str(tmp_path / "k"),
    )
    assert rc == EXIT_INPUT
    assert "coverage" in err


@pytest.mark.parametrize("doc", [{"key_len": 2.5}, {"enc_out_width": 2.0}, {"coverage": True}])
def test_encrypt_config_field_types_exit_2(capsys, tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc, out, err = run(
        capsys, "encrypt", str(bench_path("s27")),
        "--config", str(cfg), "--out", str(tmp_path / "e"), "--keys", str(tmp_path / "k"),
    )
    assert rc == EXIT_INPUT
    assert out == "" and str(cfg) in err and next(iter(doc)) in err
    assert "Traceback" not in err


# -- simulate -----------------------------------------------------------------

def test_simulate_unkeyed_trace(capsys):
    rc, out, _ = run(capsys, "simulate", str(bench_path("s27")), "--cycles", "5")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "# cycle in[4] out[1] state[3]"
    assert len(lines) == 6


def test_simulate_trusted_case(capsys, workdir):
    rc, out, _ = run(
        capsys, "simulate", str(workdir / "s27_enc.bench"),
        "--keys", str(workdir / "s27_keys.json"), "--case", "1", "--cycles", "12",
    )
    assert rc == EXIT_OK
    assert len(out.splitlines()) == 13


def test_simulate_case_needs_keys(capsys):
    rc, _, err = run(capsys, "simulate", str(bench_path("s27")), "--case", "2")
    assert rc == EXIT_INPUT
    assert "together" in err


def test_simulate_schedule_width_check(capsys, workdir):
    rc, _, err = run(
        capsys, "simulate", str(bench_path("s298")),
        "--keys", str(workdir / "s27_keys.json"), "--case", "1",
    )
    assert rc == EXIT_INPUT
    assert "inputs" in err


def test_simulate_names_the_schedule_with_the_wrong_input_count(capsys, workdir, tmp_path):
    keys = edited_schedule(workdir, tmp_path, lambda d: d.update(i=5))
    rc, out, err = run(capsys, "simulate", str(workdir / "s27_enc.bench"), "--keys", keys, "--case", "1")
    assert rc == EXIT_INPUT
    assert out == ""
    assert f"{keys}: schedule is for 5 inputs, netlist has 4" in err


@pytest.mark.parametrize("case", [None, "1", "2", "3"])
def test_simulate_rejects_negative_cycles_in_every_mode(capsys, workdir, case):
    keys = [] if case is None else ["--keys", str(workdir / "s27_keys.json"), "--case", case]
    rc, out, err = run(capsys, "simulate", str(workdir / "s27_enc.bench"), *keys, "--cycles", "-3")
    assert rc == EXIT_INPUT
    assert out == ""
    assert "--cycles" in err


def test_simulate_writes_vcd(capsys, tmp_path):
    vcd = tmp_path / "t.vcd"
    rc, _, _ = run(
        capsys, "simulate", str(bench_path("s27")), "--cycles", "3", "--vcd", str(vcd)
    )
    assert rc == EXIT_OK
    text = vcd.read_text()
    assert text.startswith("$timescale") or "$timescale" in text
    assert "$enddefinitions" in text


def test_simulate_seed_changes_trace(capsys):
    _, a, _ = run(capsys, "simulate", str(bench_path("s27")), "--cycles", "8")
    _, b, _ = run(capsys, "simulate", str(bench_path("s27")), "--cycles", "8", "--seed", "1")
    _, c, _ = run(capsys, "simulate", str(bench_path("s27")), "--cycles", "8")
    assert a == c
    assert a != b


def test_simulate_into_a_reader_that_closes_early_exits_cleanly():
    """30000 cycles are about 390 kB of trace, more than a pipe holds, so
    the writes after the reader has gone fail with a broken pipe."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(
        [sys.executable, "-m", "relock.cli", "simulate", str(bench_path("s27")), "--cycles", "30000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"# cycle")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_OK
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


def test_a_broken_pipe_on_stdout_exits_ok(monkeypatch):
    class ClosedPipe:
        def write(self, _text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["simulate", str(bench_path("s27")), "--cycles", "5"]) == EXIT_OK


# -- eval-hd ----------------------------------------------------------------

def test_eval_hd_trusted_user_sees_zero(capsys, workdir, tmp_path):
    csv = tmp_path / "hd.csv"
    rc, out, _ = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"),
        "--keys", str(workdir / "s27_keys.json"),
        "--cases", "1", "--vectors", "50", "--cycles", "60", "--csv", str(csv),
    )
    assert rc == EXIT_OK
    assert out.startswith("case 1: mean HD 0.000000 over ")
    rows = csv.read_text().splitlines()
    assert rows[0] == "circuit,coverage,case,n_vectors,cycles,mask_size,mean_hd"
    assert len(rows) == 2


def test_eval_hd_unkeyed_sees_corruption(capsys, workdir):
    rc, out, _ = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"),
        "--keys", str(workdir / "s27_keys.json"),
        "--cases", "2", "--vectors", "50", "--cycles", "60",
    )
    assert rc == EXIT_OK
    hd = float(out.split("mean HD ")[1].split()[0])
    assert hd > 0.02


def test_eval_hd_rejects_bad_case_list(capsys, workdir):
    rc, _, err = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"),
        "--keys", str(workdir / "s27_keys.json"), "--cases", "1,9",
    )
    assert rc == EXIT_INPUT
    assert "9" in err


def test_eval_hd_is_deterministic(capsys, workdir):
    argv = (
        "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"),
        "--keys", str(workdir / "s27_keys.json"),
        "--cases", "2,3", "--vectors", "40", "--cycles", "50",
    )
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b


@pytest.mark.parametrize("flag, value, message", [
    ("--cycles", "-5", "--cycles must be >= 0, got -5"),
    ("--vectors", "0", "--vectors must be >= 1, got 0"),
], ids=["cycles", "vectors"])
def test_eval_hd_range_errors_name_the_flag(capsys, workdir, flag, value, message):
    rc, out, err = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"),
        "--keys", str(workdir / "s27_keys.json"), flag, value,
    )
    assert rc == EXIT_INPUT
    assert out == ""
    assert message in err


def test_eval_hd_without_cases_exits_2(capsys, workdir):
    rc, out, err = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"),
        "--keys", str(workdir / "s27_keys.json"), "--cases", ",",
    )
    assert rc == EXIT_INPUT
    assert out == ""
    assert err == "relock: error: no cases requested\n"


# -- unwritable output paths ---------------------------------------------------

@pytest.mark.parametrize("flag", ["--out", "--keys", "--vcd", "--csv"])
def test_unwritable_output_path_exits_2(capsys, workdir, tmp_path, flag):
    bad = str(tmp_path / "no-such-dir" / "file")
    s27, enc, keys = str(bench_path("s27")), str(workdir / "s27_enc.bench"), str(workdir / "s27_keys.json")
    argv = {
        "--out": ["encrypt", s27, "--out", bad, "--keys", str(tmp_path / "keys.json")],
        "--keys": ["encrypt", s27, "--out", str(tmp_path / "enc.bench"), "--keys", bad],
        "--vcd": ["simulate", s27, "--cycles", "3", "--vcd", bad],
        "--csv": ["eval-hd", s27, enc, "--keys", keys, "--cases", "1", "--vectors", "5", "--cycles", "20", "--csv", bad],
    }[flag]
    rc, out, err = run(capsys, *argv)
    assert rc == EXIT_INPUT
    assert err == f"relock: error: cannot write '{bad}': No such file or directory\n"
    # no partial result: nothing on stdout, and no file written (with --keys,
    # the --out netlist written first is removed again)
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_failed_encrypt_keeps_a_file_it_did_not_create(capsys, tmp_path):
    enc, bad = tmp_path / "enc.bench", tmp_path / "no-such-dir" / "keys.json"
    enc.write_text("old")
    rc, _, _ = run(capsys, "encrypt", str(bench_path("s27")), "--out", str(enc), "--keys", str(bad))
    assert rc == EXIT_INPUT
    assert enc.exists()


def test_encrypt_of_a_netlist_without_inputs_exits_2(capsys, tmp_path):
    src = tmp_path / "inputless.bench"
    src.write_text("OUTPUT(y)\nq = DFF(n)\nn = NOT(q)\ny = BUFF(q)\n")
    out_path = tmp_path / "enc.bench"
    rc, out, err = run(capsys, "encrypt", str(src), "--out", str(out_path), "--keys", str(tmp_path / "k.json"))
    assert rc == EXIT_INPUT
    assert out == ""
    assert err == "relock: error: encrypt failed: netlist 'inputless' has no primary inputs\n"
    assert not out_path.exists()


# -- attack ------------------------------------------------------------------

def attack_argv(workdir, timing, *extra):
    return [
        "attack", str(workdir / "s27_enc.bench"),
        "--oracle", str(bench_path("s27")),
        "--keys-timing", timing, "--max-seq", "3", *extra,
    ]


def test_attack_with_schedule_timing(capsys, workdir):
    rc = main(attack_argv(workdir, str(workdir / "s27_keys.json")))
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "status: recovered" in out
    assert "windows recovered: 3/3" in out
    assert "verified: yes" in out


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_attack_reads_a_piped_schedule(capsys, workdir):
    """A pipe, as with ``--keys-timing /dev/stdin``, gives its text to one read only."""
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write((workdir / "s27_keys.json").read_bytes())  # well inside a pipe's buffer
    try:
        rc, out, err = run(capsys, *attack_argv(workdir, f"/dev/fd/{r}"))
    finally:
        os.close(r)
    assert (rc, err) == (EXIT_OK, "")
    assert "windows recovered: 3/3" in out


def test_attack_with_starts_file(capsys, workdir, tmp_path):
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps({"starts": [0, 4, 10, 18], "c": 2}))
    rc = main(attack_argv(workdir, str(timing)))
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "status: recovered" in out


def test_attack_report_is_deterministic(capsys, workdir):
    argv = attack_argv(workdir, str(workdir / "s27_keys.json"))
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b
    assert "conflicts=" in a


def test_attack_budget_exit_code(capsys, workdir):
    rc, out, err = run(
        capsys, *attack_argv(workdir, str(workdir / "s27_keys.json")), "--budget", "10"
    )
    assert rc == EXIT_BUDGET
    assert "status: budget-exhausted" in out
    assert "budget" in err


@pytest.mark.parametrize("max_seq", ["0", "-1"])
def test_attack_needs_a_window_to_recover(capsys, workdir, max_seq):
    argv = attack_argv(workdir, str(workdir / "s27_keys.json"))
    argv[argv.index("--max-seq") + 1] = max_seq
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == f"relock: error: --max-seq must be >= 1, got {max_seq}\n"


def test_attack_rejects_negative_budget(capsys, workdir):
    rc, out, err = run(
        capsys, *attack_argv(workdir, str(workdir / "s27_keys.json")), "--budget", "-1"
    )
    assert rc == EXIT_INPUT
    assert out == ""
    assert "budget" in err and "-1" in err


def test_attack_missing_timing_file(capsys, workdir):
    rc, _, err = run(capsys, *attack_argv(workdir, "/no/such/timing.json"))
    assert rc == EXIT_INPUT
    assert "cannot read" in err


def test_attack_starts_file_without_c(capsys, workdir, tmp_path):
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps({"starts": [0, 4, 10, 18]}))
    rc, _, err = run(capsys, *attack_argv(workdir, str(timing)))
    assert rc == EXIT_INPUT
    assert "'c'" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"starts": 5, "c": 2},
        {"starts": "0,4", "c": 2},
        {"starts": [0, 9, 20, 40], "c": [2]},
        {"starts": [0, -4, 10], "c": 2},
        {"starts": [0, 4.0, 10], "c": 2},
        {"starts": [0, True, 10], "c": 2},
        {"starts": [0, 4, 10], "c": 0},
        {"starts": [0, 4, 10], "c": 2.0},
        {"starts": [0, 4, 10], "c": True},
    ],
)
def test_attack_starts_file_wrong_types(capsys, workdir, tmp_path, doc):
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps(doc))
    rc, out, err = run(capsys, *attack_argv(workdir, str(timing)))
    assert rc == EXIT_INPUT
    assert str(timing) in err
    assert "Traceback" not in err and out == ""


def test_attack_rejects_zero_cycle_gaps(capsys, workdir, tmp_path):
    # back-to-back windows leave no cycle to probe, so no key is checked
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps({"starts": [0, 2, 4, 6], "c": 2}))
    rc, out, err = run(capsys, *attack_argv(workdir, str(timing)))
    assert rc == EXIT_INPUT
    assert out == ""
    assert "no cycle between" in err and "Traceback" not in err


def test_attack_undecodable_timing_names_the_file(capsys, workdir, tmp_path):
    timing = not_utf8(tmp_path, "timing.json")
    rc, out, err = run(capsys, *attack_argv(workdir, str(timing)))
    assert rc == EXIT_INPUT
    assert str(timing) in err and "UTF-8" in err
    assert "Traceback" not in err and out == ""


# -- malformed key schedules --------------------------------------------------

def edited_schedule(workdir, tmp_path, edit):
    doc = json.loads((workdir / "s27_keys.json").read_text())
    edit(doc)
    path = tmp_path / "edited_keys.json"
    path.write_text(json.dumps(doc))
    return str(path)


# the toy schedule has l=1 (two rows), c=2 and i=4
SCHEDULE_DEFECTS = {
    "too-few-rows": lambda d: d.update(key_table=d["key_table"][:1]),
    "c-beyond-row-length": lambda d: d.update(c=3),
    "integer-patterns": lambda d: d.update(key_table=[[int(w, 16) for w in row] for row in d["key_table"]]),
}


@pytest.mark.parametrize("defect", sorted(SCHEDULE_DEFECTS))
@pytest.mark.parametrize("command", ["simulate", "eval-hd"])
def test_malformed_schedule_exits_2(capsys, workdir, tmp_path, defect, command):
    keys = edited_schedule(workdir, tmp_path, SCHEDULE_DEFECTS[defect])
    enc = str(workdir / "s27_enc.bench")
    if command == "simulate":
        argv = ["simulate", enc, "--keys", keys, "--case", "1"]
    else:
        argv = ["eval-hd", str(bench_path("s27")), enc, "--keys", keys, "--vectors", "10", "--cycles", "60"]
    rc, out, err = run(capsys, *argv)
    assert rc == EXIT_INPUT
    assert out == ""
    assert "bad key schedule" in err


@pytest.mark.parametrize("coverage", [[1], None])
def test_schedule_config_types_exit_2_before_output(capsys, workdir, tmp_path, coverage):
    keys = edited_schedule(workdir, tmp_path, lambda d: d["config"].update(coverage=coverage))
    csv = tmp_path / "hd.csv"
    rc, out, err = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"), "--keys", keys,
        "--vectors", "10", "--cycles", "60", "--csv", str(csv),
    )
    assert rc == EXIT_INPUT
    assert out == "" and not csv.exists()
    assert keys in err and "coverage" in err


def test_schedule_config_must_match_the_schedule(capsys, workdir, tmp_path):
    keys = edited_schedule(workdir, tmp_path, lambda d: d["config"].update(key_len=7))
    rc, out, err = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"), "--keys", keys,
        "--vectors", "10", "--cycles", "60",
    )
    assert rc == EXIT_INPUT
    assert out == ""
    assert "bad key schedule" in err and "key_len" in err


def test_eval_hd_checks_schedule_inputs(capsys, workdir, tmp_path):
    keys = edited_schedule(workdir, tmp_path, lambda d: d.update(i=5))
    rc, _, err = run(
        capsys, "eval-hd", str(bench_path("s27")), str(workdir / "s27_enc.bench"),
        "--keys", keys, "--vectors", "10", "--cycles", "60",
    )
    assert rc == EXIT_INPUT
    assert "5 inputs, netlist has 4" in err


@pytest.mark.parametrize("field, value, message", [
    ("circuit", "s28", "circuit 's28'"),
    ("i", 5, "5 inputs, netlist has 4"),
])
def test_attack_checks_schedule_against_oracle(capsys, workdir, tmp_path, field, value, message):
    keys = edited_schedule(workdir, tmp_path, lambda d: d.update({field: value}))
    rc, out, err = run(capsys, *attack_argv(workdir, keys))
    assert rc == EXIT_INPUT
    assert out == ""
    assert message in err


# -- every file argument -------------------------------------------------------

# each defect turns a valid file's text into the bytes written, None: no file
FILE_DEFECTS = {
    "missing": None,
    "empty": lambda text: b"",
    "truncated": lambda text: text[: len(text) // 2].encode(),
    "top-level-list": lambda text: f"[{text}]".encode(),
    "nested-100000-deep": lambda text: ("[" * 100_000 + text + "]" * 100_000).encode(),
    "not-utf8": lambda text: b"\xff" + text.encode(),
}

# the same for a .bench file; every appended line reads nets both s27 and its lock have
BENCH_DEFECTS = {
    "missing": None,
    "not-utf8": FILE_DEFECTS["not-utf8"],
    "unrecognized-line": lambda text: (text + "G0 NOT(G1)\n").encode(),
    "duplicate-net": lambda text: (text + "G0 = NOT(G1)\n").encode(),
    "dff-two-inputs": lambda text: (text + "D9 = DFF(G0, G1)\n").encode(),
    "undefined-net": lambda text: (text + "OUTPUT(NOWHERE)\n").encode(),
    "combinational-cycle": lambda text: (text + "C1 = NOT(C2)\nC2 = NOT(C1)\nOUTPUT(C1)\n").encode(),
}

JSON_TARGETS = ["encrypt --config", "simulate --keys", "eval-hd --keys", "attack schedule", "attack starts"]
BENCH_TARGETS = ["stats", "encrypt", "simulate", "eval-hd orig", "eval-hd enc", "attack", "attack --oracle"]
FILE_CASES = [(t, d) for t in JSON_TARGETS for d in FILE_DEFECTS] + [(t, d) for t in BENCH_TARGETS for d in BENCH_DEFECTS]


def file_argument(workdir, tmp_path, target, path):
    """The valid text of ``target``'s file and the argv that reads it from ``path``."""
    enc, s27 = str(workdir / "s27_enc.bench"), str(bench_path("s27"))
    keys = str(workdir / "s27_keys.json")
    schedule = Path(keys).read_text()
    enc_text, s27_text = Path(enc).read_text(), Path(s27).read_text()
    out = ["--out", str(tmp_path / "enc.bench"), "--keys", str(tmp_path / "k.json")]
    hd = ["--keys", keys, "--vectors", "5", "--cycles", "20"]
    return {
        "stats": (s27_text, ["stats", path]),
        "encrypt": (s27_text, ["encrypt", path, *out]),
        "simulate": (enc_text, ["simulate", path, "--cycles", "5"]),
        "eval-hd orig": (s27_text, ["eval-hd", path, enc, *hd]),
        "eval-hd enc": (enc_text, ["eval-hd", s27, path, *hd]),
        "attack": (enc_text, ["attack", path, "--oracle", s27, "--keys-timing", keys]),
        "attack --oracle": (s27_text, ["attack", enc, "--oracle", path, "--keys-timing", keys]),
        "encrypt --config": (json.dumps(TOY_CONFIG), ["encrypt", s27, "--config", path, *out]),
        "simulate --keys": (schedule, ["simulate", enc, "--keys", path, "--case", "1", "--cycles", "5"]),
        "eval-hd --keys": (schedule, ["eval-hd", s27, enc, "--keys", path, "--vectors", "5", "--cycles", "20"]),
        "attack schedule": (schedule, attack_argv(workdir, path)),
        "attack starts": (json.dumps({"starts": [0, 4, 10, 18], "c": 2}), attack_argv(workdir, path)),
    }[target]


@pytest.mark.parametrize("target, defect", FILE_CASES, ids=[f"{t}-{d}" for t, d in FILE_CASES])
def test_bad_file_argument_exits_2_and_names_it(capsys, workdir, tmp_path, target, defect):
    is_bench = target in BENCH_TARGETS
    path = tmp_path / ("arg.bench" if is_bench else "arg.json")
    text, argv = file_argument(workdir, tmp_path, target, str(path))
    make = (BENCH_DEFECTS if is_bench else FILE_DEFECTS)[defect]
    if make is not None:
        path.write_bytes(make(text))
    rc, out, err = run(capsys, *argv)
    assert rc == EXIT_INPUT
    assert out == ""
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "enc.bench").exists() and not (tmp_path / "k.json").exists()


# -- model -------------------------------------------------------------------

def test_model_brute_force_headline(capsys):
    rc, out, _ = run(capsys, "model", "brute-force", "--i", "32", "--c", "8", "--n", "10")
    assert rc == EXIT_OK
    assert out == "expected tries: 2^265 = 5.93e+79\n"


def exact_sci(value: int, digits: int = 3) -> str:
    """The formatter ``sci`` replaced: it converts the whole integer, so its
    cost grows with the value."""
    d = Decimal(value)
    exp = d.adjusted()
    mant = d.scaleb(-exp).quantize(Decimal(1).scaleb(1 - digits))
    return f"{mant}e{exp:+d}"


def test_sci_matches_the_exact_formatter():
    assert [sci(bits) for bits in range(4001)] == [exact_sci(1 << bits) for bits in range(4001)]


def test_model_brute_force_wide_register_is_fast(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "model", "brute-force", "--i", "1", "--c", "1", "--n", "10000000")
    assert time.perf_counter() - start < 1
    assert rc == EXIT_OK and err == ""
    assert out == "expected tries: 2^10000000 = 9.05e+3010299\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("brute-force", "--i", "10000000", "--c", "10", "--n", "5"), "expected tries: 2^100000004 = 5.90e+30103000\n"),
        (("cycle-delay", "--ta", "8", "--n", "1000000000"), "t_a=8 n=1000000000: overhead 0%\n"),
    ],
)
def test_model_memory_does_not_grow_with_its_flags(capsys, argv, expected):
    """Neither model builds the power of two its flags describe (12.5 MB
    for the first, 125 MB for the second)."""
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "model", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out, err) == (EXIT_OK, expected, "")
    assert peak < 1 << 20


@pytest.mark.parametrize("t_a", [0, 1, 8, 255, 2**70 + 1])
def test_model_cycle_delay_prints_the_exact_overhead_where_it_leaves_float_range(capsys, t_a):
    """The widths around the one where the overhead rounds to a float 0.0
    print the percentage of the exact rational."""
    edge = t_a.bit_length() + 1076
    for n in range(edge - 40, edge + 3):
        rc, out, _ = run(capsys, "model", "cycle-delay", "--ta", str(t_a), "--n", str(n))
        assert out == f"t_a={t_a} n={n}: overhead {float(cycle_delay_overhead(t_a, n)) * 100:.6g}%\n", n


def test_model_cycle_delay_point(capsys):
    rc, out, _ = run(capsys, "model", "cycle-delay", "--ta", "8", "--n", "11")
    assert rc == EXIT_OK
    assert out == "t_a=8 n=11: overhead 0.78125%\n"


def test_model_cycle_delay_sweep(capsys):
    rc, out, _ = run(capsys, "model", "cycle-delay", "--sweep")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t_a n overhead"
    assert len(lines) > 4


def test_model_cycle_delay_needs_flags(capsys):
    rc, _, err = run(capsys, "model", "cycle-delay")
    assert rc == EXIT_USAGE
    assert "--ta" in err


# -- argparse plumbing ------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys, workdir):
    rc, _, err = run(
        capsys, *attack_argv(workdir, str(workdir / "s27_keys.json")), "--conflicts", "5"
    )
    assert rc == EXIT_USAGE
    assert "error" in err


def test_missing_required_flag_is_usage_error(capsys):
    rc, _, _ = run(capsys, "encrypt", str(bench_path("s27")), "--out", "x.bench")
    assert rc == EXIT_USAGE
