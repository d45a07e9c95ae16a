"""Recorded outputs of every stimulus builder and simulator caller.

``tests/data/cli_golden.json`` was written by ``tools/record_cli_golden.py``
before the access-case stimuli and the from-reset run loops were merged;
each test here re-runs one lock's commands and requires the same exit codes,
stdout, stderr, CSV and VCD bytes, ``run_case`` reports and schedule replays.
"""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_cli_golden", ROOT / "tools" / "record_cli_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORDED = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text())


def test_golden_groups_match_the_record():
    assert sorted(RECORDED) == sorted(golden.lock_names() + ["toy-attack"])


def _differing(got: dict, want: dict) -> list[str]:
    # JSON round trip so tuples compare equal to recorded lists
    got = json.loads(json.dumps(got))
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


@pytest.mark.parametrize("name", golden.lock_names())
def test_lock_outputs_are_unchanged(name):
    with tempfile.TemporaryDirectory() as d:
        got = golden.record_lock(golden.Runner(Path(d)), name)
    assert _differing(got, RECORDED[name]) == []


def test_toy_attack_report_is_unchanged():
    with tempfile.TemporaryDirectory() as d:
        got = golden.record_toy_attack(golden.Runner(Path(d)))
    assert _differing(got, RECORDED["toy-attack"]) == []
