#!/usr/bin/env python3
"""Print the code-size numbers ROADMAP item 2 tracks, as JSON.

``src_lines`` is the line count of ``src/relock/*.py``, ``public_names``
is ``len(relock.__all__)`` and ``import_modules`` is how many modules a
fresh ``python -I`` import of ``relock`` and ``relock.cli`` adds to
``sys.modules`` (the start-up footprint, which unlike a timing does not
drift with the host).  Run from anywhere with::

    python tools/code_size.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relock"
sys.path.insert(0, str(ROOT / "src"))

import relock  # noqa: E402

# run in a fresh interpreter: prints the modules importing relock and its CLI adds
_IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
    "import relock, relock.cli; print(*sorted(set(sys.modules) - before))"
)


def imported_modules() -> list[str]:
    """The modules a fresh ``python -I`` import of relock and relock.cli adds, sorted."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout.split()


def measure() -> dict[str, int]:
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py")))
    return {"src_lines": lines, "public_names": len(relock.__all__), "import_modules": len(imported_modules())}


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
