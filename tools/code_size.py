#!/usr/bin/env python3
"""Print the two code-size numbers ROADMAP item 2 tracks, as JSON.

``src_lines`` is the line count of ``src/relock/*.py`` and ``public_names``
is ``len(relock.__all__)``.  Run from anywhere with::

    python tools/code_size.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relock"
sys.path.insert(0, str(ROOT / "src"))

import relock  # noqa: E402


def measure() -> dict[str, int]:
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py")))
    return {"src_lines": lines, "public_names": len(relock.__all__)}


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
