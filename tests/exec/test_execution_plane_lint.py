"""Lint: all process/thread-pool machinery lives in ``repro.exec``.

The tentpole invariant of the execution plane is architectural: no
caller outside ``src/repro/exec/`` constructs a process pool (or
imports the modules that would let it).  A source scan enforces it --
cheaper than a custom flake8 plugin, and it fails with the offending
file and line.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Module prefixes whose import is banned outside the execution plane.
_BANNED_IMPORT = re.compile(
    r"^\s*(?:import\s+(?:multiprocessing|concurrent)\b"
    r"|from\s+(?:multiprocessing|concurrent)(?:\.|\s))"
)

#: Direct pool construction (catches re-exported names too).
_BANNED_CALL = re.compile(r"\bProcessPoolExecutor\s*\(")

#: Paths (relative to ``src/repro``) exempt from the ban.
_ALLOWED = ("exec/",)


def _violations(pattern: re.Pattern) -> list:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(_ALLOWED):
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if pattern.search(line):
                found.append(f"{rel}:{lineno}: {line.strip()}")
    return found


class TestExecutionPlaneOwnsConcurrency:
    def test_no_multiprocessing_imports_outside_exec(self):
        assert _violations(_BANNED_IMPORT) == []

    def test_no_direct_process_pool_construction(self):
        assert _violations(_BANNED_CALL) == []

    def test_the_scan_sees_the_real_tree(self):
        # Guard against the lint silently passing on a wrong path.
        assert (SRC / "exec" / "backends.py").exists()
        assert len(list(SRC.rglob("*.py"))) > 50
