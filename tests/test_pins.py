"""The pin table (``tests/golden/pins.json``) is the one home of the
values tier-1 holds the simulator to byte for byte, and its tool
(``tests/golden/repin.py``) recomputes them.

A test file that compares with a digest-shaped literal of its own — a
value a rule change would move without showing up in the table's diff —
fails here, and so does a table key no test file can recompute.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from tests.golden.repin import PINS_FILE, RECORDED, ROOT, main, pin, sha16, sources

#: A digest-shaped literal: 16-64 hex characters standing alone.
HEX_RUN = re.compile(r"(?<![0-9A-Za-z_])[0-9a-fA-F]{16,64}(?![0-9A-Za-z_])")


def digests_outside_the_table(tests: Path) -> dict[str, list[str]]:
    """Each ``*.py`` file under ``tests`` but outside ``tests/golden/``
    that holds a digest-shaped literal with a letter a-f in it (a run of
    decimal digits is a number): its path -> those literals."""
    found = {}
    for path in sorted(tests.rglob("*.py")):
        if "golden" in path.relative_to(tests).parts[:-1]:
            continue
        hits = [m.group() for m in HEX_RUN.finditer(path.read_text())
                if re.search("[a-fA-F]", m.group())]
        if hits:
            found[str(path.relative_to(tests.parent))] = hits
    return found


class TestTheGuard:
    def test_no_test_file_pins_a_digest_of_its_own(self):
        assert digests_outside_the_table(ROOT / "tests") == {}

    def test_a_digest_is_flagged_a_number_is_not_and_the_table_is_exempt(self, tmp_path):
        digest = hashlib.sha256(b"a pinned run").hexdigest()
        tests = tmp_path / "tests"
        (tests / "golden").mkdir(parents=True)
        (tests / "test_pinned.py").write_text(f'assert run() == "{digest}"\n')
        (tests / "test_short.py").write_text(f'assert run().startswith("{digest[:16]}")\n')
        (tests / "test_number.py").write_text('assert parse("99999999999999999999999")\n')
        (tests / "golden" / "tool.py").write_text(f'EXAMPLE = "{digest}"\n')
        assert digests_outside_the_table(tests) == {
            "tests/test_pinned.py": [digest], "tests/test_short.py": [digest[:16]],
        }


class TestTheTable:
    def test_every_key_has_its_recomputation_and_every_recomputation_a_key(self):
        assert sorted(sources([])) == sorted(json.loads(PINS_FILE.read_text()))

    def test_the_recorded_tables_are_their_pins(self):
        for path in RECORDED:
            assert sha16((ROOT / path).read_text()) == pin(path), path

    def test_a_name_under_no_key_is_refused(self, capsys):
        assert main(["--check", "tests/test_pins.py::no_such_node"]) == 2
        assert "no key under tests/test_pins.py::no_such_node" in capsys.readouterr().err


def test_the_tool_recomputes_a_stdout_hash_and_a_result_digest_unmoved():
    keys = ["tests/test_cli.py::TestTable2IsTheParents::test_table2_stdout_pinned[--ranks 8]",
            "tests/test_neighbor_exchange.py::test_result_digests_equal_the_parent_commit[heat3d-64]"]
    proc = subprocess.run(
        [sys.executable, str(PINS_FILE.with_name("repin.py")), "--check", *keys],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 moved, 2 unchanged"
