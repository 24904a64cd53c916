"""The values tier-1 holds the simulator to, byte for byte, and their re-pinning.

Every digest, report line and recorded table a test compares with a
value of an earlier run lives in ``tests/golden/pins.json``, under a key
that names the test node reading it (``tests/<file>.py::<node>``); the
test reads it with :func:`pin`.  Each test file that reads pins maps
each of its keys, in its ``REPIN`` dict, to a function of no arguments
built from the very functions its tests assert through, so a pinned
value is computed one way only.  ``results/table2_{8192,32768}.txt``
are pinned by ``sha256(stdout)[:16]`` of the command that wrote them and
are recomputed only when named (one and five minutes on one core).

    PYTHONPATH=src python tests/golden/repin.py                    # every key but the tables
    PYTHONPATH=src python tests/golden/repin.py tests/test_cli.py  # a file's, a class's or a node's keys
    PYTHONPATH=src python tests/golden/repin.py results/table2_8192.txt
    PYTHONPATH=src python tests/golden/repin.py --check NAME ...   # compare, write nothing

It prints ``old -> new`` for every key that moved and rewrites only
those keys (and a named table's file), so a change to a simulated rule
is a visible diff of one file; list old -> new per key in CHANGES.md.
Budgets (calls per message, bytes a rank, calls per derived cell) are
not pins: they are limits a change may improve, and stay in their tests.
No ``XSIM_*`` variable reaches a recomputation, as none reaches the tests
that read the pins.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[2]
PINS_FILE = Path(__file__).with_name("pins.json")
#: Recorded outputs too slow for tier-1 to recompute: the file, pinned
#: by its own key, -> the ``xsim-run`` command whose stdout it is.
RECORDED = {
    "results/table2_8192.txt": ("table2", "--ranks", "8192"),
    "results/table2_32768.txt": ("table2", "--ranks", "32768"),
}


@functools.cache
def _table() -> dict[str, Any]:
    return json.loads(PINS_FILE.read_text())


def pin(key: str) -> Any:
    """The pinned value of ``key``."""
    try:
        return _table()[key]
    except KeyError:
        raise KeyError(f"{key!r} is not in {PINS_FILE.name}: repin.py {key!r} adds it") from None


def sha16(text: str) -> str:
    """First 16 hex of sha256(text): how a command's stdout is pinned."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sources(names: list[str]) -> dict[str, Callable[[], Any]]:
    """Every key's function, from the ``REPIN`` dict of each test file
    the table or ``names`` mention, plus the recorded tables'."""
    files = {key.split("::")[0] for key in [*_table(), *names] if key.startswith("tests/")}
    found: dict[str, Callable[[], Any]] = {}
    for path in sorted(p for p in files if (ROOT / p).is_file()):
        module = importlib.import_module(path.removesuffix(".py").replace("/", "."))
        found.update(getattr(module, "REPIN", {}))
    for path, argv in RECORDED.items():
        found[path] = functools.partial(_recorded_stdout, argv)
    return found


def _recorded_stdout(argv: tuple[str, ...]) -> str:
    from tests.test_cli import stdout_of

    return stdout_of(*argv)


def selected(keys: list[str], names: list[str]) -> list[str]:
    """The keys ``names`` select: each name is a key or the file, class or
    node a key lies under; no name selects every key but the recorded
    tables."""
    if not names:
        return [k for k in keys if k not in RECORDED]
    return [k for k in keys if any(k == n or k.startswith((n + "::", n + "[")) for n in names)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tests/golden/repin.py", description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="a key, or a file/class/node prefix")
    parser.add_argument("--check", action="store_true", help="print old -> new, write nothing")
    args = parser.parse_args(argv)
    table = dict(_table())
    found = sources(args.names)
    chosen = selected(sorted(found), args.names)
    unknown = [n for n in args.names if not selected(sorted(found), [n])]
    if unknown:
        print(f"repin: no key under {', '.join(unknown)}", file=sys.stderr)
        return 2
    moved: dict[str, Any] = {}
    for key in chosen:
        new = found[key]()
        if key in RECORDED:
            text, new = new, sha16(new)
        new = json.loads(json.dumps(new))  # tuples as lists: the form a test reads
        old = table.get(key, "<absent>")
        if new == old:
            print(f"= {key}", flush=True)
            continue
        print(f"~ {key}\n    {json.dumps(old)} -> {json.dumps(new)}", flush=True)
        moved[key] = new
        if key in RECORDED and not args.check:
            (ROOT / key).write_text(text)
    print(f"{len(moved)} moved, {len(chosen) - len(moved)} unchanged")
    if moved and not args.check:
        table.update(moved)
        PINS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if moved and args.check else 0


if __name__ == "__main__":
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    for variable in [v for v in os.environ if v.startswith("XSIM_")]:
        del os.environ[variable]
    sys.exit(main())
