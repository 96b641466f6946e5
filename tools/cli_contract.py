"""Compare the ``starfree`` command of this tree with another tree's.

    python3 tools/cli_contract.py OTHER_TREE

Runs every command of ``tools/cli_contract.txt`` as ``python -m starfree.cli``
once from each tree, with ``PYTHONPATH=<tree>/src`` and ``COLUMNS=80``, and
compares stdout, stderr and the exit code.  Each tree runs in a temporary
directory of its own that holds ``g.g6`` (the graph6 line ``Dhc``), an empty
file ``empty.g6`` and ``bad.g6``, a file holding the byte 0xff; commands name
these files, and a relative ``--out`` path, from that directory.  Prints each
command whose results differ and exits 1 if any does, 0 otherwise; exits 2
if OTHER_TREE holds no ``src/starfree``.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "cli_contract.txt"
FILES = {"g.g6": b"Dhc\n", "empty.g6": b"", "bad.g6": b"\xff\n"}


def read_commands(path: Path) -> list[list[str]]:
    """One command per line, split like a shell would; blank lines and
    ``#`` comments are skipped."""
    return [shlex.split(line) for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def run_all(tree: Path, commands: list[list[str]]) -> list[tuple[str, str, int]]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as cwd:
        for name, data in FILES.items():
            Path(cwd, name).write_bytes(data)
        return [(done.stdout, done.stderr, done.returncode) for done in (
            subprocess.run([sys.executable, "-m", "starfree.cli", *argv], capture_output=True,
                           text=True, errors="backslashreplace", env=env, cwd=cwd, timeout=600)
            for argv in commands)]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0], "src", "starfree").is_dir():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    commands = read_commands(COMMANDS)
    ours = run_all(HERE.parent, commands)
    theirs = run_all(Path(args[0]).resolve(), commands)
    differ = 0
    for argv, a, b in zip(commands, ours, theirs):
        fields = [field for field, x, y in zip(("stdout", "stderr", "exit code"), a, b) if x != y]
        if fields:
            differ += 1
            print(f"differs in {', '.join(fields)}: {shlex.join(argv)}")
    print(f"{differ} of {len(commands)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
