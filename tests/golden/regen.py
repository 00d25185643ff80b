"""The golden corpus of output digests: run its commands, and rewrite ``digests.json``.

``commands.txt`` lists small dwlab commands.  Each one runs in-process
through ``dwlab.cli.main`` in one empty working directory, in file order.
Help text is wrapped at 80 columns, whatever the terminal's width.
Per command the corpus records the exit code, the sha256 of stdout (with
the manifest's timestamp masked), of stderr and of every file the command
writes, or None for a named file it did not write.  ``digests.json`` keeps
those records with the Python, numpy and scipy versions that produced
them, since another numpy may round or draw differently.

Run ``python tests/golden/regen.py`` from the repository root to rewrite
``digests.json`` after a deliberate change of output; its diff names the
commands that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "commands.txt"
DIGESTS = HERE / "digests.json"

OUTPUT_OPTIONS = ("--output", "--residuals", "--trajectories", "--csv")  # the options that name a written file

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def load_commands() -> tuple[dict, list]:
    """The input files ({name: bytes}) and the commands ([(id, argv)]) of ``commands.txt``, in file order."""
    files, commands = {}, []
    for line in COMMANDS.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("file "):
            _, name, data = line.split()
            files[name] = bytes.fromhex(data)
        else:
            ident, _, argv = line.partition(":")
            commands.append((ident.strip(), shlex.split(argv)))
    return files, commands


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list) -> dict:
    """Run one command in the working directory and return its record."""
    from dwlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = [argv[i + 1] for i, arg in enumerate(argv) if arg in OUTPUT_OPTIONS]
    return {
        "exit": code,
        "stdout": _sha256(_TIMESTAMP.sub('"timestamp": "<masked>"', out.getvalue()).encode()),
        "stderr": _sha256(err.getvalue().encode()),
        "files": {path: _sha256(Path(path).read_bytes()) if Path(path).exists() else None for path in written},
    }


def run_corpus(workdir: Path) -> dict:
    """Run every command in ``workdir`` (empty) and return its record, keyed by command id, in file order."""
    files, commands = load_commands()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        # argparse wraps help at the terminal width, so a wide terminal (pytest -s) would move the help digests
        with mock.patch.dict(os.environ, COLUMNS="80"):
            for name, data in files.items():
                Path(name).write_bytes(data)
            records = {ident: _run(argv) for ident, argv in commands}
    finally:
        os.chdir(previous)
    return records


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        records = run_corpus(Path(workdir))
    DIGESTS.write_text(json.dumps({"versions": versions(), "commands": records}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} command digests to {DIGESTS}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
