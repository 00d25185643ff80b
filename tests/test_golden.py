"""Every command of the golden corpus gives the output bits recorded in ``tests/golden/digests.json``.

A change that moves an output on purpose rewrites the digests with
``python tests/golden/regen.py``; a refactor must leave them as they are.
"""

import json

import pytest

from golden import regen


def test_every_corpus_command_matches_its_digests(tmp_path):
    recorded = json.loads(regen.DIGESTS.read_text(encoding="utf-8"))
    here = regen.versions()
    if recorded["versions"] != here:
        pytest.fail(f"digests were recorded under {recorded['versions']}, this run has {here}: regenerate them")
    _, commands = regen.load_commands()
    assert list(recorded["commands"]) == [ident for ident, _ in commands], "commands.txt and digests.json differ"
    records = regen.run_corpus(tmp_path)
    moved = [ident for ident, record in records.items() if record != recorded["commands"][ident]]
    assert not moved, f"outputs moved: {moved}"


def test_the_corpus_covers_every_command_and_error_case():
    files, commands = regen.load_commands()
    argvs = dict(commands)
    assert {argv[0] for argv in argvs.values()} == {"simulate", "estimate", "test", "recover", "limits", "verify"}
    experiments = {argv[argv.index("--experiment") + 1] for argv in argvs.values() if argv[0] == "verify"}
    assert experiments == {"clt", "joint", "size", "power", "critical", "qsl", "lil"}
    for ident, argv in commands:
        if argv[0] == "verify" and not ident.startswith("error-"):
            assert "--csv" in argv, ident
    for experiment in experiments:
        threads = {
            argv[argv.index("--threads") + 1]
            for ident, argv in commands
            if argv[0] == "verify" and argv[argv.index("--experiment") + 1] == experiment and not ident.startswith("error-")
        }
        assert threads == {"1", "2"}, experiment
    assert {"latin1.csv"} == set(files)
    with pytest.raises(UnicodeDecodeError):
        files["latin1.csv"].decode("utf-8")
