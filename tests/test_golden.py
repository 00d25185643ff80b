"""Every command of the golden corpus gives the output bits recorded in ``tests/golden/digests.json``.

A change that moves an output on purpose rewrites the digests with
``python tests/golden/regen.py``; a refactor must leave them as they are.
"""

import argparse
import codecs
import json

import pytest

from dwlab.cli import build_parser
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
    names = {"simulate", "estimate", "test", "recover", "limits", "verify"}
    assert {argv[0] for argv in argvs.values()} == names
    assert {argv[0] for ident, argv in commands if ident.startswith("help-") and argv[1:] == ["--help"]} == names
    help_and_usage = ("help-", "usage-")
    runs = [(ident, argv) for ident, argv in commands if argv[0] == "verify" and not ident.startswith(help_and_usage)]
    experiments = {argv[argv.index("--experiment") + 1] for _, argv in runs}
    assert experiments == {"clt", "joint", "size", "power", "critical", "qsl", "lil"}
    for ident, argv in runs:
        if not ident.startswith("error-"):
            assert "--csv" in argv, ident
    for experiment in experiments:
        threads = {
            argv[argv.index("--threads") + 1]
            for ident, argv in runs
            if argv[argv.index("--experiment") + 1] == experiment and not ident.startswith("error-")
        }
        assert threads == {"1", "2"}, experiment
    assert {"latin1.csv", "bom.csv", "sigma2-overflow.csv", "roots-overflow.csv"} == set(files)
    with pytest.raises(UnicodeDecodeError):
        files["latin1.csv"].decode("utf-8")
    assert files["bom.csv"].startswith(codecs.BOM_UTF8)


def test_the_corpus_pins_a_usage_error_for_every_choice_list():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {a.option_strings[0] for command in commands.values() for a in command._actions if a.choices}
    _, corpus = regen.load_commands()
    assert sorted(argv[1] for ident, argv in corpus if ident.startswith("usage-")) == sorted(options)
