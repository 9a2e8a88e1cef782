"""CLI stdout, exit codes and written files, byte for byte, against the
standing corpus in tests/stdout_corpus.json. A change that alters them on
purpose re-records it with tests/regen_stdout_corpus.py --write."""

import json

import pytest

from regen_stdout_corpus import CORPUS, changed, environment


def test_stdout_corpus_replays_unchanged():
    stored = json.loads(CORPUS.read_text())
    env = environment()
    if stored["recorded_with"] != env:
        pytest.skip(f"corpus recorded with {stored['recorded_with']}, "
                    f"running on {env}")
    keys = changed(stored["runs"])
    assert not keys, f"{len(keys)} argvs changed: {keys}"
