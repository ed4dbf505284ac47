"""Replay the CLI output gate (``cli_gate.json``), or the benchmark's
digests (``perfbench/digests.json``), in this interpreter.

Each key of the gate is an argv joined by spaces, and its value the run's
[exit code, sha256 of stdout, stderr].  Each key of the digests is an argv
too, and its value the sha256 of the stdout of that argv run with
``--format json``.  Stdlib only, so that any Python the package supports
can run it, with the package on PYTHONPATH:

    PYTHONPATH=src python3.10 tests/gate_replay.py tests/cli_gate.json
    PYTHONPATH=src python3.10 tests/gate_replay.py perfbench/digests.json

It prints {"replayed": <count>, "differ": [<argvs whose entry differs>]} as
JSON.  ``test_cli.py`` records the gate with ``gate_entry``.
"""

import contextlib
import hashlib
import io
import json
import sys

from cqsing.cli import main


def gate_entry(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # an uncaught error ends the real CLI with exit 1
            code = 1
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]


def replay(key, entry):
    """The entry that the argv ``key`` gives now, in the form of ``entry``:
    a gate entry, or the digest of its JSON stdout if ``entry`` is one."""
    if isinstance(entry, str):
        return gate_entry(key.split() + ["--format", "json"])[1]
    return gate_entry(key.split())


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        want = json.load(f)
    differ = sorted(key for key, entry in want.items() if replay(key, entry) != entry)
    print(json.dumps({"replayed": len(want), "differ": differ}))
