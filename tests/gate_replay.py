"""Replay the CLI output gate (``cli_gate.json``) in this interpreter.

Each key of the gate is an argv joined by spaces, and its value the run's
[exit code, sha256 of stdout, stderr].  Stdlib only, so that any Python the
package supports can run it, with the package on PYTHONPATH:

    PYTHONPATH=src python3.10 tests/gate_replay.py tests/cli_gate.json

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


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        want = json.load(f)
    differ = sorted(key for key, entry in want.items() if gate_entry(key.split()) != entry)
    print(json.dumps({"replayed": len(want), "differ": differ}))
