"""Record the SHA-256 of the JSON stdout of every argv any workload can
generate, as produced by the current program, into digests.json.

Run from the root of a checkout at the commit whose outputs are the
reference:

    python3 perfbench/record_digests.py

Requests that are known seed defects get no digest; any other failing
request stops the recording, since its output cannot serve as a reference.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import DIGESTS, call, known_defect, load_cli, output_failure, sha256


def main() -> int:
    cli = load_cli()
    digests = {}
    for name in workloads.NAMES:
        todo = workloads.universe(name)
        for i, argv in enumerate(todo, 1):
            code, stdout, latency_ns = call(cli, argv)
            key = " ".join(argv)
            why = output_failure(code, stdout)
            if why is None:
                digests[key] = sha256(stdout)
            elif not known_defect(argv, code):
                print(f"error: {key}: {why}", file=sys.stderr)
                return 1
            print(f"{name} {i}/{len(todo)} {key}: exit {code}, {latency_ns / 1e6:.1f} ms", flush=True)
    with open(DIGESTS, "w") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
