"""Benchmark of the cqsing command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The workloads are defined in workloads.py.  A run drives the CLI in-process
through ``cqsing.cli.main(argv)`` with ``--format json``, as a single client
in a closed loop: the next request starts when the previous one returns.
Every pass of a workload runs in a fresh interpreter of its own, so nothing
computed in one pass carries into the next; the run waits for each before
it starts another.

With ``--trace 0`` the run executes whole passes of the workload until
``--seconds`` have passed and reports the end-to-end metrics.  With
``--trace 1`` it executes the first pass three times, untraced, with the
span tracer installed and untraced again, checks that all give the same
output, and reports the per-layer metrics.  Every output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Reported times are scaled to a reference host.  On a host whose cores are
shared with other tenants the speed of the same code drifts by up to a
factor of two within minutes, and wall-clock times drift with it.  So a
fixed calibration kernel runs just before every request and after the last
one, and each latency is scaled by CALIBRATION_NS over the mean of the
kernel's two times around it; set-up time is scaled by the kernel's median
time right after set-up.  The kernel is a sparse product of polynomials with
rational coefficients, keyed by exponent tuples -- the kind of work cqsing
does -- written here, so no change to cqsing changes it.  Wall-clock figures
are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import workloads
from analysis import PER_LAYER, SpanSummary, layer_metrics, percentile
from tracer import Tracer, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

# fresh interpreters started only to time set-up, before each pass so that
# they sample the same stretch of time as the passes; the median over these
# and the pass interpreters is reported
SETUP_PROBES_PER_PASS = 4

# The calibration kernel's time on the reference host: about its median on
# the 2-vCPU host where the baseline was measured.
CALIBRATION_NS = 4_000_000
# kernel runs after set-up whose median scales the set-up time
SETUP_CALIBRATIONS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def load_cli():
    """Import cqsing.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "cqsing" / "cli.py").is_file():
        raise SystemExit(f"error: no cqsing sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from cqsing import cli

    if Path(cli.__file__).resolve().parent != SRC / "cqsing":
        raise SystemExit(f"error: imported cqsing from {cli.__file__}, not {SRC}")
    return cli


def reconstruct_r1(argv) -> bool:
    """`reconstruct n 1`, the argv of the known seed defect (r = 1)."""
    return argv[0] == "reconstruct" and argv[2] == "1"


def known_defect(argv, code) -> bool:
    """`reconstruct n 1` exits 2 at the seed commit where the exit contract
    says 4.  It still counts as failed."""
    return reconstruct_r1(argv) and code == 2


def output_failure(code, stdout):
    """Why this exit code and stdout break the CLI contract, or None."""
    if code not in (0, 4):
        return f"exit {code}"
    if code == 0:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        false = sorted(k for k, v in payload.get("checks", {}).items() if v is not True)
        if false:
            return "checks false: " + ", ".join(false)
    return None


def failure(argv, code, stdout, digests):
    """Why this request failed, or None if it did not.

    The output must also match its recorded digest.  Only `reconstruct n 1`
    has none, as the seed gives no correct output to record; its exit 4,
    the contract's outcome, passes without one.
    """
    why = output_failure(code, stdout)
    if why is not None:
        return why
    want = digests.get(" ".join(argv))
    if want is None:
        return None if reconstruct_r1(argv) and code == 4 else "no recorded digest"
    if want != sha256(stdout):
        return "output differs from the recorded digest"
    return None


@lru_cache(maxsize=None)
def _kernel_operands():
    rng = random.Random("perfbench/calibration")

    def polynomial():
        return {
            tuple(rng.randrange(6) for _ in range(8)): Fraction(rng.randrange(1, 99), rng.randrange(1, 99))
            for _ in range(32)
        }

    return polynomial(), polynomial()


def calibrate() -> int:
    """Run the calibration kernel once; return its time in ns."""
    a, b = _kernel_operands()
    start = time.perf_counter_ns()
    product = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = product.get(e, 0) + ca * cb
            if c:
                product[e] = c
            else:
                product.pop(e, None)
    return time.perf_counter_ns() - start


def scaled_latencies(latency_ns, calibration_ns):
    """Each latency scaled to the reference host by the mean of the two
    calibration times around it (one more calibration than latencies)."""
    if len(calibration_ns) != len(latency_ns) + 1:
        raise ValueError("need one calibration before each request and one after the last")
    return [
        ns * 2 * CALIBRATION_NS / (calibration_ns[i] + calibration_ns[i + 1])
        for i, ns in enumerate(latency_ns)
    ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call(cli, argv):
    """Run one request; return (exit code, stdout, latency in ns)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv + ["--format", "json"])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # an uncaught error ends the real CLI with exit 1
            code = 1
        end = time.perf_counter_ns()
    return code, out.getvalue(), end - start


def run_pass(args) -> int:
    """Child: import the CLI, generate the argv lists, print "ready", then run
    one pass (traced if --spans is given) and print its results as JSON."""
    cli = load_cli()
    passes = workloads.passes(args.workload, args.seed)
    print("ready", flush=True)
    calibrate()  # warm-up: the first run in a fresh interpreter is slower
    setup_calibration_ns = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    if args.setup_probe:
        print(json.dumps({"setup_calibration_ns": setup_calibration_ns}))
        return 0
    requests = passes[args.pass_index % len(passes)]
    with open(DIGESTS) as handle:
        digests = json.load(handle)
    tracer = Tracer()
    latency_ns, calibration_ns, outputs, failures = [], [], [], []
    if args.spans:
        tracer.install()
    try:
        for i, argv in enumerate(requests):
            tracer.request_id = i
            calibration_ns.append(calibrate())
            code, stdout, ns = call(cli, argv)
            latency_ns.append(ns)
            outputs.append(sha256(stdout))
            why = failure(argv, code, stdout, digests)
            if why is not None:
                failures.append((" ".join(argv), why, known_defect(argv, code)))
        calibration_ns.append(calibrate())
    finally:
        tracer.restore()
    if args.spans:
        tracer.write(args.spans)
    result = {
        "latency_ns": latency_ns,
        "calibration_ns": calibration_ns,
        "setup_calibration_ns": setup_calibration_ns,
        "outputs": outputs,
        "failures": failures,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(result))
    return 0


def child(args, *extra):
    """Run run.py in a fresh interpreter; return the seconds from launch until
    it printed "ready", and its last line of output parsed as JSON."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
    command += ["--seed", str(args.seed), *extra]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: child {' '.join(extra)} exited with {code}")
    return ready, json.loads(rest.splitlines()[-1])


def scaled_setup(ready_s, result):
    """Set-up seconds scaled to the reference host."""
    return ready_s * CALIBRATION_NS / statistics.median(result["setup_calibration_ns"])


def report(correct, attempted, failed, metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def print_failures(failures, attempted):
    known = sum(1 for *_, is_known in failures if is_known)
    print(
        f"error_rate {len(failures) / attempted:.6f} ({len(failures)} failed of "
        f"{attempted}; {known} of them the known seed defect: reconstruct n 1 exits 2, not 4)"
    )
    for argv, why, is_known in failures:
        if not is_known:
            print(f"  failed: {argv}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe or args.pass_index is not None:
        return run_pass(args)
    if not (SRC / "cqsing" / "cli.py").is_file():
        raise SystemExit(f"error: no cqsing sources under {SRC}")
    head = f"workload {args.workload} seed {args.seed}"
    units = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}

    if args.trace:
        span_path = OUT_DIR / f"{args.workload}.spans.tsv"
        span_path.parent.mkdir(exist_ok=True)
        # untraced before and after the traced pass, so that a drift in
        # machine speed falls on both sides of the overhead ratio alike
        _, before = child(args, "--pass-index", "0")
        _, traced = child(args, "--pass-index", "0", "--spans", str(span_path))
        _, after = child(args, "--pass-index", "0")
        failures = before["failures"] + traced["failures"] + after["failures"]
        for plain in (before, after):
            for i, (a, b) in enumerate(zip(plain["outputs"], traced["outputs"])):
                if a != b:
                    failures.append((f"request {i}", "traced output differs", False))
        requests = len(traced["outputs"])
        attempted = 3 * requests
        summary = SpanSummary(read_spans(span_path))
        untraced_ns = sum(sum(scaled_latencies(r["latency_ns"], r["calibration_ns"])) for r in (before, after)) / 2
        traced_ns = sum(scaled_latencies(traced["latency_ns"], traced["calibration_ns"]))
        metrics = layer_metrics(summary, requests, untraced_ns, traced_ns)
        print(f"{head} traced: first pass, {requests} requests, spans in {span_path}")
        print_failures(failures, attempted)
        for name, value in metrics.items():
            print(f"{name} {value} {units[name]}")
        traced_wall_ns = sum(traced["latency_ns"])
        for layer, ns in sorted(summary.layer_self_ns.items()):
            print(f"share_of_traced_time {layer} {ns / traced_wall_ns:.4f}")
    else:
        started = time.perf_counter()
        setups, wall_setups, latency_ns, scaled_ns, failures = [], [], [], [], []
        max_rss_kb, done = 0, 0
        # stop when another pass would more likely end after --seconds than before
        while done == 0 or (time.perf_counter() - started) * (1 + 0.5 / done) < args.seconds:
            probes = [child(args, "--setup-probe") for _ in range(SETUP_PROBES_PER_PASS)]
            probes.append(child(args, "--pass-index", str(done)))
            for ready, result in probes:
                wall_setups.append(ready)
                setups.append(scaled_setup(ready, result))
            latency_ns += result["latency_ns"]
            scaled_ns += scaled_latencies(result["latency_ns"], result["calibration_ns"])
            failures += result["failures"]
            max_rss_kb = max(max_rss_kb, result["max_rss_kb"])
            done += 1
        wall = time.perf_counter() - started
        attempted = len(latency_ns)
        measured, wall_clock = (
            {
                "setup_s": statistics.median(setup_s),
                "ops_per_s": attempted / (sum(ns) / 1e9),
                "latency_p50_ms": percentile(ns, 50) / 1e6,
                "latency_p90_ms": percentile(ns, 90) / 1e6,
            }
            for setup_s, ns in ((setups, scaled_ns), (wall_setups, latency_ns))
        )
        measured["peak_rss_mb"] = max_rss_kb / 1024
        above = sum(ns / 1e6 > measured["latency_p90_ms"] for ns in scaled_ns)
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters, ",
            "latency_p90_ms": f"{attempted} samples, {above} above, ",
        }
        print(f"{head}: {done} passes, each in a fresh interpreter, {attempted} requests in {wall:.1f} s")
        print_failures(failures, attempted)
        print("times scaled to the reference host by the calibration kernel, wall clock beside them")
        for name, value in wall_clock.items():
            print(f"{name} {measured[name]} {units[name]}  ({notes.get(name, '')}wall clock {value:.6g})")
        print(f"peak_rss_mb {measured['peak_rss_mb']} MB  (largest of {done} pass interpreters)")
        metrics = measured

    correct = all(is_known for *_, is_known in failures)
    report(correct, attempted, len(failures), {name: (v, units[name]) for name, v in metrics.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
