#!/usr/bin/env python3
"""End-to-end benchmark of the prtr library.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
library from ../src), runs one workload for a fixed number of seconds,
checks its outputs, and prints one JSON result object as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run also prints the
count x unit-cost ledger and writes its spans as a Chrome trace under
.bench_build/traces/.

    python3 perfbench/run.py --workload fig9 --seed 61927 --seconds 30 --trace 0

Correctness: at the default seed the digest of the workload's reference
output must equal the committed one in perfbench/digests.json; at any
seed the benchmark checks its invariants and that every repetition of the
work reproduces the reference byte for byte. A failed check sets
"correct": false, counts the affected work as failed, and exits 1.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "prtr_perfbench"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("fig9", "chaos", "fleet")
# The whole run, build excluded, must end well inside three minutes.
RUN_DEADLINE_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures once, then brings the binary up to date (a no-op when
    nothing changed). Build output goes to a log, not to stdout."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no prtr sources at %s; run from a full checkout" % (ROOT / "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log: %s)" % log_path)


def load_digests(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail("cannot read digests %s: %s" % (path, e))


def digest_key(workload, small):
    return workload + ("/small" if small else "")


def run_binary(args, out_path, trace_path):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path)]
    if args.trace:
        cmd += ["--chrome-trace", str(trace_path)]
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("prtr_perfbench did not finish within %d s" % RUN_DEADLINE_S, 1)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("prtr_perfbench exited with code %d" % proc.returncode, 1)
    return json.loads(out_path.read_text())


def select_metrics(doc, spec, trace):
    """The BENCHMARK.json metric set of this mode, with its units. A
    per-layer metric the workload does not exercise reads 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            fail("prtr_perfbench did not report metric %s" % m["name"], 1)
        if got["unit"] not in (m["unit"], "n/a"):
            fail("metric %s reported in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]), 1)
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number" % m["name"], 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the digest seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size workloads (self-test)")
    parser.add_argument("--digests", default=str(DIGESTS),
                        help="committed digests to check against")
    parser.add_argument("--record", default=None,
                        help="append the full result document to this JSON-lines file")
    parser.add_argument("--update-digests", action="store_true",
                        help="store this run's digest (default seed only)")
    args = parser.parse_args()

    spec = load_benchmark()
    digests = load_digests(args.digests)
    default_seed = int(digests["default_seed"])
    if args.seed is None:
        args.seed = default_seed
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    trace_dir = BUILD_ROOT / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / ("%s-seed%d.json" % (args.workload, args.seed))
    out_path = BUILD_ROOT / ("result-%s-%d.json" % (args.workload, os.getpid()))
    try:
        doc = run_binary(args, out_path, trace_path)
    finally:
        if out_path.exists():
            out_path.unlink()

    attempted = int(doc["attempted"])
    failed = int(doc["failed"])
    key = digest_key(args.workload, args.small)
    expected = None
    if args.seed == default_seed:
        if args.update_digests:
            digests["digests"][key] = doc["digest"]
            Path(args.digests).write_text(json.dumps(digests, indent=2,
                                                     sort_keys=True) + "\n")
            print("stored digest %s for %s" % (doc["digest"], key))
        expected = digests["digests"].get(key)
        if expected != doc["digest"]:
            print("CHECK FAILED: %s digest %s, committed %s"
                  % (key, doc["digest"], expected))
            failed = attempted  # every unit repeats the reference output
    elif args.update_digests:
        fail("--update-digests needs the default seed %d" % default_seed)
    correct = failed == 0 and attempted > 0

    metrics = select_metrics(doc, spec, args.trace)
    fp = doc["fingerprint"]
    print("\nfingerprint: nproc %s, %s, %s, %s build, %s participants, seed %s, "
          "%s s measured" % (fp["nproc"], fp["cpu"], fp["compiler"],
                             fp["build_type"], fp["participants"], fp["seed"],
                             fp["seconds"]))
    print("digest: %s (%s)" % (doc["digest"], "checked" if expected else
                                "not checked at this seed; invariants only"))
    print("failed_frac: %d/%d = %.6g" % (failed, attempted,
                                          failed / attempted if attempted else 1.0))
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print("  %-*s %16.8g %s" % (width, name, m["value"], m["unit"]))

    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "small": args.small,
                  "fingerprint": fp, "correct": correct,
                  "attempted": attempted, "failed": failed,
                  "failed_frac": failed / attempted if attempted else 1.0,
                  "digest": doc["digest"], "digest_expected": expected,
                  "problems": doc["problems"], "metrics": doc["metrics"],
                  "ledger": doc["ledger"], "ledger_base_ms": doc["ledger_base_ms"],
                  "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
