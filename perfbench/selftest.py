#!/usr/bin/env python3
"""Self-test of the perfbench benchmark, at reduced size (well under a
minute once the benchmark is built).

    python3 perfbench/selftest.py

Checks, for every workload:
  * an untraced run at the default seed exits 0, prints exactly the
    contract's keys as its last line, is correct, and reports every
    end-to-end metric of BENCHMARK.json with its unit;
  * a traced run reports every per-layer metric with its unit, prints the
    ledger table with its residual, and writes a Chrome trace that parses;
  * a held-out seed passes on the invariants alone;
  * a corrupted committed digest makes the run incorrect, counts every
    attempted unit of work as failed (failed_frac 1), and exits non-zero.
Finally compare.py must read the recorded runs back.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
HELD_OUT_SEED = 7
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    return proc.returncode, proc.stdout, last


def metrics_match(result, wanted):
    got = result.get("metrics", {})
    missing = [m["name"] for m in wanted
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    return not missing and set(got) == {m["name"] for m in wanted}, missing


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    seed = str(digests["default_seed"])
    work = ROOT / ".bench_build" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    record = work / "runs.jsonl"
    record.write_text("")

    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seconds", "1", "--small",
                "--record", str(record)]

        code, out, last = run(base + ["--seed", seed, "--trace", "0"])
        check(code == 0 and set(last) == CONTRACT_KEYS and last["correct"]
              and last["failed"] == 0 and last["attempted"] >= 1,
              "%s: untraced run at the default seed is correct" % name)
        ok, missing = metrics_match(last, spec["end_to_end"])
        check(ok, "%s: every end-to-end metric with its unit %s"
              % (name, missing or ""))

        code, out, last = run(base + ["--seed", seed, "--trace", "1"])
        ok, missing = metrics_match(last, spec["per_layer"])
        check(code == 0 and last.get("correct"), "%s: traced run is correct" % name)
        check(ok, "%s: every per-layer metric with its unit %s"
              % (name, missing or ""))
        check(("ledger (%s)" % name) in out and "| residual" in out,
              "%s: traced run prints the ledger and its residual" % name)
        trace = ROOT / ".bench_build" / "traces" / ("%s-seed%s.json" % (name, seed))
        try:
            events = json.loads(trace.read_text())["traceEvents"]
            check(len(events) > 0, "%s: Chrome trace has spans" % name)
        except (OSError, ValueError, KeyError):
            check(False, "%s: Chrome trace written and parses" % name)

        code, out, last = run(base + ["--seed", str(HELD_OUT_SEED), "--trace", "0"])
        check(code == 0 and last.get("correct"),
              "%s: held-out seed %d passes its invariants" % (name, HELD_OUT_SEED))

        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=work,
                                         delete=False) as tmp:
            bad = json.loads(json.dumps(digests))
            key = name + "/small"
            bad["digests"][key] = "0" * 16 if bad["digests"].get(key) != "0" * 16 \
                else "f" * 16
            json.dump(bad, tmp)
        code, out, last = run(["--workload", name, "--seconds", "1", "--small",
                               "--seed", seed, "--trace", "0",
                               "--digests", tmp.name])
        Path(tmp.name).unlink()
        check(code != 0 and last.get("correct") is False
              and last.get("attempted", 0) >= 1
              and last.get("failed") == last.get("attempted"),
              "%s: a corrupted digest fails every unit and exits non-zero" % name)

    proc = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"),
                           str(record), str(record)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0 and "unresolved" in proc.stdout,
          "compare.py reads the recorded runs")

    print("\nself-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
