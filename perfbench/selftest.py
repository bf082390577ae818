#!/usr/bin/env python3
"""Shows that the benchmark's correctness gate fires.

    python3 perfbench/selftest.py

1. A cover run against a corrupted expected digest must report
   "correct": false, count the invocations as failed and exit nonzero.
2. A wire run's logged answers pass `pb check`; the same log with one
   `propagates` verdict flipped must fail it.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")


def bench(*args):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args, "--seconds", "1"],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return r.returncode, json.loads(r.stdout.splitlines()[-1])


def check(d):
    r = subprocess.run([PB, "check", "--workload", "wire-reads", "--seed", "1", "--dir", d],
                       stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(r.stdout.splitlines()[-1])["failures"]


def main():
    failures = []

    # 1. Corrupted digest.
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    victim = sorted(k for k in digests if k.startswith("fig5-"))[0]
    digests[victim] = "0" * 64
    bad = os.path.join(WORK, "corrupted-digests.json")
    with open(bad, "w") as f:
        json.dump(digests, f)
    rc, res = bench("--workload", "cover-fig5", "--seed", "1", "--trace", "0", "--expect", bad)
    if rc == 0 or res["correct"] or res["failed"] < 1:
        failures.append(f"corrupted digest not caught: exit {rc}, {res}")

    # 2. Flipped verdict.
    rc, res = bench("--workload", "wire-reads", "--seed", "1", "--trace", "0")
    if rc != 0 or not res["correct"]:
        failures.append(f"clean wire run failed: exit {rc}, {res}")
    flipped = os.path.join(WORK, "selftest-flipped")
    shutil.rmtree(flipped, ignore_errors=True)
    shutil.copytree(os.path.join(WORK, "wire-reads"), flipped)
    path = os.path.join(flipped, "ops.tsv")
    with open(path) as f:
        rows = [l.rstrip("\n").split("\t") for l in f]
    i = next(i for i, r in enumerate(rows) if r[0] == "P" and r[4] == "1")
    rows[i][6] = "0" if rows[i][6] == "1" else "1"
    with open(path, "w") as f:
        f.writelines("\t".join(r) + "\n" for r in rows)
    if check(flipped) < 1:
        failures.append("flipped verdict not caught")

    for msg in failures:
        print("selftest: FAIL:", msg)
    print("selftest:", "ok" if not failures else "FAILED")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
