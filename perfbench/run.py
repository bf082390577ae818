#!/usr/bin/env python3
"""The repo benchmark: drives the shipped `cfdprop` binary on four workloads.

    python3 perfbench/run.py --workload cover-fig5 --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each was chosen):
  cover-fig5  `cfdprop cover` on the paper's Figure 5 cell, |Sigma|=2000
  cover-xl    `cfdprop cover` on vetted XL instances (final MinCover bound)
  wire-reads  `cfdprop serve --tcp`, two reconnecting clients, Zipf reads
  wire-churn  the same daemon, one writer walking add/remove, one reader

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  Every answer is
checked; a wrong one is counted in "failed" and the exit status is 1.  The
line before the result is the host fingerprint.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
CFDPROP = os.path.join(ROOT, "_build", "default", "bin", "cfdprop.exe")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ["cover-fig5", "cover-xl", "wire-reads", "wire-churn"]
SETUPS = 5  # daemon launches per wire run; setup_s is their median

STAGES = [
    "propcover.initial_mincover", "propcover.rename", "propcover.compute_eq",
    "propcover.rbr", "rbr.prune", "propcover.eq2cfd", "propcover.final_mincover",
]


def metric_names(trace):
    """(name, unit) of every metric the run prints, from BENCHMARK.json.
    A per-layer metric of a layer the workload does not load reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


class Failed(Exception):
    pass


def log(msg):
    print(f"# {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "cfdprop.ml"))):
        raise SystemExit("perfbench: the program's sources are not here; "
                         "run from a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/cfdprop.exe", "./perfbench/pb.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        raise SystemExit("perfbench: build failed")


def pb(*args, timeout=170):
    r = subprocess.run([PB, *map(str, args)], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        raise Failed(f"pb {args[0]} failed: {r.stderr.decode(errors='replace')[-2000:]}")
    return r.stdout.decode()


def pb_json(*args, timeout=170):
    return json.loads(pb(*args, timeout=timeout).strip().splitlines()[-1])


def die_with_parent():
    # The daemon must not outlive the benchmark, even if it is killed.
    try:
        import ctypes
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM)
    except OSError:
        pass


def fingerprint(workload, seed, extra):
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=20)
            return r.stdout.decode().strip().splitlines()[0] if r.returncode == 0 else None
        except (OSError, subprocess.SubprocessError, IndexError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu": cpu or platform.processor(),
            "ocaml": first_line(["ocamlfind", "ocamlopt", "-version"]),
            "commit": first_line(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        },
        "workload": workload,
        "seed": seed,
        **extra,
    }


# ---------------------------------------------------------------- cover


def spawn_cover(doc, out_path, extra=()):
    """One `cfdprop cover` invocation: (seconds, peak RSS in MB, stdout)."""
    argv = [CFDPROP, "cover", doc, *extra]
    out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(CFDPROP, argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, null, 2)])
        _, status, ru = os.wait4(pid, 0)
        dt = time.perf_counter() - t0
    finally:
        os.close(out)
        os.close(null)
    if os.waitstatus_to_exitcode(status) != 0:
        raise Failed(f"cfdprop cover {os.path.basename(doc)} exited with {status}")
    with open(out_path, "rb") as f:
        return dt, ru.ru_maxrss / 1024.0, f.read()


class CoverRun:
    """The workload's instance pool, each invocation checked against the
    cover digest recorded for its instance."""

    def __init__(self, workload, seed, expect):
        self.dir = os.path.join(WORK, workload)
        os.makedirs(self.dir, exist_ok=True)
        self.names = pb("gen-cover", "--workload", workload, "--out", self.dir).split()
        with open(expect) as f:
            self.digests = json.load(f)
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def invoke(self, name, extra=()):
        doc = os.path.join(self.dir, name + ".cfd")
        dt, rss, out = spawn_cover(doc, os.path.join(self.dir, name + ".out"), extra)
        self.attempted += 1
        if hashlib.sha256(out).hexdigest() != self.digests.get(name):
            self.failed += 1
            self.wrong.append(name)
        return dt, rss

    def rounds(self, seconds, extra=()):
        """Whole rounds over the pool, each in a seeded order, until
        [seconds] have passed; every instance is sampled equally often."""
        lat, rss = [], 0.0
        t0 = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - t0 < seconds:
            order = list(self.names)
            self.rng.shuffle(order)
            for name in order:
                dt, r = self.invoke(name, extra)
                lat.append(dt)
                rss = max(rss, r)
            n += 1
        return lat, rss, time.perf_counter() - t0


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i >= len(xs) - 1:
        return xs[-1]
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def cover_e2e(workload, seed, seconds, expect):
    run = CoverRun(workload, seed, expect)
    setup, _, _ = run.rounds(0)
    lat, rss, wall = run.rounds(seconds)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": len(lat) / wall,
        "latency_p50_ms": quantile(lat, 0.5) * 1000,
        "latency_p90_ms": quantile(lat, 0.9) * 1000,
        "peak_rss_mb": rss,
    }
    info = {"instances": run.names, "samples": len(lat), "wrong_covers": run.wrong}
    return metrics, run.attempted, run.failed, info


def layer_fields(snap):
    """Per-layer figures derived from an Obs snapshot (counters + spans),
    whether it came from `pb trace-cover` or the daemon's `metrics` op."""
    c = lambda n: float(snap.get("counters", {}).get(n, 0))
    s = lambda n: float(snap.get("spans", {}).get(n, {}).get("total_s", 0.0))
    frac = lambda a, b: a / b if b > 0 else 0.0
    covers = c("propcover.covers_computed")
    total = s("propcover.cover")
    out = {"propcover.cover_ms": frac(total * 1000, covers)}
    for st in STAGES:
        out[st + "_s"] = frac(s(st), covers)
        out[st + "_frac"] = frac(s(st), total)
    tested = c("mincover.candidates_tested")
    out.update({
        "mincover.candidates_tested": tested,
        "mincover.removed_frac": frac(c("mincover.cfds_removed"), tested),
        "rbr.resolvents_generated": c("rbr.resolvents_generated"),
        "rbr.dedup_frac": frac(c("rbr.resolvents_deduped"), c("rbr.resolvents_generated")),
        "fast_impl.chases": c("fast_impl.chases"),
        "fast_impl.rule_applications": c("fast_impl.rule_applications"),
        "fast_impl.fire_frac": frac(c("fast_impl.rule_firings"), c("fast_impl.rule_applications")),
        "mincover.us_per_candidate": frac(s("mincover.minimal_cover") * 1e6, tested),
        "memo.hit_frac": frac(c("memo.hits"), c("memo.hits") + c("memo.misses")),
        "rbr.delta_reuse": c("rbr.delta_reuse"),
        "rbr.delta_seeded": c("rbr.delta_seeded"),
        "serve.epoch_swaps": c("serve.epoch_swaps"),
    })
    return out


def cover_traced(workload, seed, seconds, expect):
    run = CoverRun(workload, seed, expect)
    run.rounds(0)  # warm the page cache, as the untraced run's set-up does
    # Alternate untraced and traced (--stats-json) rounds of the CLI.
    stats = os.path.join(run.dir, "stats.json")
    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds / 2:
        plain += run.rounds(0)[0]
        traced += run.rounds(0, extra=("--stats-json", stats))[0]
    t = pb_json("trace-cover", "--workload", workload)
    out = layer_fields(t["obs"])
    out.update(t["gc"])
    out["trace_overhead_frac"] = sum(traced) / sum(plain) - 1.0
    return out, run.attempted, run.failed, {"instances": run.names, "wrong_covers": run.wrong}


# ---------------------------------------------------------------- wire


class Daemon:
    """`cfdprop serve --tcp 0` with one session opened; [setup_s] runs from
    the spawn to the open acknowledgement."""

    def __init__(self, open_line, traced=False):
        argv = [CFDPROP, "serve", "--tcp", "0"] + (["--stats"] if traced else [])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, preexec_fn=die_with_parent)
        try:
            line = self.proc.stderr.readline().decode()
            if "listening on" not in line:
                raise Failed(f"daemon did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            # The front end serves one connection at a time: close this one
            # (socket and file) before the load generator connects.
            with socket.create_connection(("127.0.0.1", self.port), timeout=60) as s, \
                    s.makefile("rwb") as f:
                f.write(open_line)
                f.write(b"\n")
                f.flush()
                ack = json.loads(f.readline())
                self.setup_s = time.perf_counter() - t0
                if ack.get("ok") is not True:
                    raise Failed(f"open failed: {ack}")
                self.at_open = None
                if traced:
                    f.write(b'{"op": "metrics"}\n')
                    f.flush()
                    self.at_open = json.loads(f.readline())
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stderr.close()


def wire_phase(workload, seed, seconds, open_line, traced=False, setups=1):
    """Launch the daemon [setups] times (keeping the last), drive it for
    [seconds], then check every answer.  Returns the loadgen summary plus
    set-up times, peak RSS and the check result."""
    d = os.path.join(WORK, workload)
    os.makedirs(d, exist_ok=True)
    times = []
    for i in range(setups):
        daemon = Daemon(open_line, traced)
        times.append(daemon.setup_s)
        if i < setups - 1:
            daemon.stop()
    try:
        summary = pb_json("loadgen", "--workload", workload, "--seed", seed,
                          "--port", daemon.port, "--seconds", seconds, "--dir", d)
        summary["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    summary["setup_s"] = times
    summary["at_open"] = daemon.at_open
    summary["check"] = pb_json("check", "--dir", d)
    summary["dir"] = d
    return summary


def wire_counts(s):
    failed = s["errors"] + s["check"]["failures"]
    if failed:
        log(f"wire failures: {s['error_samples']} {s['check']['failure_samples']}")
    return s["ops"], failed


def wire_inputs(workload):
    """(session instance name, the open request line)."""
    d = os.path.join(WORK, workload)
    os.makedirs(d, exist_ok=True)
    name = pb("gen-wire", "--dir", d).strip()
    with open(os.path.join(d, "open.json"), "rb") as f:
        return name, f.read().strip()


def wire_e2e(workload, seed, seconds):
    instance, open_line = wire_inputs(workload)
    s = wire_phase(workload, seed, seconds, open_line, setups=SETUPS)
    # wire-reads: every read (propagates and cover pulls); wire-churn: the
    # deltas, whose cost the workload is there to measure.
    lat = s["delta"] if workload == "wire-churn" else s["read"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"]),
        "throughput_ops_s": s["ops"] / s["wall_s"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_p90_ms": lat["p90_ms"],
        "peak_rss_mb": s["peak_rss_mb"],
    }
    attempted, failed = wire_counts(s)
    info = {"instances": [instance], "samples": lat["n"], "ops": s["ops"], "check": s["check"]}
    return metrics, attempted, failed, info


def wire_traced(workload, seed, seconds):
    instance, open_line = wire_inputs(workload)
    plain = wire_phase(workload, seed, seconds / 2, open_line)
    traced = wire_phase(workload, seed, seconds / 2, open_line, traced=True)
    with open(os.path.join(traced["dir"], "final.txt")) as f:
        _, _, stats, metrics = [json.loads(l) for l in f.read().splitlines()[:4]]
    out = layer_fields(metrics)
    covers0 = float(traced["at_open"]["counters"].get("propcover.covers_computed", 0))
    out["propcover.covers_after_open"] = (
        float(metrics["counters"].get("propcover.covers_computed", 0)) - covers0)
    sess = stats["sessions"]["b"]
    replay = pb_json("replay", "--dir", traced["dir"])
    out.update(replay)
    tput = lambda s: s["ops"] / s["wall_s"]
    out.update({
        "wire.connect_wait_p50_ms": plain["first"]["p50_ms"],
        "wire.connect_wait_p99_ms": plain["first"]["p99_ms"],
        "wire.query_p50_ms": plain["query"]["p50_ms"],
        "wire.query_p99_ms": plain["query"]["p99_ms"],
        "wire.cover_p50_ms": plain["cover"]["p50_ms"],
        "wire.delta_p50_ms": plain["delta"]["p50_ms"],
        "wire.delta_p90_ms": plain["delta"]["p90_ms"],
        "wire.overhead_us": plain["query"]["p50_ms"] * 1000
        - replay["serve.handle_line_us.propagates_p50"],
        "loadgen.cpu_frac": plain["cpu_frac"],
        "memo.entries": float(stats["memo_entries"]),
        "memo.entries_per_kreq": stats["memo_entries"] / (traced["ops"] / 1000.0),
        "session.deltas.noop": float(sess["noops"]),
        "session.deltas.patched": float(sess["patches"]),
        "session.deltas.recomputed": float(sess["fallbacks"]),
        "trace_overhead_frac": tput(plain) / tput(traced) - 1.0,
    })
    a1, f1 = wire_counts(plain)
    a2, f2 = wire_counts(traced)
    return out, a1 + a2, f1 + f2, {"instances": [instance], "replayed": replay["replayed"]}


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect", default=DIGESTS,
                    help="cover digests to check against (default: perfbench/digests.json)")
    a = ap.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    cover = a.workload.startswith("cover-")
    try:
        if a.trace:
            values, attempted, failed, info = (
                cover_traced(a.workload, a.seed, a.seconds, a.expect) if cover
                else wire_traced(a.workload, a.seed, a.seconds))
        else:
            values, attempted, failed, info = (
                cover_e2e(a.workload, a.seed, a.seconds, a.expect) if cover
                else wire_e2e(a.workload, a.seed, a.seconds))
    except Failed as e:
        log(str(e))
        sys.exit(1)
    print(json.dumps(fingerprint(a.workload, a.seed, info)))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values.get(n, 0.0)), "unit": u}
                    for n, u in metric_names(a.trace)},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
