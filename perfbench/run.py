#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload batch|sharded|serve_warm|serve_churn
        --seed N --seconds T --trace 0|1

Run from the repository root. It builds the program and perfbench_bin
from source into .bench_build/ (the repository's own CMake, with
perfbench/hook.cmake adding the perfbench_bin target), generates the
workload's inputs from the seed, sets up, measures for T seconds and
checks every output. Human-readable lines go to stderr; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a separate traced run. The exit code is non-zero
when an output check fails. perfbench/README.md describes the workloads
and metrics.
"""

import argparse
import fcntl
import glob
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from statistics import median

sys.dont_write_bytecode = True  # Leave nothing in the source tree.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_lib as lib  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench_bin")
TPIIN = os.path.join(BUILD, "tools", "tpiin")

WORKLOADS = ("batch", "sharded", "serve_warm", "serve_churn")
# Set-up is repeated and its median reported; each repetition is a
# fresh process (batch, sharded) or a fresh build + daemon (serve_*).
SETUP_REPEATS = {"batch": 5, "sharded": 2, "serve_warm": 3, "serve_churn": 3}
REQUEST_LIST_LENGTH = 300
SERVE_CONNS = {"serve_warm": 3, "serve_churn": 2}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            " ".join(cmd[:2]), proc.returncode, proc.stderr.strip()[-2000:]))
    return proc.stdout


def json_lines(text):
    return [json.loads(l) for l in text.splitlines() if l.startswith("{")]


# ---------------------------------------------------------------- build


def build():
    """Builds tpiin and perfbench_bin; a no-op when current."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no repository source at %s (missing %s)" % (
                ROOT, need))
    os.makedirs(BUILD, exist_ok=True)
    configure = ["cmake", "-S", ROOT, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF",
                 "-DTPIIN_WERROR=OFF",
                 "-DCMAKE_PROJECT_INCLUDE=" +
                 os.path.join(ROOT, "perfbench", "hook.cmake")]
    make = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
            "--target", "perfbench_bin", "tpiin"]
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        blog = os.path.join(BUILD, "build.log")
        with open(blog, "w") as out:
            def step(cmd):
                return subprocess.run(cmd, stdout=out, stderr=out).returncode

            configured = os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
            # A stale tree may not know the targets yet: configure, retry.
            if configured and step(make) == 0:
                return
            if step(configure) == 0 and step(make) == 0:
                return
        with open(blog) as f:
            raise BenchError("build failed:\n" + f.read()[-3000:])


# ---------------------------------------------------------------- batch


def gen(kind, seed, out):
    return json.loads(run([BIN, "gen", "--kind=" + kind,
                           "--seed=%d" % seed, "--out=" + out]))


def passes(kind, data, work, seconds, trace=None):
    cmd = [BIN, kind, "--data=" + data, "--work=" + work,
           "--seconds=%g" % seconds]
    if trace:
        cmd.append("--trace=" + trace)
    return json_lines(run(cmd))


def run_passes(workload, seed, seconds, work, trace):
    """batch and sharded: K fresh processes, each a cold pass (its
    set-up) and then timed passes for T/K seconds, so per-process luck
    (heap layout, thread placement) averages out like host noise."""
    kind = workload
    data = os.path.join(work, "data")
    size = gen(kind, seed, data)
    log("%s: %d companies, %d trades" % (workload, size["companies"],
                                          size["trades"]))
    reference = None
    if kind == "sharded":
        # The unsharded ranked report of the same tables, outside timing.
        reference = json.loads(run([BIN, "reference", "--data=" + data]))
    repeats = SETUP_REPEATS[workload]
    span_files = []
    records = []
    for rep in range(repeats):
        spans = os.path.join(work, "spans%d.tsv" % rep) if trace else None
        records += passes(kind, data, os.path.join(work, "out"),
                          seconds / repeats, spans)
        span_files += [spans] if spans else []
    cold = [r for r in records if r["cold"]]
    timed = [r for r in records if not r["cold"]]
    # A traced run reports no end-to-end metric, so it may lack untraced
    # passes; an untraced run without a timed pass has nothing to report.
    untraced = [r["wall_s"] for r in timed if not r["traced"]] or [
        r["wall_s"] for r in timed]
    if not untraced:
        raise BenchError("no timed pass completed")

    keys = ["merged_digest"] if kind == "sharded" else [
        "groups_digest", "ranked_digest"]
    expect = ({"merged_digest": reference["ranked_digest"]} if reference
              else {k: records[0][k] for k in keys})
    failed = sum(1 for r in records
                 if r["degraded"] or any(r[k] != expect[k] for k in keys))
    if kind == "sharded":
        rss = [max(r["build_rss_mb"], r["detect_rss_mb"], r["merge_rss_mb"])
               for r in cold]
    else:
        rss = [r["rss_mb"] for r in cold]
    pass_s = median(untraced)
    return {
        "attempted": len(records), "failed": failed, "timed": timed,
        "spans": span_files, "tail_q": 0.50,
        "e2e": {
            "setup_s": (median([r["wall_s"] for r in cold]), len(cold)),
            "pass_s": (pass_s, len(untraced)),
            "req_p50_ms": (pass_s * 1e3, len(untraced)),
            "req_tail_ms": (pass_s * 1e3, len(untraced)),
            # One client, closed loop: passes per second at the median
            # pass, so one slow pass moves it no more than it moves pass_s.
            "req_per_s": (1.0 / pass_s, len(untraced)),
            "peak_rss_mb": (median(rss), len(rss)),
        },
    }


# ---------------------------------------------------------------- serve


def read_companies(data):
    with open(os.path.join(data, "companies.csv")) as f:
        next(f)
        return [line.rstrip("\n").split(",", 1)[1] for line in f]


def request_line(sock_file, sock, line):
    sock.sendall((line + "\n").encode())
    resp = sock_file.readline()
    if not resp:
        raise BenchError("daemon closed the connection")
    return json.loads(resp)


def wait_healthz(port_file, proc, deadline_s=30):
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise BenchError("tpiin serve exited with %d" % proc.returncode)
        try:
            with open(port_file) as f:
                port = int(f.read().strip())
            with socket.create_connection(("127.0.0.1", port), 5) as s:
                if request_line(s.makefile("r"), s, "healthz").get(
                        "status") == "ok":
                    return port
        except (OSError, ValueError):
            time.sleep(0.005)
    raise BenchError("tpiin serve not healthy within %ds" % deadline_s)


class Daemon:
    def __init__(self, snapshot, work, access_log=None):
        self.port_file = os.path.join(work, "port.txt")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        cmd = [TPIIN, "serve", "--snapshot=" + snapshot, "--port=0",
               "--port-file=" + self.port_file]
        if access_log:
            cmd.append("--access-log=" + access_log)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        try:
            self.port = wait_healthz(self.port_file, self.proc)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def serve_inputs(workload, seed, work):
    """Extracts, their batch references, and the request list."""
    seeds = [seed] if workload == "serve_warm" else [seed, seed + 7919]
    extracts = []
    for i, s in enumerate(seeds):
        data = os.path.join(work, "data%d" % i)
        size = gen("batch", s, data)
        ref = passes("batch", data, os.path.join(work, "ref%d" % i), 0)[0]
        extracts.append({"data": data, "size": size, "ref": ref,
                         "snap": os.path.join(work, "gen%d.snap" % i)})
    subs = sorted(extracts[0]["ref"]["subs"], key=lambda s: (-s[1], s[0]))
    giant = sorted(s[0] for s in subs[:2])
    # Every rescore index must exist in every generation the list meets.
    common = min(len(ex["ref"]["subs"]) for ex in extracts)
    small = sorted(s[0] for s in subs[2:] if s[0] < common)
    reqs = lib.build_request_list(seed, read_companies(extracts[0]["data"]),
                                  small, giant, REQUEST_LIST_LENGTH)
    keys = {}
    path = os.path.join(work, "requests.tsv")
    with open(path, "w") as f:
        for cls, line in reqs:
            keys.setdefault(line, len(keys))
            f.write("%s\t%d\t%s\n" % (cls, keys[line], line))
    return extracts, path, keys.get("groups", -1), reqs


def serve_phase(workload, work, extracts, req_path, groups_key, seconds,
                traced, repeats):
    """`repeats` times: set up (build, start, healthz, warm-up sweep),
    then measure that daemon for T/repeats seconds. Returns one record
    per daemon."""
    churn = workload == "serve_churn"
    reps = []
    for rep in range(repeats):
        rep_dir = os.path.join(work, "%s%d" % ("traced" if traced else
                                               "plain", rep))
        os.makedirs(rep_dir)
        t0 = time.monotonic()
        for i, ex in enumerate(extracts):
            if traced:
                run([BIN, "snapshot", "--data=" + ex["data"],
                     "--out=" + ex["snap"], "--op=%d" % i,
                     "--trace=" + os.path.join(rep_dir, "snap%d.tsv" % i)])
            else:
                run([TPIIN, "build", "--data=" + ex["data"],
                     "--out=" + ex["snap"]])
        t1 = time.monotonic()
        access = os.path.join(rep_dir, "access.ndjson") if traced else None
        daemon = Daemon(extracts[0]["snap"], rep_dir, access)
        t2 = time.monotonic()
        try:
            cmd = [BIN, "load", "--port=%d" % daemon.port,
                   "--requests=" + req_path,
                   "--conns=%d" % SERVE_CONNS[workload],
                   "--groups-key=%d" % groups_key,
                   "--daemon-pid=%d" % daemon.proc.pid,
                   "--seconds=%g" % (seconds / repeats),
                   "--samples=" + os.path.join(rep_dir, "samples.tsv"),
                   "--stats-out=" + os.path.join(rep_dir, "stats.ndjson")]
            if churn:
                cmd += ["--reload-a=" + extracts[0]["snap"],
                        "--reload-b=" + extracts[1]["snap"],
                        "--reload-every=%d" % lib.RELOAD_EVERY]
            if traced:
                cmd.append("--trace=1")
            summary = json_lines(run(cmd))[-1]
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        reps.append({
            "dir": rep_dir, "summary": summary, "rss": rss,
            "access": access,
            "setup_s": (t1 - t0) + (t2 - t1) + sum(summary["warmup_s"]),
            "samples": read_samples(os.path.join(rep_dir, "samples.tsv"))})
    return reps


def read_samples(path):
    rows = []
    with open(path) as f:
        for line in f:
            cls, conn, send, first, done, ok, nbytes, req = line.rstrip(
                "\n").split("\t")
            rows.append({"cls": cls, "send": int(send) / 1e9,
                         "first": int(first) / 1e9, "done": int(done) / 1e9,
                         "ok": ok == "1", "bytes": int(nbytes), "req": req})
    return rows


def serve_e2e(reps, n_list, need_tail=True):
    samples = [s for rep in reps for s in rep["samples"]]
    if not samples:
        raise BenchError("no request completed")
    lat = [(s["done"] - s["send"]) * 1e3 if s["ok"] else float("inf")
           for s in samples]
    p99 = lib.tail_percentile(lat, 0.99)
    if p99 is None and need_tail:
        raise BenchError("p99 refused: %d samples leave fewer than %d "
                         "beyond it" % (len(lat), lib.MIN_BEYOND))
    sweeps = []
    for rep in reps:
        # The closed loop completing one list's worth of requests.
        done = sorted(s["done"] for s in rep["samples"])
        sweeps += [done[k + n_list - 1] - (done[k - 1] if k else 0.0)
                   for k in range(0, len(done) - n_list + 1, n_list)]
    if not sweeps:
        raise BenchError("no request-list sweep completed")
    timed_s = sum(rep["summary"]["timed_s"] for rep in reps)
    return {
        "setup_s": (median([r["setup_s"] for r in reps]), len(reps)),
        "pass_s": (median(sweeps), len(sweeps)),
        "req_p50_ms": (lib.percentile(lat, 0.50), len(lat)),
        "req_tail_ms": (p99, len(lat)),
        "req_per_s": (len(samples) / timed_s, len(samples)),
        "peak_rss_mb": (median([r["rss"] for r in reps]), len(reps)),
    }


def run_serve(workload, seed, seconds, work, trace):
    extracts, req_path, groups_key, reqs = serve_inputs(workload, seed, work)
    shares = {}
    for cls, _ in reqs:
        shares[cls] = shares.get(cls, 0) + 1 / len(reqs)
    if workload == "serve_churn":
        shares = lib.churn_shares(shares, lib.RELOAD_EVERY)
    bad = lib.class_share_violations(shares)
    if bad:
        raise BenchError("class shares put a percentile between modes: %s"
                         % bad)
    log("%s: %d companies, %d trades per extract; %d-request list" % (
        workload, extracts[0]["size"]["companies"],
        extracts[0]["size"]["trades"], len(reqs)))

    result = {"tail_q": 0.99}
    if trace:
        # Untraced and traced halves, so the run reports its own overhead.
        plain = serve_phase(workload, work, extracts, req_path, groups_key,
                            seconds / 2, False, 1)
        result["plain"] = plain
        result["plain_e2e"] = serve_e2e(plain, len(reqs), need_tail=False)
        reps = serve_phase(workload, work, extracts, req_path, groups_key,
                           seconds / 2, True, 1)
    else:
        reps = serve_phase(workload, work, extracts, req_path, groups_key,
                           seconds, False, SETUP_REPEATS[workload])
    result["e2e"] = serve_e2e(reps, len(reqs), need_tail=not trace)
    # Every daemon of the run is checked, the untraced half of a traced
    # run too.
    checked = result.get("plain", []) + reps
    failures = {}
    for rep in checked:
        for reason, n in rep["summary"]["failures"].items():
            failures[reason] = failures.get(reason, 0) + n
        for i, ex in enumerate(extracts):
            # The byte-identity contract: the daemon's full `groups`
            # payload is the batch susGroup.txt of the same extract.
            if rep["summary"]["groups_raw"][i] != ex["ref"]["groups_digest"]:
                failures["groups_vs_batch"] = failures.get(
                    "groups_vs_batch", 0) + 1
    # Failed timed requests are in the samples; set-up failures are not.
    setup_failures = sum(n for k, n in failures.items()
                         if k.startswith(("warmup", "groups_vs", "stats")))
    samples = [s for rep in checked for s in rep["samples"]]
    result.update({
        "attempted": len(samples) + setup_failures,
        "failed": sum(1 for s in samples if not s["ok"]) + setup_failures,
        "failures": failures, "reps": reps})
    return result


# ---------------------------------------------------------------- per layer


def read_spans(path):
    """index -> (op, name, parent, start_ns, end_ns, cpu_ns)."""
    spans = {}
    with open(path) as f:
        for line in f:
            idx, op, name, parent, start, end, cpu = line.split("\t")
            spans[int(idx)] = (int(op), name, int(parent), int(start),
                               int(end), int(cpu))
    return spans


# Span name -> (self-time metric, its scale from seconds, CPU/wall metric).
SPAN_METRICS = {
    "io.load": ("io.load_s", 1, "io.load_cpu_per_wall"),
    "io.groups_write": ("io.groups_write_s", 1, None),
    "fusion.build": ("fusion.build_s", 1, "fusion.cpu_per_wall"),
    "core.detect": ("core.detect_s", 1, "core.detect_cpu_per_wall"),
    "core.score": ("core.score_s", 1, None),
    "snapshot.write": ("snapshot.write_s", 1, None),
    "snapshot.open": ("snapshot.open_ms", 1e3, None),
    "shard.build": ("shard.build_s", 1, "shard.build_cpu_per_wall"),
    "shard.detect": ("shard.detect_s", 1, "shard.detect_cpu_per_wall"),
    "shard.merge": ("shard.merge_s", 1, None),
    "shard.canonical": ("shard.canonical_s", 1, None),
}


def span_metrics(span_files):
    """Per-layer metrics from span files: the median over operations of
    each layer call's self time, and of its process CPU / wall."""
    per_name = {}
    for path in span_files:
        spans = read_spans(path)
        selfs = lib.self_times({i: (p, s, e) for i, (_, _, p, s, e, _) in
                                spans.items()})
        for i, (_, name, _, start, end, cpu) in spans.items():
            entry = per_name.setdefault(name, {"self": [], "cpu": []})
            entry["self"].append(selfs[i] / 1e9)
            if end > start:
                entry["cpu"].append(cpu / (end - start))
    m = {}
    for name, (metric, scale, cpu_metric) in SPAN_METRICS.items():
        if name in per_name:
            m[metric] = median(per_name[name]["self"]) * scale
            if cpu_metric and per_name[name]["cpu"]:
                m[cpu_metric] = median(per_name[name]["cpu"])
    return m


E2E_UNITS = {"setup_s": "s", "pass_s": "s", "req_p50_ms": "ms",
             "req_tail_ms": "ms", "req_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = (
    "io.load_s", "io.load_cpu_per_wall", "io.groups_write_s",
    "fusion.build_s", "fusion.cpu_per_wall", "fusion.arcs",
    "core.detect_s", "core.detect_cpu_per_wall", "core.segment_s",
    "core.mine_s", "core.finalize_s", "core.trails",
    "core.max_sub_trail_share", "core.score_s",
    "snapshot.write_s", "snapshot.open_ms",
    "shard.build_s", "shard.build_cpu_per_wall", "shard.detect_s",
    "shard.detect_cpu_per_wall", "shard.merge_s", "shard.canonical_s",
    "shard.build_rss_mb", "shard.detect_rss_mb", "shard.largest_share",
    "shard.cross_trade_rows",
    "serve.lookup.p50_ms", "serve.rescore.p50_ms", "serve.report.p50_ms",
    "serve.reload.p50_ms", "serve.cold.p50_ms", "serve.ttfb.p50_ms",
    "serve.transfer.p50_ms", "serve.cpu_ms_per_req",
    "serve.bundle_hit_ratio", "serve.bundle_lookups", "serve.sub_hit_ratio",
    "serve.sub_lookups", "serve.bundle_misses", "serve.reloads",
    "serve.reload_failures",
    "gen.cpu_share", "trace.overhead_share",
)

UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_share": "fraction",
         "_ratio": "fraction", "_wall": "ratio"}


def unit_of(name):
    if name == "serve.cpu_ms_per_req":
        return "ms"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def pass_layers(result):
    m = span_metrics(result["spans"])
    timed = [r for r in result["timed"] if r["traced"]]
    plain = [r for r in result["timed"] if not r["traced"]]
    if "trails" in timed[0]:
        m["fusion.arcs"] = timed[0]["arcs"]
        m["core.trails"] = timed[0]["trails"]
        m["core.max_sub_trail_share"] = (timed[0]["max_sub_trails"] /
                                         timed[0]["trails"])
        for key in ("segment_s", "mine_s", "finalize_s"):
            m["core." + key] = median([r[key] for r in timed])
    else:
        for key in ("build_rss_mb", "detect_rss_mb"):
            m["shard." + key] = median([r[key] for r in timed])
        m["shard.largest_share"] = timed[0]["largest_share"]
        m["shard.cross_trade_rows"] = timed[0]["cross_trade_rows"]
    if plain:
        m["trace.overhead_share"] = (
            median([r["wall_s"] for r in timed]) /
            median([r["wall_s"] for r in plain]) - 1)
    return m


def serve_layers(result):
    (rep,) = result["reps"]  # A traced run measures one daemon.
    m = span_metrics(glob.glob(os.path.join(rep["dir"], "snap*.tsv")))

    # Cold vs warm: the access log's cache outcome, joined by request ID.
    cache = {}
    with open(rep["access"]) as f:
        for line in f:
            rec = json.loads(line)
            if "req" in rec:
                cache[rec["req"]] = rec.get("cache")
    samples = [s for s in rep["samples"] if s["ok"]]
    warm = [s for s in samples if cache.get(s["req"]) != "miss"]

    def p50_ms(rows, start="send", end="done"):
        values = [(s[end] - s[start]) * 1e3 for s in rows]
        return lib.percentile(values, 0.5) if values else 0.0

    m["serve.lookup.p50_ms"] = p50_ms([s for s in warm
                                       if s["cls"] == "lookup"])
    m["serve.rescore.p50_ms"] = p50_ms([s for s in warm
                                        if s["cls"] == "rescore"])
    m["serve.report.p50_ms"] = p50_ms([s for s in warm if s["cls"] in
                                       ("groups", "bigrescore")])
    m["serve.reload.p50_ms"] = p50_ms([s for s in samples
                                       if s["cls"] == "reload"])
    m["serve.cold.p50_ms"] = p50_ms([s for s in samples
                                     if cache.get(s["req"]) == "miss"])
    m["serve.ttfb.p50_ms"] = p50_ms(samples, end="first")
    # Transfer matters only where payloads are megabytes: report pulls.
    m["serve.transfer.p50_ms"] = p50_ms(
        [s for s in samples if s["cls"] in ("groups", "bigrescore")],
        start="first")
    summary = rep["summary"]
    m["serve.cpu_ms_per_req"] = (summary["daemon_cpu_s"] * 1e3 /
                                 max(1, len(rep["samples"])))
    m["gen.cpu_share"] = summary["gen_cpu_s"] / summary["timed_s"]

    # The stats verb before and after the timed phase.
    with open(os.path.join(rep["dir"], "stats.ndjson")) as f:
        before, after = [json.loads(json.loads(line)["payload"])["sections"]
                         for line in f]

    def delta(section, key):
        return after[section][key] - before[section][key]

    for kind in ("bundle", "sub"):
        hits = delta("cache", kind + "_hits")
        misses = delta("cache", kind + "_misses")
        m["serve.%s_lookups" % kind] = hits + misses
        m["serve.%s_hit_ratio" % kind] = (hits / (hits + misses)
                                          if hits + misses else 0.0)
    m["serve.bundle_misses"] = delta("cache", "bundle_misses")
    m["serve.reloads"] = delta("reload", "swaps")
    m["serve.reload_failures"] = delta("reload", "failures")
    m["trace.overhead_share"] = (result["e2e"]["req_p50_ms"][0] /
                                 result["plain_e2e"]["req_p50_ms"][0] - 1)
    return m


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its daemon (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload,
                                                     args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload in ("batch", "sharded"):
            result = run_passes(args.workload, args.seed, args.seconds, work,
                                args.trace)
        else:
            result = run_serve(args.workload, args.seed, args.seconds, work,
                               args.trace)
        if args.trace:
            if args.workload in ("batch", "sharded"):
                layer = pass_layers(result)
            else:
                layer = serve_layers(result)
            metrics = {n: {"value": float(layer.get(n, 0.0)),
                           "unit": unit_of(n)} for n in PER_LAYER}
        else:
            metrics = {}
            for name, (value, n) in result["e2e"].items():
                metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0
    if args.trace:
        for name in PER_LAYER:
            log("  %-28s %14.6g %s" % (name, metrics[name]["value"],
                                       metrics[name]["unit"]))
    else:
        for name, (value, n) in result["e2e"].items():
            note = ""
            if name == "req_tail_ms":
                q = result["tail_q"]
                note = (" (p99, %d beyond)" % lib.beyond(n, q) if q > 0.5
                        else " (median: a pass is this workload's request)")
            log("  %-12s %12.6g %-8s n=%d%s" % (name, value, E2E_UNITS[name],
                                                n, note))
    log("  %-12s %12.6g %-8s n=%d%s" % (
        "failed_share", failed / attempted, "fraction", attempted,
        "" if correct else "  %s" % result.get("failures", "")))
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        # Failed requests count as infinite latency; such a run has no
        # number to report.
        raise BenchError("a metric is not finite: %d of %d operations "
                         "failed" % (failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(1)
