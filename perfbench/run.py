#!/usr/bin/env python3
"""bikron benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload gen-table1|serve-uniform|cluster-batch-zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds `bikron` (the program under test)
and `perfbench` (the measuring client, a package of its own in this
directory) from source into $CARGO_TARGET_DIR (default `.bench_build`),
starts the processes a workload needs on ephemeral ports, waits until each
answers /v1/health, runs the client, and tears every process down by PID.
A serving workload pins itself, its servers and the client to one CPU:
on a shared host a request path spread over several vCPUs waits on
cross-CPU wake-ups, and a preempted vCPU stretches them by milliseconds.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1). Any wrong answer, non-200, transport
error or shed request counts as failed and makes the exit code 1.

Test-only flags: --stall-ms MS injects one /v1/admin/stall into each open
loop window (serve-uniform); --plant-wrong corrupts one received answer
before it is checked; --drop-conn shuts one client connection's socket
down in the middle of a closed-loop window.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import http.client
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOKEN = "perfbench"
# Open-loop rates (HTTP requests per second): about 30% (single GETs) and
# 10% (64-item batches) of the closed-loop capacity measured with every
# process on one CPU of a 2-vCPU host (about 25k/s single GETs, 1k/s
# batches), so the open loop measures latency below saturation.
OPEN_RATE = {"serve-uniform": 8000.0, "cluster-batch-zipf": 100.0}
SETUP_REPS = 9
CLUSTER_SPEC = ["--expr", "(A+I)⊗B⊗C", "A=unicode", "B=crown:6", "C=kmn:3x4"]
SERVE_SPEC = ["unicode", "unicode", "loops-a"]

# Per-layer metrics of the layers a workload never calls (README,
# "Workloads"). A traced run reports them as 0; it fails if the client
# reports one of them, or leaves out any other.
NOT_LOADED = {
    "gen-table1": (
        "serve.", "router.", "core.vertex_squares_ns", "core.neighbors_page_ns",
        "core.chain_eval_ns", "bench.verify_ns", "bench.open_p99_us", "bench.late_p99_us",
    ),
    "serve-uniform": (
        "router.", "serve.batch.", "generators.", "sparse.", "graph.", "distsim.",
        "core.ground_truth_ms", "core.edges_1t_ns", "core.part_", "core.chain_eval_ns",
    ),
    "cluster-batch-zipf": (
        "generators.", "sparse.", "graph.", "distsim.", "core.ground_truth_ms", "core.edges_1t_ns",
        "core.part_", "core.edge_squares_ns", "core.vertex_squares_ns", "core.neighbors_page_ns",
        "serve.residual_us",
    ),
}

PROCS = []


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    teardown()
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no bikron sources next to {HERE.name}/ (expected Cargo.toml and crates/ in {ROOT})")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "bikron-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    bikron = target_dir() / "release" / "bikron"
    client = target_dir() / "release" / "bikron-perfbench"
    stale = stale_sources(bikron)
    if stale:
        fail(f"{bikron} is older than {len(stale)} of its sources ({stale[0]}, ...); refusing to measure a stale binary")
    return bikron, client


def stale_sources(binary):
    """The sources `binary` was built from that are newer than it (or
    gone). Cargo lists them in the dep-info file next to the binary."""
    dep_info = binary.with_suffix(".d")
    if not binary.is_file() or not dep_info.is_file():
        return [str(dep_info)]
    first = dep_info.read_text().splitlines()[0]
    _, _, deps = first.partition(": ")
    built = binary.stat().st_mtime
    paths = [d.replace("\\ ", " ") for d in re.split(r"(?<!\\) ", deps.strip()) if d]
    return [p for p in paths if not (ROOT / p).is_file() or (ROOT / p).stat().st_mtime > built]


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in ("crates", "shims", "perfbench"):
        files += sorted(p for p in (ROOT / base).rglob("*") if p.is_file() and p.suffix in (".rs", ".toml", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository rooted here; `none` outside one (a git
    repository further up the tree is not this checkout's history)."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def read_banner(proc, timeout=60.0):
    """First stdout line of a starting server, holding its bound address."""
    box = []
    t = threading.Thread(target=lambda: box.append(proc.stdout.readline()), daemon=True)
    t.start()
    t.join(timeout)
    line = box[0] if box else ""
    m = re.search(r"http://([0-9.]+:[0-9]+)", line)
    if not m:
        fail(f"process {proc.pid} printed no listening banner (got {line!r})")
    return m.group(1)


def spawn(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    PROCS.append(proc)
    return proc


def healthy(addr):
    try:
        host, port = addr.rsplit(":", 1)
        c = http.client.HTTPConnection(host, int(port), timeout=2)
        c.request("GET", "/v1/health")
        ok = c.getresponse().status == 200
        c.close()
        return ok
    except OSError:
        return False


def wait_healthy(addrs, timeout=60.0):
    deadline = time.monotonic() + timeout
    for a in addrs:
        while not healthy(a):
            if time.monotonic() > deadline:
                fail(f"{a} never answered /v1/health")
            time.sleep(0.002)


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()


def teardown():
    while PROCS:
        stop(PROCS.pop())


def peak_rss_mb(procs):
    total_kb = 0
    for p in procs:
        with open(f"/proc/{p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def start_serve(bikron, threads):
    proc = spawn([str(bikron), "serve", *SERVE_SPEC, "--addr", "127.0.0.1:0", "--threads", str(threads), "--admin-token", TOKEN])
    addr = read_banner(proc)
    wait_healthy([addr])
    return [proc], addr, []


def start_cluster(bikron, threads):
    procs, shard_addrs = [], []
    for i in range(2):
        p = spawn([str(bikron), "serve", *CLUSTER_SPEC, "--addr", "127.0.0.1:0", "--threads", str(threads), "--shard", f"{i}/2"])
        procs.append(p)
    shard_addrs = [read_banner(p) for p in procs]
    router = spawn([str(bikron), "router", "--shards", ",".join(shard_addrs), "--addr", "127.0.0.1:0", "--threads", str(threads)])
    procs.append(router)
    addr = read_banner(router)
    wait_healthy(shard_addrs + [addr])
    return procs, addr, shard_addrs


def run_client(cmd, seconds):
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        fail("perfbench client timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"perfbench client exited {r.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["gen-table1", "serve-uniform", "cluster-batch-zipf"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--stall-ms", type=int, default=0)
    ap.add_argument("--plant-wrong", action="store_true")
    ap.add_argument("--drop-conn", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bikron, client = build()
    version = subprocess.run([str(bikron), "--version"], capture_output=True, text=True).stdout.strip()
    cores = nproc()
    threads = min(2, cores)
    cpu = None
    if args.workload != "gen-table1":
        # Everything a serving run starts inherits this affinity.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    out_dir = target_dir() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        common += ["--spans-out", str(spans_out)]

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cores,
        "client_conns": threads,
        "server_threads": threads if args.workload != "gen-table1" else 0,
        "router_threads": threads if args.workload == "cluster-batch-zipf" else 0,
        "pinned_cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "bikron_version": version,
    }
    print("stamp " + json.dumps(stamp), flush=True)

    if args.workload == "gen-table1":
        res = run_client([str(client), "gen", *common], args.seconds)
    else:
        start = start_serve if args.workload == "serve-uniform" else start_cluster
        setups = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            procs, addr, shards = start(bikron, threads)
            setups.append(time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                teardown()
        cmd = [str(client), "load", "--workload", args.workload, "--addr", addr, "--rate", str(OPEN_RATE[args.workload]), "--conns", str(threads),
               "--server-threads", str(threads), *common]
        if shards:
            cmd += ["--shards", ",".join(shards)]
        if args.stall_ms:
            cmd += ["--stall-ms", str(args.stall_ms), "--admin-token", TOKEN]
        if args.plant_wrong:
            cmd += ["--plant-wrong"]
        if args.drop_conn:
            cmd += ["--drop-conn"]
        res = run_client(cmd, args.seconds)
        dead = [p.pid for p in procs if p.poll() is not None]
        if dead:
            fail(f"server process(es) {dead} died during the run")
        rss = peak_rss_mb(procs)
        teardown()
        if not args.trace:
            res["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            res["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        res["notes"]["setup_samples_s"] = " ".join(f"{s:.4f}" for s in setups)

    attempted, failed = res["attempted"], res["failed"]
    not_loaded = NOT_LOADED[args.workload] if args.trace else ()
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if m["name"].startswith(not_loaded):
            if got is not None:
                fail(f"{args.workload} reported {m['name']}, a layer it is not meant to call")
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail(f"client did not report metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} reported in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    notes = res.get("notes", {})
    error_rate = failed / attempted if attempted else 1.0
    print("detail " + json.dumps({**notes, "error_rate": error_rate}), flush=True)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<28} {error_rate:>16.6g} ratio ({failed} of {attempted} failed)")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def on_signal(signum, _frame):
    teardown()
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = main()
    finally:
        teardown()
    sys.exit(code)
