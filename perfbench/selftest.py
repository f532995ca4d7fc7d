#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Percentile, median, sample-count and span self-time math on fixed
   vectors (`cargo test` of the perfbench package).
2. No coordinated omission: a /v1/admin/stall injected into every open
   window must raise both the open-loop p99 and the generator's late p99,
   because every request scheduled during a stall is timed from its
   intended send.
3. The correctness gate: a planted wrong answer makes the command exit
   non-zero with failed > 0 and error_rate > 0.
4. Transport errors count: a client connection shut down mid-window
   fails exactly the request it carried (it is not resent), the next
   request reconnects, and the command exits non-zero.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STALL_MS = 300


def run(*extra, seconds=6):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "serve-uniform", "--seed", "7",
           "--seconds", str(seconds), "--trace", "0", *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return r.returncode, json.loads(lines[-1]), detail


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    return ok


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
                          cwd=ROOT, env=env)
    ok = check(unit.returncode == 0, "percentile / sample-count / self-time unit tests")

    code, base, base_d = run()
    ok &= check(code == 0 and base["correct"], "baseline run is correct")
    code, stalled, stall_d = run("--stall-ms", str(STALL_MS))
    p99_base, p99_stall = float(base_d["p99_us"]), float(stall_d["p99_us"])
    late_base, late_stall = float(base_d["late_p99_us"]), float(stall_d["late_p99_us"])
    print(f"  p99_us {p99_base:.1f} -> {p99_stall:.1f}; late_p99_us {late_base:.1f} -> {late_stall:.1f}")
    ok &= check(code == 0 and stalled["correct"], "stalled run is still correct")
    ok &= check(p99_stall > max(2 * p99_base, 1000 * STALL_MS / 10), "a stall raises the open-loop p99 (no coordinated omission)")
    ok &= check(late_stall > max(2 * late_base, 1000 * STALL_MS / 10), "a stall raises the generator's late p99")

    code, planted, planted_d = run("--plant-wrong", seconds=3)
    ok &= check(code != 0 and not planted["correct"] and planted["failed"] > 0 and planted_d["error_rate"] > 0,
                "a planted wrong answer fails the command with error_rate > 0")

    code, dropped, dropped_d = run("--drop-conn", seconds=3)
    print(f"  dropped connection: failed {dropped['failed']} of {dropped['attempted']}")
    ok &= check(code != 0 and not dropped["correct"] and dropped["failed"] == 1 and dropped_d["error_rate"] > 0,
                "a dropped connection fails its request and the command, and is not retried")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
