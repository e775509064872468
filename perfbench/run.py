#!/usr/bin/env python3
"""Entry point of the pi3d benchmark.

    python3 perfbench/run.py --workload <dse|fine-mg|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `pi3d` CLI and the
`perfbench` driver from source (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), gives the run a fresh
directory under `.perfbench/` that TMPDIR and PI3D_REPORT_DIR point at
(so no calibration file or socket carries over between runs), runs the
workload, stops anything left behind, and prints the driver's one-line
JSON result as the last line of stdout.

Extra modes:
    --golden    rewrite perfbench/golden.txt from the current code
    --selftest  run the benchmark's own unit tests (no daemon needed)
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dse", "fine-mg", "serve-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cargo(args, env, timeout=BUILD_TIMEOUT_S):
    proc = subprocess.run(
        ["cargo", *args, "--release", "--offline", "--quiet"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with code {proc.returncode}")


def build(env):
    """Builds both binaries; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no pi3d workspace next to the benchmark; run from a full checkout")
    cargo(["build", "-p", "pi3d-cli"], env)
    cargo(["build", "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "pi3d"), os.path.join(release, "perfbench")


def alive(pid):
    """Whether `pid` runs and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def reap_daemon(run_dir):
    """Kills a daemon the driver left behind (it normally stops its own)."""
    try:
        with open(os.path.join(run_dir, "daemon.pid")) as f:
            pid = int(f.read().strip())
    except (OSError, ValueError):
        return
    if alive(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.time() + 10
        while alive(pid) and time.time() < deadline:
            time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the driver child is killed and the
    # daemon reaped below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(
        os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build"))
    if args.selftest:
        cargo(["test", "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
        return
    pi3d, driver = build(env)
    if args.golden:
        subprocess.run([driver, "golden", "--out", os.path.join(HERE, "golden.txt")],
                       cwd=ROOT, env=env, check=True)
        return
    if args.workload is None:
        fail("--workload is required", 2)

    work = os.path.join(ROOT, ".perfbench")
    run_rel = os.path.join(".perfbench", f"run-{os.getpid()}-{time.time_ns()}")
    run_dir = os.path.join(ROOT, run_rel)
    os.makedirs(os.path.join(work, "traces"), exist_ok=True)
    os.makedirs(run_dir)
    env["TMPDIR"] = run_dir
    env["PI3D_REPORT_DIR"] = run_dir
    trace_out = os.path.join(work, "traces", f"{args.workload}-seed{args.seed}.json")
    cmd = [
        driver, "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--golden", os.path.join("perfbench", "golden.txt"), "--pi3d", pi3d,
        "--run-dir", run_rel, "--trace-out", trace_out,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        proc = None
    finally:
        reap_daemon(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run failed with code {proc.returncode}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
