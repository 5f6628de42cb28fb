#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--tiny]

The first call configures and builds perfbench/ (which compiles the library
from ../src) into .bench_build/; later calls reuse that build. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
Exits non-zero without a result when the library sources are missing or the
build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    env = dict(os.environ)
    env.pop("BLOCKTRI_THREADS", None)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", "4"], stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def git_sha():
    # Only a checkout that is itself a git work tree has a SHA to report.
    if not os.path.exists(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", os.path.join(BUILD, "out"), "--git-sha", git_sha()]
    if a.tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    env.pop("BLOCKTRI_THREADS", None)
    # Own process group, so shard workers forked by the benchmark are stopped
    # with it whatever happens.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("{")))
        fail(f"benchmark exited with code {proc.returncode} and no result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
