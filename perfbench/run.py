#!/usr/bin/env python3
"""Build the benchmark and prbpd from source, then run one workload.

    python3 perfbench/run.py --workload exact|bracket|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/src/bench.exe
and bin/prbpd.exe with dune (release profile, build directory
.bench_build, shared cache off, so nothing is written outside the
checkout), runs the workload, and passes its output through; the last
line of stdout is the JSON verdict.  Per-run traces land in .bench_out.

    python3 perfbench/run.py --smoke

runs the smoke test instead: every workload briefly, at both trace
levels, checking that each emits exactly the metrics BENCHMARK.json
names (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "bench.exe")
PRBPD_EXE = os.path.join(BUILD_DIR, "default", "bin", "prbpd.exe")
WORKLOADS = ["exact", "bracket", "serve"]
# a run must end within 180 s; this leaves room to reap the child
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ["dune-project", "lib", os.path.join("bin", "prbpd.ml"),
                 os.path.join("perfbench", "src", "bench.ml")]:
        if not os.path.exists(path):
            fail("not the root of a prbp checkout (missing %s)" % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "perfbench/src/bench.exe", "bin/prbpd.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def commit():
    """The commit when run from a git clone; else a digest of the sources."""
    if not os.path.isdir(".git"):
        return source_digest()
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return source_digest()


def source_digest():
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench"]:
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(root, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run(workload, seed, seconds, trace, capture=False):
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--prbpd", PRBPD_EXE, "--out", OUT_DIR, "--commit", commit()]
    # own process group, so a timeout also takes down the daemon
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                         start_new_session=True, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("workload %s exceeded %d s" % (workload, RUN_TIMEOUT_S), 3)
    return p.returncode, out


def smoke():
    """Each workload at both trace levels emits exactly its metrics."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    # serve runs here too, though BENCHMARK.json leaves it out (see README)
    assert set(w["name"] for w in spec["workloads"]) <= set(WORKLOADS), "workload list drifted"
    bad = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run(w, 1, 2, trace, capture=True)
            line = out.strip().splitlines()[-1] if out.strip() else "{}"
            res = json.loads(line)
            got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            ok = (code == 0 and res.get("correct") is True and res.get("failed") == 0
                  and res.get("attempted", 0) >= 1 and got == want[trace]
                  and all(isinstance(v["value"], (int, float))
                          for v in res["metrics"].values()))
            print("smoke %-8s trace=%d: %s" % (w, trace, "ok" if ok else "FAILED"))
            if not ok:
                bad += 1
                print("  exit %d; missing %s; unexpected %s" % (
                    code, sorted(set(want[trace]) - set(got)),
                    sorted(set(got) - set(want[trace]))))
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    check_checkout()
    build()
    if args.smoke:
        smoke()
    if args.workload is None:
        fail("--workload is required")
    code, _ = run(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
