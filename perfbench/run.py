#!/usr/bin/env python3
"""PISA serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists):
  paillier-requests  closed loop of nproc SU sessions over the Paillier pipeline
  spectrum-churn     the seeded dynamic-spectrum scenario, tick by tick

The script builds perfbench/ (which compiles the library under src/) into
.bench_build/ with CMake, runs the measuring binary under a watchdog, and
prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Earlier stdout lines carry the host/build
record and the binary's full report (every end-to-end metric the workload
produces, failed_frac included). Exit status: 0 on success, 1 on a wrong
decision (oracle or signature mismatch) or a failed self-check of the
measurement (the traced layer-sum check), 2 on a build or usage failure,
3 when the run hung or aborted before its report. A run is never retried;
a hang or crash while tearing down after a complete report is counted as
one failed operation in the result line and logged with workload and seed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "pisa_perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
WORKLOADS = ("paillier-requests", "spectrum-churn")
# The binary must finish well inside the 180 s a run may take; once its
# report is out, teardown gets TEARDOWN_GRACE_S of that.
WATCHDOG_S = 150
TEARDOWN_GRACE_S = 20


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step; on failure show its output and return False."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        log("build step failed: " + " ".join(cmd))
        return False
    return True


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under src/; run from the repository root")
        return False
    jobs = str(os.cpu_count() or 1)
    return (run_quiet(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"]) and
            run_quiet(["cmake", "--build", CMAKE_DIR, "-j", jobs]))


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need not
    be a git repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(args):
    """Run the measuring binary under the watchdog; once its report is out,
    teardown gets TEARDOWN_GRACE_S more. Returns (exit code, killed, lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    lines, reported = [], threading.Event()

    def read():
        for line in proc.stdout:
            lines.append(line)
            if line.startswith('{"report"'):
                reported.set()

    reader = threading.Thread(target=read)
    reader.start()
    deadline = time.monotonic() + WATCHDOG_S
    while proc.poll() is None and not reported.is_set() and time.monotonic() < deadline:
        reported.wait(timeout=0.5)
    if reported.is_set():
        deadline = min(deadline, time.monotonic() + TEARDOWN_GRACE_S)
    killed = False
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        killed = True
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    reader.join()
    return proc.returncode, killed, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build():
        return 2

    code, killed, lines = run_binary(args)
    host = report = None
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        host = obj.get("host", host)
        report = obj.get("report", report)
    what = "workload %s seed %d" % (args.workload, args.seed)
    how = ("hung (killed by the watchdog)" if killed else
           "died of signal %d" % -code if code < 0 else "exited %d" % code)
    if report is None or host is None:
        log("%s %s before its report; a failed run, not retried" % (what, how))
        return 3
    if killed or code not in (0, 1):
        # The figures and decision checks are complete; tearing the
        # deployment down is one more operation, and it failed.
        log("%s %s while tearing down after its report; counted in failed, "
            "not retried" % (what, how))
        report["attempted"] += 1
        report["failed"] += 1
        report["failed_frac"] = report["failed"] / report["attempted"]

    host.update({"source_digest": source_digest(), "git_rev": git_rev()})
    print(json.dumps({"host": host}))
    print(json.dumps({"report": report}))

    table = report["layers"] if args.trace else report["metrics"]
    metrics = {}
    for m in wanted:
        got = table.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("workload %s did not report %s [%s]"
                % (args.workload, m["name"], m["unit"]))
            return 3
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    checks = report["failed_checks"]
    correct = report["mismatches"] == 0 and not checks
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.stdout.flush()
    if report["mismatches"]:
        log("%s: %d wrong decision(s)" % (what, report["mismatches"]))
    for check in checks:
        log("%s: check failed: %s" % (what, check))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
