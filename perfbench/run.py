#!/usr/bin/env python3
"""The repo benchmark, as one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds perfbench/ (and the library sources in src/ it links) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the `zbench` binary, prints every metric with its unit and sample count
plus a host fingerprint, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json,
`--trace 1` the per-layer ones.  The exit code is 0 only when every
output matched its reference.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("phy_native", "serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return root


def child_env():
    """Environment for the compilers and zbench: temporary files stay in
    the build tree, and the zcgen cache is always the explicit one."""
    env = dict(os.environ)
    env.pop("ZIRIA_CGEN_CACHE", None)
    env["TMPDIR"] = os.path.join(build_root(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configure (once) and build zbench; returns the binary's path."""
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "zbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=child_env(),
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if rc != 0:
                # A failed configure must not be mistaken for a cached one.
                if cmd[1] == "-S":
                    try:
                        os.remove(os.path.join(bdir, "CMakeCache.txt"))
                    except OSError:
                        pass
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s); log in %s" % (" ".join(cmd), log))
    return os.path.join(bdir, "zbench")


def tree_hash():
    """sha256 over the library and benchmark sources (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".cc", ".h", ".txt", ".cpp")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def fingerprint(info, seed):
    fp = {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cxx": info.get("cxx", ""),
        "cxx_flags": info.get("cxx_flags", ""),
        "zcgen_cxx": info.get("zcgen_compiler", ""),
        "backend": info.get("backend", ""),
        "git_rev": git_rev(),
        "src_hash": tree_hash(),
    }
    return fp


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_zbench(binary, workload, seed, seconds, trace, smoke=False):
    """Run one measurement; returns (exit code, stdout lines, report)."""
    out_dir = os.path.join(build_root(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--cache-dir", os.path.join(build_root(), "perfbench-cgen")]
    if trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "spans-%s-s%d.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (workload, p.returncode))
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON (exit %d)" % (workload, p.returncode))
    return p.returncode, lines[:-1], report


def check_printed(lines, names, kind):
    """Every metric must print as '<kind> name value unit n=samples'."""
    missing = []
    for name in names:
        ok = False
        for line in lines:
            parts = line.split()
            if (len(parts) == 5 and parts[0] == kind and parts[1] == name
                    and parts[4].startswith("n=")):
                float(parts[2])
                ok = True
        if not ok:
            missing.append(name)
    return missing


def measure(args):
    binary = build()
    rc, lines, report = run_zbench(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    fp = fingerprint(report.get("info", {}), args.seed)
    for line in lines:
        print(line)
    for k, v in fp.items():
        print("host    %-12s %s" % (k, v))

    names = expected_metrics(args.trace)
    source = report["layers"] if args.trace else report["metrics"]
    missing = [n for n in names if n not in source]
    if missing:
        fail("%s did not report %s" % (args.workload, ", ".join(missing)))
    metrics = {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
               for n in names}
    correct = (rc == 0 and report["failed"] == 0 and report["self_check"])

    out_dir = os.path.join(build_root(), "perfbench-results")
    record = dict(report, fingerprint=fp, workload=args.workload,
                  trace=args.trace, correct=correct)
    with open(os.path.join(out_dir, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def smoke():
    """Each workload on a tiny seeded input, untraced and traced: every
    named metric must print with its unit and sample count, the JSON
    must parse, and every output must match its reference."""
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            rc, lines, report = run_zbench(binary, workload, 7, 1, trace,
                                           smoke=True)
            names = expected_metrics(trace)
            kind = "layer" if trace else "e2e"
            source = report["layers"] if trace else report["metrics"]
            tag = "%s trace=%d" % (workload, trace)
            before = len(problems)
            for n in check_printed(lines, names, kind):
                problems.append("%s: %s not printed" % (tag, n))
            for n in names:
                m = source.get(n)
                if m is None or not m.get("unit") or "samples" not in m:
                    problems.append("%s: %s missing in JSON" % (tag, n))
            if rc != 0 or report["failed"] or not report["self_check"]:
                problems.append("%s: exit %d, %d failed, self_check %s" % (
                    tag, rc, report["failed"], report["self_check"]))
            print("smoke %-24s %s" % (
                tag, "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("smoke problem: " + p, file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
