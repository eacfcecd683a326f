#!/usr/bin/env python3
"""Record a trajectory point: every workload over several seeds.

    python3 perfbench/record.py [--seeds 1-10] [--seconds 30]
                                [--workloads a,b] [--out FILE]

Runs run.py once per seed and workload untraced, plus one traced run
per workload, and prints, per end-to-end metric, the median, the
quartiles and their distance as a share of the median (the run-to-run
spread that BENCHMARK.json's bounds are set against).  With --out it
writes the point as JSON (see README.md, "Trajectory").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.splitlines()
    if not lines:
        sys.exit("%s seed %d: no output (exit %d)\n%s" % (
            workload, seed, p.returncode, p.stderr[-2000:]))
    last = json.loads(lines[-1])
    host = {}
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[0] == "host":
            host[parts[1]] = parts[2]
    return p.returncode, last, host


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_from(args.seeds)

    point = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    failures = 0
    for w in workloads:
        values, units = {}, {}
        for seed in seeds:
            rc, last, host = run_once(w, seed, seconds, 0)
            backend = host.pop("backend", "")
            point["fingerprint"] = {k: v for k, v in host.items()
                                    if k != "seed"}
            if rc != 0 or not last["correct"]:
                failures += 1
                print("%s seed %d: NOT CORRECT (exit %d, %d/%d failed)" % (
                    w, seed, rc, last["failed"], last["attempted"]))
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (k, m["value"])
                for k, m in last["metrics"].items())), flush=True)
        e2e = {}
        for name, vs in values.items():
            s = spread(vs)
            s["unit"] = units[name]
            e2e[name] = s
            mark = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 \
                else ("  > bound/3" if s["spread"] <= bounds[name]
                      else "  > BOUND")
            print("  %-12s %-12s median %-12.6g spread %.3f (bound %.2f)%s"
                  % (w, name, s["median"], s["spread"], bounds[name], mark))
        rc, last, _ = run_once(w, seeds[0], seconds, 1)
        if rc != 0 or not last["correct"]:
            failures += 1
        point["workloads"][w] = {
            "backend": backend,
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in last["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
