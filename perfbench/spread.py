#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound in BENCHMARK.json. A spread over a third of its
bound is flagged, setup_s's too.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads analytic,churn,served --seeds 1-10 [--out perfbench/runs.json --set end_to_end]

With --out the values of every run are written there under the set's
name, merged with what the file already holds, and the summary under
"<set>_summary". A set other than end_to_end is also compared with the
end_to_end set: worse_than_first_set is how much worse its median is
than that set's, as a share of that set's (negative: better).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs, metrics):
    out = {}
    for m in metrics:
        vals = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": round((q3 - q1) / med, 4) if med else None, "bound": m["bound"]}
    return out


def steal_s():
    """CPU time the hypervisor gave to other guests, from /proc/stat (0 where absent)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def worse(first, now, better):
    d = (now - first) / first
    return round(d if better == "lower" else -d, 4)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="analytic,churn,served")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--set", default="end_to_end", help="name the runs are saved under in --out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t, st = time.time(), steal_s()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took, stolen = time.time() - t, steal_s() - st
            if p.returncode != 0:
                sys.stderr.write(p.stderr)
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            report = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench-work",
                                  f"report-{w}-seed{seed}-trace{'true' if args.trace else 'false'}.json")
            with open(report) as f:
                shapes = json.load(f)["notes"].get("shapes")
            runs[w].append({"seed": seed, "wall_s": round(took, 1), "steal_s": round(stolen, 1),
                            "attempted": res["attempted"],
                            "failed": res["failed"],
                            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                            "shapes": shapes})
            print(f"{w} seed {seed}: {took:.1f}s steal={stolen:.1f}s attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        if args.trace or len(runs[w]) < 2:
            continue
        print(f"\n{w}: {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, s in summarize(runs[w], metrics).items():
            flag = "" if s["spread"] is not None and s["spread"] < s["bound"] / 3 else "  <-- over a third of the bound"
            print(f"{w}: {name:<22} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {s['bound']:6.2f}{flag}")
        print(flush=True)

    if args.out:
        try:
            with open(args.out) as f:
                saved = json.load(f)
        except FileNotFoundError:
            saved = {}
        key = "trace" if args.trace else args.set
        for w, rs in runs.items():
            saved.setdefault(key, {})[w] = rs
            if args.trace:
                continue
            summary = summarize(rs, metrics)
            first = saved.get("end_to_end_summary", {}).get(w)
            if key != "end_to_end" and first:
                for m in metrics:
                    summary[m["name"]]["worse_than_first_set"] = worse(
                        first[m["name"]]["median"], summary[m["name"]]["median"], m["better"])
            saved.setdefault(key + "_summary", {})[w] = summary
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
