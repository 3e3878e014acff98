#!/usr/bin/env python3
"""Steadiness check for the benchmark. Runs every workload of BENCHMARK.json
once per seed with --trace 0, in one or more sets back to back, and prints,
per workload and end-to-end metric, each set's median and spread (Q3 - Q1
over the median, quartiles as statistics.quantiles(values, n=4) gives them)
and the last set's median against the first's, oriented so that > 1 is worse.

A metric passes when its spread in every set is within its bound (setup_s
excepted) and the last set's median is not worse than the first's by more
than the bound. The same figures before the yardstick scaling (see
perfbench/yardstick.go) are printed beside them.

Run from the repository root:

    python3 perfbench/steady.py --sets 2 --json perfbench/STEADINESS.json

--seconds defaults to BENCHMARK.json's run_seconds; --workloads narrows the
run to a comma-separated list. The exit code is 1 when any metric fails.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

# End-to-end metrics the yardstick scales; the run prints them unscaled too.
UNSCALED = ("rounds_per_s", "round_p50_ms", "round_tail_ms", "cpu_ms_per_round", "setup_s")


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    res = json.loads(lines[-1])
    info = [l for l in lines[:-1] if l.startswith("# ")]
    unscaled = {}
    for l in info:
        if l.startswith("# unscaled "):
            f = l.split()[2:]
            unscaled = {f[i]: float(f[i + 1]) for i in range(0, len(f), 2)}
    digest = next((l.split()[-1] for l in info if l.startswith("# digest ")), "")
    return {"seed": seed, "result": res, "unscaled": unscaled, "digest": digest, "wall_s": wall}


def summary(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q[2] - q[0]) / med if med else 0.0}


def worse(first, last, better):
    if not first or not last:
        return 1.0 if first == last else float("inf")
    r = last / first
    return 1 / r if better == "higher" else r


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--json")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        runs = {}
        for w in workloads:
            runs[w] = []
            for seed in seed_list(args.seeds):
                r = run_once(bench, w, seed, args.seconds)
                runs[w].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['result']['correct']} "
                      f"attempted={r['result']['attempted']} failed={r['result']['failed']} "
                      f"digest={r['digest']}", flush=True)
        sets.append(runs)

    ok = True
    report = {}
    for w in workloads:
        rows = {}
        for name, m in metrics.items():
            row = {"bound": m["bound"], "sets": [], "unscaled_sets": []}
            for runs in sets:
                row["sets"].append(summary([r["result"]["metrics"][name]["value"] for r in runs[w]]))
                if name in UNSCALED:
                    row["unscaled_sets"].append(summary([r["unscaled"][name] for r in runs[w]]))
            row["last_vs_first"] = worse(row["sets"][0]["median"], row["sets"][-1]["median"], m["better"])
            if row["unscaled_sets"]:
                row["unscaled_last_vs_first"] = worse(row["unscaled_sets"][0]["median"],
                                                      row["unscaled_sets"][-1]["median"], m["better"])
            else:
                del row["unscaled_sets"]
            spread_ok = name == "setup_s" or all(s["spread"] <= m["bound"] for s in row["sets"])
            row["pass"] = spread_ok and row["last_vs_first"] - 1 <= m["bound"]
            ok = ok and row["pass"]
            rows[name] = row
            spreads = " ".join(f"{s['spread']:.4f}" for s in row["sets"])
            raw = " ".join(f"{s['spread']:.4f}" for s in row.get("unscaled_sets", []))
            print(f"{w:13s} {name:22s} median {row['sets'][-1]['median']:12.6g} spread {spreads}"
                  f"  last/first {row['last_vs_first']:.4f}  bound {m['bound']}"
                  f"  {'ok' if row['pass'] else 'FAIL'}"
                  + (f"  | unscaled spread {raw} last/first {row['unscaled_last_vs_first']:.4f}" if raw else ""))
        # How strongly each unscaled timing follows the host's phases: the
        # slope of its log against the log of the run's median yardstick wall
        # reading, over every run (a rate has the opposite sign). Near 1, the
        # host's phases explain the timing's spread; near 0, it comes from
        # elsewhere.
        xs = [math.log(r["unscaled"]["yardstick_ms"]) for runs in sets for r in runs[w]]
        mx = statistics.mean(xs)
        sxx = sum((x - mx) ** 2 for x in xs)
        slopes = {}
        for name in UNSCALED:
            ys = [math.log(r["unscaled"][name]) for runs in sets for r in runs[w]]
            my = statistics.mean(ys)
            slopes[name] = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
        print(f"{w:13s} log-log slope against the yardstick: "
              + " ".join(f"{k} {v:+.2f}" for k, v in slopes.items()))
        walls = [r["wall_s"] for runs in sets for r in runs[w]]
        print(f"{w:13s} run wall time median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        digests = [[r["digest"] for r in runs[w]] for runs in sets]
        same = all(d == digests[0] for d in digests)
        ok = ok and same
        report[w] = {"metrics": rows, "yardstick_slopes": slopes,
                     "digests_identical_across_sets": same, "digests": digests[0],
                     "runs": [[{"seed": r["seed"], "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                                "unscaled": r["unscaled"], "wall_s": round(r["wall_s"], 2)}
                               for r in runs[w]] for runs in sets]}
    if args.json:
        env = {
            "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
            "GOMAXPROCS": "2 (set in perfbench/main.go)",
            "nproc": subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip(),
            "commit": subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                                     text=True).stdout.strip() + " plus the working tree",
        }
        with open(args.json, "w") as f:
            json.dump({"about": __doc__.strip().split("\n\n")[0], "seconds": args.seconds,
                       "seeds": args.seeds, "environment": env, "pass": ok, "workloads": report},
                      f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
