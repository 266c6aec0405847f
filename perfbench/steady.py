#!/usr/bin/env python3
"""Run one workload of the benchmark under several seeds and report, for
each end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) next to the metric's
bound from BENCHMARK.json. Run from the checkout root:

    python3 perfbench/steady.py --workload serve --seeds 1-10

Appends one JSON line per workload to --out (default
.bench_build/steady.jsonl) so the figures can be copied into
perfbench/NOTES.md.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=".bench_build/steady.jsonl")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        elapsed = time.time() - start
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect run\n{proc.stdout}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({elapsed:.0f}s): " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "metrics": {}}
    for m in spec["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]}
        flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO NOISY")
        print(f"{m['name']:>12}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} spread {spread:.3f} "
              f"bound {m['bound']} {flag}")
    with open(args.out, "a") as f:
        f.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main()
