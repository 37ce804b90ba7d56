#!/usr/bin/env python3
"""Runs nodebench over several seeds and summarises each metric.

Run from the repository root:

    python3 nodebench/spread.py --workload serve-mixed --seeds 1-10 [--trace 0] [--seconds 20]

For each metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4), the spread (IQR over median) and, for
end-to-end metrics, the bound from BENCHMARK.json. The summary is one
JSON object on the last line, in the shape nodebench/baseline.json
records.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=float)
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for s in seeds(a.seeds):
        cmd = spec["command"] + ["--workload", a.workload, "--seed", str(s),
                                 "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {s}: incorrect\n{out.stdout}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())
                                        if k in bounds), file=sys.stderr)
    summary = {}
    for name, xs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        row = {"n": len(xs), "median": med, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / abs(med) if med else 0.0}
        if name in bounds:
            row["bound"] = bounds[name]
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{name:18s} median {med:.5g} spread {row['spread']:.4f} bound {bounds[name]}{flag}", file=sys.stderr)
        summary[name] = row
    print(json.dumps({"workload": a.workload, "seeds": a.seeds, "seconds": seconds, "metrics": summary}))


if __name__ == "__main__":
    main()
