"""Run the benchmark over several seeds and summarise it as a BENCH file.

    python3 perfbench/collect.py --label baseline

Reads BENCHMARK.json at the checkout root and, one child at a time, runs its
command on every workload with seeds 1..10 and --trace 0, then twice with
--trace 1 on seed 1.  It prints, per workload and end-to-end metric, the
median, the quartiles and the spread (interquartile range over the median)
against a third of the metric's bound.  It fails if any spread is over its
bound, if any run is not correct, or if the two traced runs disagree on a
count.  With --label it writes results/BENCH_<label>.json beside this
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "bytes", "ratio")
SEEDS = tuple(range(1, 11))


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    return result


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    summary, ok = {}, True

    for workload in (w["name"] for w in spec["workloads"]):
        timed = [run_once(spec, workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        traced = [run_once(spec, workload, SEEDS[0], spec["run_seconds"], 1) for _ in range(2)]
        for res, keys in [(r, e2e) for r in timed] + [(r, layer) for r in traced]:
            if set(res["metrics"]) != set(keys):
                raise SystemExit(f"{workload}: metrics {sorted(res['metrics'])} do not match BENCHMARK.json")
            ok = ok and res["correct"]

        rows = {}
        print(f"== {workload}: {len(SEEDS)} seeds, {spec['run_seconds']} s each")
        for name, m in e2e.items():
            rows[name] = spread([r["metrics"][name]["value"] for r in timed])
            steady = rows[name]["spread"] < m["bound"] / 3.0
            ok = ok and rows[name]["spread"] <= m["bound"]
            print(f"  {name:18} median {rows[name]['median']:.6g} {m['unit']:4} "
                  f"spread {rows[name]['spread']:.4f} bound {m['bound']} "
                  f"{'steady' if steady else 'NOT below bound/3'}  "
                  f"[{', '.join(f'{v:.4g}' for v in rows[name]['values'])}]")
        mismatched = [n for n, m in layer.items() if m["unit"] in EXACT_UNITS
                      and traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"]]
        ok = ok and not mismatched
        print(f"  traced counts repeat exactly across two runs: {not mismatched} {mismatched or ''}")
        summary[workload] = {
            "end_to_end": rows,
            "attempted": [r["attempted"] for r in timed],
            "failed": [r["failed"] for r in timed],
            "correct": [r["correct"] for r in timed] + [r["correct"] for r in traced],
            "failing_inputs": sorted({n.split(": ", 1)[1] for r in timed for n in r["notes"]
                                      if n.startswith(("fail: ", "unstable: "))}),
            "notes": timed[0]["notes"][:2] + [n for r in timed for n in r["notes"]
                                              if "latency_tail_ms is" in n],
            "per_layer": {n: v["value"] for n, v in traced[0]["metrics"].items()},
            "per_layer_notes": [n for n in traced[0]["notes"] if not n.startswith("fail: ")],
            "counts_repeat": not mismatched,
        }

    if args.label:
        out = HERE / "results" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"label": args.label, "seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
                                   "workloads": summary}, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    print("all correct, spreads within bounds, counts repeat" if ok else "CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
