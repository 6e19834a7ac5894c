"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --workloads desk_full catalog_5k \
        --seeds 0-9 --trace 0 --out .bench_out/summary.json

Runs are sequential, one process at a time. For every workload and metric
the summary holds the values, median, quartiles and the quartile spread as
a share of the median (`statistics.quantiles(values, n=4)`), and flags each
end-to-end spread that exceeds a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        names = runs[0]["metrics"]
        summary[workload] = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in runs])}
            for name in names}
        for name, s in summary[workload].items():
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of bound {bounds[name]}"
            print(f"  {name:45s} median {s['median']:12.6g} {s['unit']:8s} "
                  f"spread {100 * s['spread']:6.2f}%{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                    "trace": args.trace, "summary": summary},
                                   indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
