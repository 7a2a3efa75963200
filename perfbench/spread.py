"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload stream --seeds 1-10 --seconds 20

Runs the benchmark once per seed, one run at a time, and prints per metric
the median of the runs and the quartile spread (Q3 - Q1) / median, with
the quartiles of ``statistics.quantiles(values, n=4)``, next to the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402  (needs the path above)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-4000:], file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} failed {result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))

    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:32s} median {stats.median(vals):12.5g}  spread {spread:7.4f}  bound {bound}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
