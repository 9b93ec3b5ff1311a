"""Summarize the run records in perfbench/out/ across seeds.

    python3 perfbench/summarize.py > perfbench/baseline.json

For every workload: each end-to-end metric's median, quartiles and spread
(q3 - q1 as a share of the median, from `statistics.quantiles(values, n=4)`)
over the end-to-end runs, checked against its bound in BENCHMARK.json; and
the median of each per-layer metric over the traced runs.  Writes the table to
stderr and the summary, with the seeds and the machine metadata, as JSON to
stdout.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = defaultdict(lambda: ([], []))
    for path in sorted((ROOT / "perfbench" / "out").glob("*.json")):
        rec = json.loads(path.read_text())
        records[rec["workload"]][rec["trace"]].append(rec)
    summary = {}
    ok = True
    for name, (plain, traced) in sorted(records.items()):
        entry = {"seeds": sorted(r["seed"] for r in plain),
                 "failed": sum(r["failed"] for r in plain + traced),
                 "attempted": sum(r["attempted"] for r in plain + traced),
                 "end_to_end": {}, "per_layer": {}}
        for key, bound in bounds.items():
            values = [r["metrics"][key]["value"] for r in plain if key in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][key] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "bound": bound,
                                        "unit": plain[0]["metrics"][key]["unit"],
                                        "n": len(values)}
            # setup_s is exempt from the spread rule; its bound only limits drift
            flag = "" if key == "setup_s" or spread < bound else "  SPREAD > BOUND"
            ok = ok and not flag
            print(f"{name:16} {key:12} median {med:9.4f}  spread {spread:6.3f} "
                  f"(bound {bound}, n={len(values)}){flag}", file=sys.stderr)
        for key in (traced[0]["metrics"] if traced else {}):
            values = [r["metrics"][key]["value"] for r in traced]
            entry["per_layer"][key] = {"median": statistics.median(values),
                                       "unit": traced[0]["metrics"][key]["unit"],
                                       "n": len(values)}
        summary[name] = entry
    machine = next((r["machine"] for p, t in records.values() for r in p + t), None)
    json.dump({"machine": machine, "workloads": summary}, sys.stdout, indent=1)
    print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
