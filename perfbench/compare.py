"""Compare two sets of benchmark runs, one row per workload x end-to-end metric.

Usage::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records ``run.py --output FILE`` appended (one JSON
object per line; run the same workloads into both, several times each --
ten, alternating sides, is what a gain claim needs).  A row's median and
quartiles are taken across the runs of its workload; a single run per side
has no spread, so it can only ever read ``regressed`` or ``ok``.

Verdict against the metric's bound in ``BENCHMARK.json``:

``regressed``   the new median is worse than the old by more than the bound;
``unresolved``  the run-to-run spread (interquartile distance over median, the
                wider of the two sides) exceeds the bound, so "no change"
                cannot be told from noise -- unless every new run reads
                better than every old run;
``ok``          otherwise.

Every ratio is printed with its base (the old median).  The exit code is 1
when any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from timing import summarize  # noqa: E402

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict:
    """``{workload: [record, ...]}`` of the untraced records in ``path``."""
    runs: dict = {}
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(old: dict, new: dict, better: str, bound: float) -> str:
    """``old``/``new``: :func:`timing.summarize` of the metric's value over each side's runs."""
    sign = 1.0 if better == "lower" else -1.0
    if sign * (new["median"] - old["median"]) / old["median"] > bound:
        return "regressed"
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (old, new))
    if spread > bound:
        every_new_run_better = new["max"] < old["min"] if better == "lower" else new["min"] > old["max"]
        return "ok" if every_new_run_better else "unresolved"
    return "ok"


def cell(side: dict) -> str:
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}] ({side['n']})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with MANIFEST.open("r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    old_runs, new_runs = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    print(
        f"{'workload':<18} {'metric':<15} {'unit':<5} {'old median [q1, q3] (n)':<38} "
        f"{'new median [q1, q3] (n)':<38} {'new/old':>8} {'bound':>6}  verdict"
    )
    regressed = 0
    for workload in (entry["name"] for entry in manifest["workloads"]):
        if workload not in old_runs or workload not in new_runs:
            print(f"{workload:<18} missing from {'OLD' if workload not in old_runs else 'NEW'}")
            continue
        for metric in manifest["end_to_end"]:
            old, new = (
                summarize([record["metrics"][metric["name"]]["value"] for record in runs[workload]])
                for runs in (old_runs, new_runs)
            )
            outcome = verdict(old, new, metric["better"], metric["bound"])
            regressed += outcome == "regressed"
            print(
                f"{workload:<18} {metric['name']:<15} {metric['unit']:<5} {cell(old):<38} {cell(new):<38} "
                f"{new['median'] / old['median']:>8.3f} {metric['bound']:>6.2f}  {outcome}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
