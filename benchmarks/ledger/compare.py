"""``--compare A B``: two sets of ledger runs, pair by pair, against the bounds.

``A`` and ``B`` are each one ledger file (``run.py --out``) or several,
comma-separated: the runs of the parent and the runs of the change, or
two sets of runs of one commit (the A/A check).  For every (end-to-end
metric, workload) the tool prints both medians (of the runs' medians),
both quartile pairs, the relative difference of the medians in the
metric's *worse* direction, and the bound.  A pair is

* ``breach`` when B's median is worse than A's by more than the bound;
* ``unresolved`` when either side's run-to-run spread (distance between
  the quartiles over their median) exceeds the bound, so the comparison
  cannot tell a change from noise.  With three or more runs on a side
  the spread is taken over the runs' medians; with fewer, over the
  pooled per-repeat samples, which is wider and therefore cautious;
* ``ok`` otherwise.

Any increase of ``failed_share`` is a breach.  The exit code is non-zero
on a breach or an unresolved pair: an A/A check must come out all ``ok``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from metrics import END_TO_END, bound_for

__all__ = ["compare_ledgers", "main", "spread"]


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    first, median, third = statistics.quantiles(samples, n=4)
    return (third - first) / abs(median) if median else 0.0


def _quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    first, __, third = statistics.quantiles(samples, n=4)
    return first, third


def _side(runs: list[dict[str, Any]], workload: str, metric: str) -> tuple[list[float], float]:
    """One side's per-run medians and its run-to-run spread."""
    cells = [run["workloads"][workload]["end_to_end"][metric] for run in runs]
    medians = [cell["median"] for cell in cells if cell["median"] is not None]
    if len(medians) >= 3:
        return medians, spread(medians)
    pooled = [sample for cell in cells for sample in cell["samples"]]
    return medians, spread(pooled)


def compare_ledgers(
    a: list[dict[str, Any]], b: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """One row per (metric, workload) present on both sides."""
    rows = []
    shared = [w for w in a[0]["workloads"] if all(w in run["workloads"] for run in a + b)]
    for workload in shared:
        for metric, unit, better, __ in END_TO_END:
            values_a, spread_a = _side(a, workload, metric)
            values_b, spread_b = _side(b, workload, metric)
            if not values_a or not values_b:
                continue
            bound = bound_for(metric)
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            change = (median_b - median_a) / median_a
            worse = -change if better == "higher" else change
            noise = max(spread_a, spread_b)
            if worse > bound:
                verdict = "breach"
            elif noise > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "median_a": median_a, "median_b": median_b,
                "quartiles_a": _quartiles(values_a),
                "quartiles_b": _quartiles(values_b),
                "worse_by": worse, "spread": noise, "bound": bound,
                "verdict": verdict,
            })
        failed_a, failed_b = (
            sum(run["workloads"][workload]["failed"] for run in side)
            / sum(run["workloads"][workload]["attempted"] for run in side)
            for side in (a, b)
        )
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "share",
            "median_a": failed_a, "median_b": failed_b,
            "quartiles_a": (failed_a, failed_a),
            "quartiles_b": (failed_b, failed_b),
            "worse_by": failed_b - failed_a, "spread": 0.0, "bound": 0.0,
            "verdict": "breach" if failed_b > failed_a else "ok",
        })
    return rows


def _load(paths: str) -> list[dict[str, Any]]:
    return [json.loads(Path(path).read_text()) for path in paths.split(",")]


def main(path_a: str, path_b: str) -> int:
    rows = compare_ledgers(_load(path_a), _load(path_b))
    print(f"{'workload':<19}{'metric':<20}{'A median [q1, q3]':>38}"
          f"{'B median [q1, q3]':>38}{'worse by':>10}{'spread':>8}{'bound':>7}")
    for row in rows:
        cells = [
            f"{row[f'median_{side}']:,.4g} "
            f"[{row[f'quartiles_{side}'][0]:,.4g}, {row[f'quartiles_{side}'][1]:,.4g}]"
            for side in "ab"
        ]
        print(f"{row['workload']:<19}{row['metric']:<20}{cells[0]:>38}"
              f"{cells[1]:>38}{row['worse_by']:>+10.1%}{row['spread']:>8.1%}"
              f"{row['bound']:>7.0%}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(f"{len(rows)} pairs: {len(bad)} not ok "
          f"({sum(r['verdict'] == 'breach' for r in bad)} breach, "
          f"{sum(r['verdict'] == 'unresolved' for r in bad)} unresolved)")
    return 1 if bad else 0
