"""Summaries of one ledger file and the verdicts between two.

``summarize`` prints, per workload, each end-to-end metric's median and
quartiles over a suite's runs, and the traced run's per-layer numbers.

``compare PARENT.json CHANGE.json`` pairs the two files' runs by seed
(the same seed is the same input) and gives each end-to-end metric on
each workload one verdict:

``gain``
    the change wins at least 9/10 of the pairs (ties count for neither),
    its median is better by more than the parent's interquartile range,
    and no larger share of operations failed than at the parent;
``regression``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``unresolved``
    neither, and the spread of either side is wider than the bound
    (unless every change run beats every parent run);
``same``
    otherwise.

``baseline A.json B.json OUT.json`` keeps only the medians and quartiles
of two suite files (and the first one's traced per-layer numbers): the
form ``BASELINE.json`` is committed in.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

__all__ = ["quartiles", "summarize", "verdict", "main_compare", "main_baseline"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(runs: list[dict], metric: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs}


def _fail_share(runs: list[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / attempted if attempted else 0.0


def summarize(ledger: dict, spec: dict) -> int:
    """Print one ledger; returns the number of incorrect or failing runs."""
    bad = 0
    print(f"host: {json.dumps(ledger['host'], sort_keys=True)}")
    print(f"seeds: {ledger['seeds']}  seconds per run: {ledger['seconds']}")
    for workload, runs in ledger["runs"].items():
        print(f"\n== {workload} ({len(runs)} runs)")
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles(list(_values(runs, m["name"]).values()))
            spread = (q3 - q1) / q2 if q2 else 0.0
            print(f"  {m['name']:<36} {q2:>12.6g} {m['unit']:<9} "
                  f"[{q1:.6g}, {q3:.6g}] iqr/median {spread:.3f} (bound {m['bound']})")
        share = _fail_share(runs)
        incorrect = [r["seed"] for r in runs if not r["result"]["correct"]]
        print(f"  failed share {share:.6f}; incorrect seeds {incorrect or 'none'}")
        bad += len(incorrect) + sum(r["result"]["failed"] > 0 for r in runs)
        traced = ledger["traced"].get(workload)
        if traced:
            plain = {r["seed"]: r["digest"] for r in runs}
            same = plain.get(traced["seed"]) == traced["digest"]
            print(f"  traced seed {traced['seed']}: digest {'matches' if same else 'DIFFERS FROM'} "
                  f"the untraced run; correct={traced['result']['correct']}")
            bad += (not same) + (not traced["result"]["correct"])
            for name, m in traced["result"]["metrics"].items():
                if m["value"]:
                    print(f"    {name:<40} {m['value']:>12.6g} {m['unit']}")
    return bad


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            fail_parent: float = 0.0, fail_change: float = 0.0) -> tuple[str, int]:
    """The verdict for one metric on one workload, and the change's wins.

    ``parent`` and ``change`` are paired: index ``i`` of both ran the same
    seed.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if (wins >= 0.9 * len(parent) and gain > p3 - p1 and gain > 0
            and fail_change <= fail_parent):
        return "gain", wins
    if pm and -gain / abs(pm) > bound:
        return "regression", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    separated = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not separated:
        return "unresolved", wins
    return "same", wins


def main_compare(argv: list[str]) -> int:
    from benchmarks.ledger.run import declared

    if len(argv) != 2:
        print("usage: compare PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    spec = declared()
    regressions = 0
    for workload in parent["runs"]:
        p_runs, c_runs = parent["runs"][workload], change["runs"].get(workload, [])
        seeds = sorted(set(_values(p_runs, "setup_s")) & set(_values(c_runs, "setup_s")))
        if not seeds:
            print(f"\n== {workload}: no common seeds")
            continue
        fp, fc = _fail_share(p_runs), _fail_share(c_runs)
        p_dig = {r["seed"]: r["digest"] for r in p_runs}
        c_dig = {r["seed"]: r["digest"] for r in c_runs}
        differ = [s for s in seeds if p_dig[s] != c_dig[s]]
        print(f"\n== {workload}: {len(seeds)} pairs; failed share parent {fp:.6f} "
              f"change {fc:.6f}; digests {'identical' if not differ else f'differ on seeds {differ}'}")
        for m in spec["end_to_end"]:
            pv, cv = _values(p_runs, m["name"]), _values(c_runs, m["name"])
            p = [pv[s] for s in seeds]
            c = [cv[s] for s in seeds]
            result, wins = verdict(p, c, m["better"], m["bound"], fp, fc)
            regressions += result == "regression"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"  {m['name']:<14} parent {pm:>11.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:>11.6g} [{c1:.6g}, {c3:.6g}] {m['unit']:<8} "
                  f"wins {wins}/{len(seeds)}  {result}")
    return 1 if regressions else 0


def main_baseline(argv: list[str]) -> int:
    from benchmarks.ledger.run import declared

    if len(argv) != 3:
        print("usage: baseline SET1.json SET2.json OUT.json", file=sys.stderr)
        return 2
    sets = [json.loads(Path(p).read_text()) for p in argv[:2]]
    spec = declared()

    def summary(ledger: dict) -> dict:
        out = {}
        for workload, runs in ledger["runs"].items():
            out[workload] = {}
            for m in spec["end_to_end"]:
                q1, q2, q3 = quartiles(list(_values(runs, m["name"]).values()))
                out[workload][m["name"]] = {"q1": q1, "median": q2, "q3": q3, "unit": m["unit"]}
            out[workload]["failed_share"] = _fail_share(runs)
        return out

    baseline = {
        "host": sets[0]["host"],
        "seconds": sets[0]["seconds"],
        "seeds": sets[0]["seeds"],
        "sets": [summary(ledger) for ledger in sets],
        "per_layer": {
            w: {name: m["value"] for name, m in t["result"]["metrics"].items() if m["value"]}
            for w, t in sets[0]["traced"].items()
        },
    }
    Path(argv[2]).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0
