"""Online learning loop benchmark: freshness uplift + promote latency.

Measures the two numbers the online subsystem exists for (see
``docs/online.md``):

* **freshness** — top-k recovery of newly-introduced users' applied
  interactions, served by the continuously-deployed model vs a baseline
  frozen at the bootstrap generation.  Fully deterministic per seed (the
  replay runs on a manual clock).
* **promote latency** — wall-clock seconds from "commit the dirty rows"
  to "candidate is live" (store commit + pinned serve-mode open + ANN
  index sync + canary probe + watch), reported as p50 and mean per seed
  and across every promotion cycle of every seed.  A full run has about
  35 cycles, so its p99 would be nearly its largest sample: no tail
  percentile is quoted;
* **index build** — wall-clock seconds of each promotion's IVF build
  (the ``retrieval/build`` spans), the largest part of a cycle.  Every
  loop promotion builds warm, from the live index's centroids; only the
  bootstrap build is cold, and it is not counted.

Both are wall times, recorded with the host facts that explain them.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_online.py           # full run
    PYTHONPATH=src python benchmarks/bench_online.py --smoke   # CI smoke

The full run writes machine-readable results to ``--out`` (default
``benchmarks/BENCH_online.json``).  ``--before FILE`` copies the host
facts, promote latency and build times of an earlier result file (say,
the parent commit's run on the same host) into the new one, under
``"before"``.  ``--smoke`` runs small replays and
asserts the invariants (bitwise old-or-new serving, positive freshness
uplift, warm promotion builds, trace-identical replays, 64-byte-aligned
shard views, one segment per commit) without recording timings.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.online import ENTITY_TABLE
from repro.online.harness import (
    ChurnConfig,
    _replay_trace,
    build_world,
    freshness_report,
    run_churn_cell,
)
from repro.online.trainer import ManifestCrashIO
from repro.runtime.faults import FaultPlan
from repro.store.io import RecordingStoreIO
from repro.telemetry import Telemetry, activated

if __package__:  # imported as ``benchmarks.bench_online`` (pytest collection)
    from .bench_retrieval import host_facts
else:  # run as a script: this directory is on sys.path
    from bench_retrieval import host_facts

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_online.json"


class RecordingCrashIO(RecordingStoreIO, ManifestCrashIO):
    """The online world's store IO, also keeping every op for
    :func:`commits`."""


def bench_seed(workdir: Path, seed: int, config: ChurnConfig) -> dict:
    """One fault-free replay: freshness, per-cycle promote and build times."""
    tel = Telemetry(clock=time.perf_counter)
    with activated(tel):
        world = build_world(workdir, seed, plan=FaultPlan(), config=config,
                            io=RecordingCrashIO())
        world.loop.run(config.num_batches)
    builds = [r for r in tel.tracer.records() if r.name == "retrieval/build"]
    loop = world.loop
    fresh = freshness_report(world)
    promoted = sum(1 for c in loop.cycles if c.outcome == "promoted")
    out = {
        "seed": seed,
        "batches": len(loop.batch_outcomes),
        "promotions": promoted,
        "newcomer_users": fresh["newcomer_users"],
        "new_items": fresh["new_items"],
        "hit_rate_online": fresh["hit_rate_online"],
        "hit_rate_frozen": fresh["hit_rate_frozen"],
        "freshness_uplift": fresh["freshness_uplift"],
        "promote_wall_times_s": list(loop.promote_wall_times),
        # The first build is the bootstrap's; the rest are the cycles'.
        "build_starts": [r.attrs["start"] for r in builds],
        "build_wall_times_s": [r.duration for r in builds[1:]],
        "trace": _replay_trace(world),
        "views_aligned": views_aligned(world.service.registry.live),
        "commits_one_segment": [
            one_segment(ops) for ops in commits(loop.trainer.store.io.op_log)
        ],
    }
    loop.close()
    return out


def views_aligned(model) -> bool:
    """Whether every shard view the live model serves from starts on a
    64-byte boundary, as the shard format lays payloads out (NumPy's fast
    gather path needs them aligned)."""
    shards = model.base.store.table(ENTITY_TABLE)._require()
    return all(s.flags.aligned and s.ctypes.data % 64 == 0 for s in shards)


def commits(op_log) -> list[list]:
    """The store's IO ops, one list per commit (each ends at a manifest
    rename); the first, the store's creation, is dropped."""
    out, current = [], []
    for op in op_log:
        current.append(op)
        if op.kind == "rename" and Path(op.path).name.startswith("manifest-"):
            out.append(current)
            current = []
    return out[1:]


def one_segment(ops) -> bool:
    """Whether one commit's ops are exactly one segment's write and
    rename, then the manifest's write and rename."""
    kinds = [op.kind for op in ops]
    names = [Path(op.path).name for op in ops]
    return (
        kinds == ["write", "rename", "write", "rename"]
        and names[0] == names[1] + ".tmp"
        and names[1].endswith(".seg")
        and names[2] == names[3] + ".tmp"
        and names[3].startswith("manifest-")
    )


#: Per-seed rows drop these: the samples are summarized above them, and
#: the rest are for the smoke's checks.
_RAW_KEYS = (
    "promote_wall_times_s", "build_wall_times_s", "build_starts", "trace",
    "views_aligned", "commits_one_segment",
)


def summary(samples: list[float]) -> dict:
    """Median and mean of wall times in seconds, as milliseconds."""
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50_ms": float(np.median(arr) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
    }


def run_full(args) -> dict:
    config = ChurnConfig(num_batches=args.batches)
    host = host_facts()
    print("host: " + json.dumps(host, sort_keys=True))
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-online-") as tmp:
        for seed in args.seeds:
            rows.append(bench_seed(Path(tmp) / f"seed{seed}", seed, config))
            r = rows[-1]
            r["promote_latency"] = lat = summary(r["promote_wall_times_s"])
            r["build_wall_time"] = build = summary(r["build_wall_times_s"])
            print(
                f"seed {seed}: {r['promotions']} promotions over "
                f"{r['batches']} batches, freshness "
                f"online={r['hit_rate_online']:.3f} "
                f"frozen={r['hit_rate_frozen']:.3f} "
                f"(uplift {r['freshness_uplift']:+.3f}), promote "
                f"p50 {lat['p50_ms']:.1f} ms / mean {lat['mean_ms']:.1f} ms, "
                f"build p50 {build['p50_ms']:.2f} ms / mean "
                f"{build['mean_ms']:.2f} ms"
            )
    all_times = [t for r in rows for t in r["promote_wall_times_s"]]
    build_times = [t for r in rows for t in r["build_wall_times_s"]]
    uplifts = [r["freshness_uplift"] for r in rows]
    result = {
        "host": host,
        "config": {
            "num_batches": config.num_batches,
            "commit_every": config.commit_every,
            "model_dim": config.model_dim,
            "stream": {
                "num_users": config.stream.num_users,
                "num_items": config.stream.num_items,
                "warm_users": config.stream.warm_users,
                "warm_items": config.stream.warm_items,
                "session_size": config.stream.session_size,
                "newcomer_rate": config.stream.newcomer_rate,
                "new_item_rate": config.stream.new_item_rate,
            },
            "seeds": list(args.seeds),
        },
        "freshness": {
            "hit_rate_online_mean": float(
                np.mean([r["hit_rate_online"] for r in rows])
            ),
            "hit_rate_frozen_mean": float(
                np.mean([r["hit_rate_frozen"] for r in rows])
            ),
            "uplift_mean": float(np.mean(uplifts)),
            "uplift_min": float(np.min(uplifts)),
        },
        "promote_latency": summary(all_times),
        "build_wall_time": {
            **summary(build_times),
            "starts": sorted({s for r in rows for s in r["build_starts"][1:]}),
        },
        "per_seed": [
            {k: v for k, v in r.items() if k not in _RAW_KEYS}
            for r in rows
        ],
    }
    overall = result["promote_latency"]
    print(
        f"\noverall: freshness uplift mean "
        f"{result['freshness']['uplift_mean']:+.3f} "
        f"(min {result['freshness']['uplift_min']:+.3f}), promote latency "
        f"p50 {overall['p50_ms']:.1f} ms / mean {overall['mean_ms']:.1f} ms "
        f"across {len(all_times)} promotions, index build p50 "
        f"{result['build_wall_time']['p50_ms']:.2f} ms / mean "
        f"{result['build_wall_time']['mean_ms']:.2f} ms"
    )
    return result


def run_smoke(args) -> None:
    """Assert the loop's contracts once, with no timing sensitivity."""
    config = ChurnConfig(num_batches=40)
    with tempfile.TemporaryDirectory(prefix="bench-online-smoke-") as tmp:
        cell = run_churn_cell(Path(tmp) / "none", 0, "none", config)
        assert cell.ok, f"churn cell failed: {cell.summary}"
        row = bench_seed(Path(tmp) / "fresh", 0, config)
        again = bench_seed(Path(tmp) / "again", 0, config)
    assert row["promotions"] >= 2, "smoke replay promoted too few times"
    assert row["freshness_uplift"] > 0, (
        "online freshness did not beat the frozen baseline: "
        f"{row['hit_rate_online']:.3f} vs {row['hit_rate_frozen']:.3f}"
    )
    starts = row["build_starts"]
    assert starts == ["cold"] + ["warm"] * row["promotions"], (
        f"expected a cold bootstrap build, then warm builds: {starts}"
    )
    assert row["trace"] == again["trace"], "warm-build replay is not deterministic"
    assert row["views_aligned"], "a live shard view is not 64-byte aligned"
    segment_commits = row["commits_one_segment"]
    assert len(segment_commits) == row["promotions"] + 1 and all(segment_commits), (
        "expected the bootstrap and every cycle to commit one segment "
        f"(its write and rename, then the manifest's): {segment_commits}"
    )
    print(
        "online bench smoke OK: bitwise old-or-new held, "
        f"{row['promotions']} promotions built warm, trace-identical "
        f"replay ({len(row['trace'])} lines), freshness uplift "
        f"{row['freshness_uplift']:+.3f}, aligned shard views, "
        f"{len(segment_commits)} one-segment commits"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, default=60)
    parser.add_argument(
        "--seeds", type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(0, 1, 2, 3, 4),
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--before", help="an earlier result file to compare against")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        run_smoke(args)
        return
    result = run_full(args)
    if args.before:
        earlier = json.loads(Path(args.before).read_text(encoding="utf-8"))
        result["before"] = {
            k: earlier[k] for k in ("host", "promote_latency", "build_wall_time")
        }
    out = Path(args.out)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"results written to {out}")


if __name__ == "__main__":
    main()
