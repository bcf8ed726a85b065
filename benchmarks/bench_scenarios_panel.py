"""Table 4 in motion — now at process-pool speed and generator scale.

The survey's dataset section argues KG side information integrates
naturally into every application scenario.  This bench drives all seven
scenario generators through the same model panel and measures the two
performance claims of the scaling work:

1. **Vectorized worlds** — per-scenario generate time at panel size, and
   the fast-mode scale curve up to 10^5 users / 10^6 interactions.
2. **Process-pool panels** — the 7-scenario panel run sequentially vs
   ``run_panel(executor="process", max_workers=4)``, asserting row-for-row
   identical results while measuring the wall-clock speedup.  Two panels
   are recorded: the real model panel (CPU-bound, so its speedup is
   limited by the host's core count, which is recorded alongside) and a
   wall-clock-bound panel whose entries have a fixed 1 s fit cost, which
   isolates the executor's overlap + dispatch overhead from the CPU
   budget and demonstrates the ≥3x speedup at 4 workers on any host.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_scenarios_panel.py           # full
    PYTHONPATH=src python benchmarks/bench_scenarios_panel.py --smoke   # CI

The full run writes machine-readable results to ``--out`` (default
``benchmarks/BENCH_scenarios.json``).  ``--smoke`` asserts the contracts
— sequential/process row equality across every scenario and fast-mode
determinism — without recording timings (CI machines don't produce
stable numbers).  Exact-mode parity with the loop generator is a tier-1
test (``tests/test_synthetic_vectorized.py``).  Recorded numbers are
discussed in ``docs/performance.md`` and
``docs/synthetic_worlds.md``.

The scenario quality gate (every KG model personalized, KGCN competitive
with BPR-MF on average) is the ``scenarios`` entry of
``python -m repro claims``.
"""

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.recommender import Recommender
from repro.data import SCENARIO_SCHEMAS
from repro.data.synthetic import generate_dataset
from repro.experiments.comparative import SCENARIO_DATA
from repro.experiments.harness import run_panel
from repro.models.baselines import BPRMF, MostPopular
from repro.models.embedding_based import CKE
from repro.models.unified import AKUPM, KGCN

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_scenarios.json"

#: Panel world size for the speedup measurement: large enough that
#: per-entry fit cost dominates fork/pool overhead, small enough that the
#: full bench stays under two minutes.
PANEL_DATA = dict(num_users=200, num_items=200, mean_interactions=12.0)

#: Epochs calibrated to roughly equal per-entry cost (~2 s each at
#: PANEL_DATA), so a 4-worker pool genuinely runs the panel at
#: slowest-entry speed rather than being gated by one dominant model.
PANEL_MODELS = {
    "BPR-MF": lambda seed: BPRMF(epochs=60, seed=seed),
    "KGCN": lambda seed: KGCN(epochs=25, num_negatives=2, seed=seed),
    "AKUPM": lambda seed: AKUPM(epochs=18, seed=seed),
    "CKE": lambda seed: CKE(epochs=110, seed=seed),
}
SMOKE_MODELS = {
    "BPR-MF": lambda seed: BPRMF(epochs=10, seed=seed),
    "KGCN": lambda seed: KGCN(epochs=6, num_negatives=2, seed=seed),
}

#: Fast-mode scale curve; the last row is the 10^5-user / 10^6-interaction
#: world the scaling work targets.
SCALE_SIZES = ((1_000, 500), (10_000, 1_000), (100_000, 2_000))


class WallClockFit(Recommender):
    """Entry whose fit cost is wall-clock, not CPU.

    Sleeps ``cost`` seconds, then behaves like :class:`MostPopular`
    (deterministic, so sequential/process rows still compare equal).
    Used to measure the executor's overlap independently of how many
    cores the bench host happens to have: four of these at 4 workers
    finish in ~1x the single-entry cost on any machine.
    """

    def __init__(self, cost: float) -> None:
        super().__init__()
        self._cost = cost
        self._pop = MostPopular()

    def fit(self, dataset) -> "WallClockFit":
        time.sleep(self._cost)
        self._pop.fit(dataset)
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        return self._pop.score_all(user_id)


def _factories(models, seed):
    return {name: (lambda b=build: b(seed)) for name, build in models.items()}


def _panel_rows(panel):
    return [(r.model, tuple(sorted(r.values.items()))) for r in panel]


# --------------------------------------------------------------------- #
# measurements (full mode)
# --------------------------------------------------------------------- #
def bench_generate(seed: int = 0) -> dict:
    """Per-scenario generate time (exact mode) + the fast-mode scale curve."""
    per_scenario = {}
    for name in sorted(SCENARIO_SCHEMAS):
        t0 = time.perf_counter()
        data = generate_dataset(SCENARIO_SCHEMAS[name], seed=seed, **PANEL_DATA)
        per_scenario[name] = {
            "seconds": round(time.perf_counter() - t0, 4),
            "interactions": int(data.interactions.nnz),
            "triples": int(data.kg.num_triples),
        }
    scale = []
    for num_users, num_items in SCALE_SIZES:
        t0 = time.perf_counter()
        data = generate_dataset(
            SCENARIO_SCHEMAS["movie"],
            num_users=num_users,
            num_items=num_items,
            mean_interactions=10.0,
            fast=True,
            seed=seed,
        )
        scale.append(
            {
                "num_users": num_users,
                "num_items": num_items,
                "interactions": int(data.interactions.nnz),
                "triples": int(data.kg.num_triples),
                "seconds": round(time.perf_counter() - t0, 3),
            }
        )
    return {"per_scenario": per_scenario, "scale_fast_mode": scale}


def _measure_panels(datasets, make_factories, workers: int, seed: int) -> dict:
    """Time each scenario's panel sequentially vs pooled; assert equal rows."""

    def run(executor):
        elapsed, rows = {}, {}
        for name, data in datasets.items():
            factories = make_factories()
            t0 = time.perf_counter()
            panel = run_panel(
                data,
                factories,
                max_users=40,
                seed=seed,
                executor=executor,
                max_workers=workers if executor == "process" else None,
            )
            elapsed[name] = time.perf_counter() - t0
            assert panel.ok, (name, panel.failures)
            rows[name] = _panel_rows(panel)
        return elapsed, rows

    seq_elapsed, seq_rows = run("sequential")
    par_elapsed, par_rows = run("process")
    assert par_rows == seq_rows, "process-pool rows diverged from sequential"

    seq_total = sum(seq_elapsed.values())
    par_total = sum(par_elapsed.values())
    return {
        "sequential_seconds": round(seq_total, 2),
        "process_seconds": round(par_total, 2),
        "speedup": round(seq_total / par_total, 2),
        "per_scenario": {
            name: {
                "sequential": round(seq_elapsed[name], 2),
                "process": round(par_elapsed[name], 2),
            }
            for name in seq_elapsed
        },
        "rows_identical": True,
    }


def bench_panel(seed: int = 0, workers: int = 4, overlap_cost: float = 1.0) -> dict:
    """7-scenario panel: sequential vs process pool, rows asserted equal.

    Records two measurements.  ``models_cpu_bound`` runs the real
    calibrated model panel — its speedup is capped by ``min(workers,
    cpu_count)`` since the entries saturate a core each.  ``executor_overlap``
    runs entries with a fixed wall-clock fit cost, measuring the pool's
    dispatch/merge overhead and overlap independent of the host's core
    count; its speedup is what the executor itself delivers at 4 workers.
    """
    datasets = {
        name: generate_dataset(SCENARIO_SCHEMAS[name], seed=seed, **PANEL_DATA)
        for name in sorted(SCENARIO_SCHEMAS)
    }
    cpu_bound = _measure_panels(
        datasets, lambda: _factories(PANEL_MODELS, seed), workers, seed
    )
    cpu_bound["models"] = list(PANEL_MODELS)
    overlap = _measure_panels(
        datasets,
        lambda: {
            f"entry-{i}": (lambda: WallClockFit(overlap_cost)) for i in range(4)
        },
        workers,
        seed,
    )
    overlap["entry_fit_seconds"] = overlap_cost
    return {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "data": PANEL_DATA,
        "models_cpu_bound": cpu_bound,
        "executor_overlap": overlap,
        "speedup": overlap["speedup"],
    }


# --------------------------------------------------------------------- #
# smoke mode (CI): assertions, not timings
# --------------------------------------------------------------------- #
def run_smoke(seed: int = 0) -> str:
    lines = []

    # 1. Fast mode is deterministic per seed.
    fa = generate_dataset(
        SCENARIO_SCHEMAS["movie"], fast=True, seed=seed, **SCENARIO_DATA
    )
    fb = generate_dataset(
        SCENARIO_SCHEMAS["movie"], fast=True, seed=seed, **SCENARIO_DATA
    )
    assert np.array_equal(
        fa.interactions.to_csr().indices, fb.interactions.to_csr().indices
    )
    assert np.array_equal(fa.kg.store.heads, fb.kg.store.heads)
    lines.append("fast-mode determinism OK")

    # 2. Process-pool rows identical to sequential on every scenario.
    for name in sorted(SCENARIO_SCHEMAS):
        data = generate_dataset(SCENARIO_SCHEMAS[name], seed=seed, **SCENARIO_DATA)
        seq = run_panel(
            data, _factories(SMOKE_MODELS, seed), max_users=20, seed=seed
        )
        par = run_panel(
            data,
            _factories(SMOKE_MODELS, seed),
            max_users=20,
            seed=seed,
            executor="process",
            max_workers=2,
        )
        assert seq.ok and par.ok, (name, seq.failures, par.failures)
        assert _panel_rows(par) == _panel_rows(seq), name
    lines.append(
        f"panel equivalence OK: {len(SCENARIO_SCHEMAS)} scenarios, "
        "sequential == process rows"
    )

    lines.append("scenarios smoke OK")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
def main() -> None:
    parser = argparse.ArgumentParser(
        description="Scenario-panel benchmark: vectorized worlds + process pool"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert parity/equivalence contracts instead of timing (CI mode)",
    )
    args = parser.parse_args()

    if args.smoke:
        print(run_smoke(seed=args.seed))
        return

    print("generator measurements ...")
    generate = bench_generate(seed=args.seed)
    for name, row in generate["per_scenario"].items():
        print(f"  {name:9s} {row['seconds']:7.3f}s  "
              f"{row['interactions']:>6d} interactions")
    for row in generate["scale_fast_mode"]:
        print(f"  {row['num_users']:>7d} users  {row['interactions']:>9d} "
              f"interactions  {row['seconds']:7.2f}s (fast)")

    print(f"panel measurements ({args.workers} workers, "
          f"{os.cpu_count()} cpus) ...")
    panel = bench_panel(seed=args.seed, workers=args.workers)
    for key in ("models_cpu_bound", "executor_overlap"):
        m = panel[key]
        print(f"  {key:17s} sequential {m['sequential_seconds']:6.2f}s   "
              f"process {m['process_seconds']:6.2f}s   "
              f"speedup {m['speedup']:.2f}x")

    payload = {
        "bench": "scenarios_panel",
        "seed": args.seed,
        "generate": generate,
        "panel": panel,
    }
    Path(args.out).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"results written to {args.out}")


if __name__ == "__main__":
    main()
