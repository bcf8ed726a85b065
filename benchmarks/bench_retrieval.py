"""Two-stage retrieval benchmarks: ANN candidate generation vs exact scoring.

Measures the tradeoff the retrieval package exists for (see
``docs/retrieval.md``): full-catalog exact scoring is linear in the
catalog, ANN candidate generation + exact rerank is sublinear.  For each
catalog size the bench reports one IVF row, the recall-targeted index
(``IvfIndex(seed)``, whose build calibrates its probe count), with

* **recall@k** of the candidate set against the exact top-k ground truth
  (the rerank is exact, so candidate recall *is* end-to-end recall),
  beside the build's own estimate and probe count,
* **build seconds**, and the calibration's share of them,
* **p50/p99 and mean query latency** of ANN search + candidate rerank,
  against the same percentiles for exact full scoring,
* **candidate counts** — the fraction of the catalog the second stage
  actually scores, which is the sublinearity being claimed.

Catalogs are clustered mixture-of-Gaussians embeddings (items scatter
around shared centers, queries land near centers), the geometry learned
embedding tables actually have.  Isotropic i.i.d. Gaussian data is the
ANN worst case — near-uniform pairwise distances — and is *not* what
trained models produce; ``--centers 0`` benchmarks that adversarial
geometry anyway.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_retrieval.py           # full sizes
    PYTHONPATH=src python benchmarks/bench_retrieval.py --smoke   # CI smoke

The full run writes machine-readable results to ``--out`` (default
``benchmarks/BENCH_retrieval.json``), with the host they were measured
on (cores, CPU model, Python, NumPy, BLAS and its thread settings).
``--smoke`` runs a small catalog and asserts the recall floor, the
recall contract (measured recall@10 within 0.02 of the build's estimate,
or of the target when the estimate beats it), a calibrated count that
rebuilds identically inside the probe floor and budget, and the
seed-determinism contract (bitwise-identical fingerprints and candidate
sets across rebuilds) instead of reporting timings.
See ``docs/performance.md`` for recorded numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.retrieval import IvfIndex, exact_topk, recall_at_k
from repro.retrieval.base import pairwise_scores
from repro.retrieval.ivf import PROBE_BUDGET, PROBE_FLOOR, RECALL_TARGET

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_retrieval.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Rows per block when drawing a synthetic catalog.
CATALOG_BLOCK = 65_536


def host_facts() -> dict:
    """The machine a run measured: build times are meaningless without it."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# --------------------------------------------------------------------- #
# workload
# --------------------------------------------------------------------- #
def make_catalog(
    num_items: int,
    dim: int,
    num_queries: int,
    num_centers: int = 256,
    spread: float = 0.25,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Clustered item vectors + queries near the same centers (float32).

    Items are drawn in row blocks, so no float64 copy of the whole table
    exists; the generator's stream is sequential, so the values are the
    ones one full-size draw gives.
    """
    rng = np.random.default_rng(seed)
    items = np.empty((num_items, dim), dtype=np.float32)
    if num_centers < 1:
        for start in range(0, num_items, CATALOG_BLOCK):
            rows = min(CATALOG_BLOCK, num_items - start)
            items[start : start + rows] = rng.standard_normal((rows, dim))
        queries = rng.standard_normal((num_queries, dim))
    else:
        centers = rng.standard_normal((num_centers, dim))
        labels = rng.integers(num_centers, size=num_items)
        for start in range(0, num_items, CATALOG_BLOCK):
            block = labels[start : start + CATALOG_BLOCK]
            items[start : start + block.size] = centers[block] + spread * (
                rng.standard_normal((block.size, dim))
            )
        queries = centers[rng.integers(num_centers, size=num_queries)]
        queries = queries + spread * rng.standard_normal((num_queries, dim))
    return items, queries.astype(np.float32)


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #
def exact_query(items: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """One full-catalog exact top-k (the baseline both stages replace)."""
    scores = pairwise_scores(items, q)
    top = np.argpartition(-scores, k - 1)[:k]
    return top[np.argsort(-scores[top], kind="stable")]


def ann_query(index, items: np.ndarray, q: np.ndarray, quota: int, k: int):
    """One two-stage query: ANN candidates + exact rerank of only those rows."""
    ids = index.search(q, quota)
    scores = pairwise_scores(items[ids], q)
    kk = min(k, scores.size)
    top = np.argpartition(-scores, kk - 1)[:kk]
    top = top[np.argsort(-scores[top], kind="stable")]
    return ids, ids[top]


def percentiles(samples: list[float]) -> dict:
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
    }


def measure_index(index, items, queries, truth, args) -> dict:
    """Build ``index`` over ``items``, then time and score its queries."""
    t0 = time.perf_counter()
    index.build(items, generation=0)
    build_s = time.perf_counter() - t0
    ann_times: list[float] = []
    recalls: list[float] = []
    cand_counts: list[int] = []
    for q, true_ids in zip(queries, truth):
        t0 = time.perf_counter()
        ids, __ = ann_query(index, items, q, args.quota, args.k)
        ann_times.append(time.perf_counter() - t0)
        recalls.append(recall_at_k(ids, true_ids))
        cand_counts.append(int(ids.size))
    cands = float(np.mean(cand_counts))
    row = {
        "nprobe": index.nprobe,
        "build_seconds": build_s,
        f"recall_at_{args.k}": float(np.mean(recalls)),
        "mean_candidates": cands,
        "candidate_fraction": cands / items.shape[0],
        "latency": percentiles(ann_times),
    }
    # The build's calibration, timed again on its own.
    t0 = time.perf_counter()
    again = index._calibrate(items)
    row["calibration_seconds"] = time.perf_counter() - t0
    assert again == (index.nprobe, index.estimated_recall)
    row["estimated_recall_at_10"] = index.estimated_recall
    return row


def bench_size(num_items: int, args) -> dict:
    items, queries = make_catalog(
        num_items, args.dim, args.queries,
        num_centers=args.centers, spread=args.spread, seed=args.seed,
    )
    truth = [exact_topk(items, q, args.k) for q in queries]

    exact_times: list[float] = []
    for q in queries:
        t0 = time.perf_counter()
        exact_query(items, q, args.k)
        exact_times.append(time.perf_counter() - t0)
    exact_lat = percentiles(exact_times)

    print(
        f"\n{num_items} items, dim {args.dim}: exact scoring "
        f"p50 {exact_lat['p50_ms']:.3f} ms / p99 {exact_lat['p99_ms']:.3f} ms"
    )
    header = (
        f"{'index':<12} {'probes':>6} {'build s':>8} {'calib s':>8} "
        f"{'est@10':>7} {'recall@'+str(args.k):>10} {'cands':>8} {'frac':>7} "
        f"{'us/query':>9} {'p99 ms':>8} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    result = {"num_items": num_items, "exact": exact_lat}
    # One untimed build first: the first build in a process runs up to
    # 1.8x slower (first-touch page faults), which would land on the row.
    IvfIndex(seed=args.seed).build(items)
    row = measure_index(IvfIndex(seed=args.seed), items, queries, truth, args)
    row["speedup_p50"] = exact_lat["p50_ms"] / row["latency"]["p50_ms"]
    result["ivf"] = row
    print(
        f"{'ivf':<12} {row['nprobe']:>6} {row['build_seconds']:>8.2f} "
        f"{row['calibration_seconds']:>8.3f} "
        f"{row['estimated_recall_at_10']:>7.4f} "
        f"{row[f'recall_at_{args.k}']:>10.3f} {row['mean_candidates']:>8.0f} "
        f"{row['candidate_fraction']:>6.1%} "
        f"{row['latency']['mean_ms'] * 1e3:>9.0f} "
        f"{row['latency']['p99_ms']:>8.3f} {row['speedup_p50']:>7.1f}x"
    )
    return result


def run(args) -> None:
    host = host_facts()
    print("host: " + json.dumps(host, sort_keys=True))
    results = {
        "host": host,
        "config": {
            "dim": args.dim,
            "queries": args.queries,
            "k": args.k,
            "quota": args.quota,
            "centers": args.centers,
            "spread": args.spread,
            "seed": args.seed,
            "probe_budget": PROBE_BUDGET,
            "probe_floor": PROBE_FLOOR,
            "recall_target": RECALL_TARGET,
        },
        "sizes": [bench_size(n, args) for n in args.items],
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")


# --------------------------------------------------------------------- #
def smoke(args) -> None:
    """Small-catalog run asserting recall floors + determinism (for CI)."""
    num_items, num_queries, quota = 5_000, 32, 512
    items, queries = make_catalog(
        num_items, 32, num_queries, num_centers=64, spread=0.25, seed=args.seed
    )
    truth = [exact_topk(items, q, 10) for q in queries]

    first = IvfIndex(seed=args.seed).build(items, generation=7)
    second = IvfIndex(seed=args.seed).build(items, generation=7)
    assert first.fingerprint() == second.fingerprint(), (
        "ivf: same seed + vectors must give bitwise-identical indexes"
    )
    assert (first.nprobe, first.estimated_recall) == (
        second.nprobe, second.estimated_recall
    ), "ivf: the calibrated probe count must rebuild identically"
    assert PROBE_FLOOR <= first.nprobe <= PROBE_BUDGET, (
        "ivf: probes outside the floor and budget"
    )

    recalls = []
    for q, true_ids in zip(queries, truth):
        ids = first.search(q, quota)
        again = second.search(q, quota)
        assert np.array_equal(ids, again), "ivf: candidate sets diverge"
        assert ids.size >= min(quota, num_items), "ivf: quota not met"
        recalls.append(recall_at_k(ids, true_ids))
    recall = float(np.mean(recalls))
    assert recall >= 0.9, f"ivf: recall@10 {recall:.3f} below the 0.9 floor"
    promised = min(RECALL_TARGET, first.estimated_recall) - 0.02
    assert recall >= promised, (
        f"ivf: recall@10 {recall:.3f} below the build's promise {promised:.3f}"
    )

    print(f"bench_retrieval smoke [ivf]: {first.nprobe} probes, estimated "
          f"recall@10 {first.estimated_recall:.3f}, measured {recall:.3f}; "
          "determinism OK")
    print("bench_retrieval smoke: all floors OK")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--items", type=int, nargs="+", default=[100_000, 1_000_000],
        help="catalog sizes to sweep",
    )
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--k", type=int, default=10, help="top-k for recall")
    parser.add_argument(
        "--quota", type=int, default=1024,
        help="candidate quota per query (k_candidates)",
    )
    parser.add_argument(
        "--centers", type=int, default=256,
        help="mixture components in the synthetic catalog (0 = isotropic "
        "Gaussian, the ANN worst case)",
    )
    parser.add_argument("--spread", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=str(DEFAULT_OUT))
    parser.add_argument(
        "--smoke", action="store_true",
        help="small recall-floor + determinism run (CI mode; no timings)",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke(args)
        return
    run(args)


if __name__ == "__main__":
    main()
