"""End-to-end replay of the two-stage retrieval serving path.

``python -m repro retrieval-demo`` builds a synthetic catalog with
clustered embeddings, promotes a :class:`TwoStageRecommender` (IVF
candidates + exact rerank) as the live rung of a
:class:`~repro.serving.service.RecommenderService` — the promotion
itself builds the ANN index, via ``ModelRegistry.promote`` calling
``sync_index`` — then walks the three episodes that define the design:

1. **steady state** — requests served ``ok`` by the ANN rung, with a
   seeded sprinkle of injected ``index_stale`` faults degrading
   individual requests to the exact rung (typed, never an error);
2. **real staleness** — the embedding tables are swapped to a new
   generation *without* rebuilding the index; every request now degrades
   to the exact rung because the stale index refuses to serve;
3. **re-promotion** — promoting the model again rebuilds the index
   against the new generation atomically, and requests return to ``ok``.
"""

from __future__ import annotations

import numpy as np

from repro.core.clock import ManualClock
from repro.core.rng import ensure_rng
from repro.data import MOVIE_SCHEMA, generate_dataset
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.serving.service import RecommenderService, ServeRequest

from .ivf import IvfIndex
from .two_stage import ArrayEmbeddingRecommender, TwoStageRecommender

__all__ = ["build_demo", "run_demo"]


def _clustered(rng, rows: int, dim: int, centers: np.ndarray) -> np.ndarray:
    picks = centers[rng.integers(centers.shape[0], size=rows)]
    return picks + 0.25 * rng.standard_normal((rows, dim))


def build_demo(
    seed: int = 0,
    num_users: int = 64,
    num_items: int = 2_000,
    dim: int = 32,
    num_requests: int = 150,
    fault_rate: float = 0.06,
):
    """A service whose live rung is a two-stage recommender; plus the models."""
    dataset = generate_dataset(
        MOVIE_SCHEMA, num_users=num_users, num_items=num_items, seed=seed
    )
    rng = ensure_rng(seed)
    centers = rng.standard_normal((32, dim))
    base = ArrayEmbeddingRecommender(
        _clustered(rng, num_users, dim, centers),
        _clustered(rng, num_items, dim, centers),
        generation=1,
    ).fit(dataset)
    two = TwoStageRecommender(base, IvfIndex(seed=seed), k_candidates=128)
    two.fit(dataset)

    clock = ManualClock()
    plan = FaultPlan.random(
        num_requests, rate=fault_rate, kinds=("index_stale",), seed=seed
    )
    injector = FaultInjector(plan, sleep=clock.advance)
    # Promoting the primary builds the ANN index: ModelRegistry.promote
    # calls sync_index() before the canary probe.
    service = RecommenderService(
        dataset,
        primary=("ann", two),
        fallbacks=[("exact", base)],
        breaker_config={"failure_threshold": 5, "window": 20, "recovery_time": 0.2},
        faults=injector,
        clock=clock,
    )
    return service, clock, injector, base, two


def _replay(service, clock, seed: int, count: int) -> dict:
    rng = ensure_rng(seed + 1)
    outcomes: dict[str, int] = {}
    for __ in range(count):
        user = int(rng.integers(service.dataset.num_users))
        response = service.serve(ServeRequest(user_id=user, k=10))
        key = f"{response.status}::{response.model}"
        outcomes[key] = outcomes.get(key, 0) + 1
        clock.advance(0.002)
    return outcomes


def _fmt(outcomes: dict) -> list[str]:
    return [f"    {key:24s} {count}" for key, count in sorted(outcomes.items())]


def run_demo(seed: int = 0, num_requests: int = 150) -> str:
    """The three-episode replay; returns the printable report."""
    service, clock, injector, base, two = build_demo(
        seed=seed, num_requests=num_requests
    )
    lines = [
        "retrieval-demo: ANN candidates + exact rerank behind the serving ladder",
        "=" * 71,
        f"catalog: {service.dataset.num_items} items, "
        f"{service.dataset.num_users} users; index: {two.index.kind} "
        f"(generation {two.index.generation}, "
        f"{two.index.num_vectors} vectors)",
        "",
        f"[1] steady state with injected index_stale faults "
        f"({len(injector.plan)} planned):",
    ]
    lines += _fmt(_replay(service, clock, seed, num_requests))
    lines.append(
        f"    faults fired: {len(injector.injected)}; every stale request "
        "was answered by the exact rung, typed degraded"
    )

    # Swap in a new embedding generation without rebuilding the index.
    rng = ensure_rng(seed + 99)
    base.set_embeddings(
        item_vectors=base.item_vectors() + 0.05 * rng.standard_normal(
            base.item_vectors().shape
        )
    )
    lines.append("")
    lines.append(
        f"[2] embeddings swapped to generation {base.generation}; index still "
        f"at {two.index.generation} -> stale ({two.index_report()}):"
    )
    service.faults = None  # isolate real staleness from injected faults
    lines += _fmt(_replay(service, clock, seed + 1, 30))

    record = service.promote("ann", two)
    lines.append("")
    lines.append(
        f"[3] re-promoted: sync_index rebuilt the index at generation "
        f"{two.index.generation}; promotion record: {record.describe()}"
    )
    lines += _fmt(_replay(service, clock, seed + 2, 30))
    lines.append("")
    lines.append("promotion history:")
    lines.extend(f"  {r.describe()}" for r in service.registry.history)
    return "\n".join(lines)
