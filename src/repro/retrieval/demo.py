"""The two-stage retrieval serving path under staleness.

:func:`build_demo` builds a synthetic catalog with clustered embeddings
and promotes a :class:`TwoStageRecommender` (IVF candidates + exact
rerank) as the live rung of a
:class:`~repro.serving.service.RecommenderService` — the promotion itself
builds the ANN index, via ``ModelRegistry.promote`` calling
``sync_index``.  :func:`staleness_cells`, the retrieval cell function of
``python -m repro fault-matrix``, walks the three episodes that define
the design and asserts each one's typed outcomes:

1. **steady state** — requests are served ``ok`` by the ANN rung, and a
   seeded sprinkle of injected ``index_stale`` faults degrades individual
   requests to the exact rung (typed, never an error);
2. **real staleness** — the embedding tables are swapped to a new
   generation *without* rebuilding the index; every request degrades to
   the exact rung because the stale index refuses to serve;
3. **re-promotion** — promoting the model again rebuilds the index
   against the new generation atomically, and every request is ``ok``
   from the ANN rung again.
"""

from __future__ import annotations

import numpy as np

from repro.core.clock import ManualClock
from repro.core.rng import ensure_rng
from repro.data import MOVIE_SCHEMA, generate_dataset
from repro.runtime.faults import FaultCell, FaultInjector, FaultPlan
from repro.serving.service import RecommenderService, ServeRequest

from .ivf import IvfIndex
from .two_stage import ArrayEmbeddingRecommender, TwoStageRecommender

__all__ = ["build_demo", "staleness_cells"]

#: Requests in the steady-state episode; the later two replay 30 each.
NUM_REQUESTS = 150
#: The demo catalog: users, items and embedding dimension.
NUM_USERS = 64
NUM_ITEMS = 2_000
DIM = 32
#: Share of steady-state requests that get an injected ``index_stale``.
FAULT_RATE = 0.06


def _clustered(rng, rows: int, dim: int, centers: np.ndarray) -> np.ndarray:
    picks = centers[rng.integers(centers.shape[0], size=rows)]
    return picks + 0.25 * rng.standard_normal((rows, dim))


def build_demo(seed: int = 0):
    """A service whose live rung is a two-stage recommender; plus the models."""
    dataset = generate_dataset(
        MOVIE_SCHEMA, num_users=NUM_USERS, num_items=NUM_ITEMS, seed=seed
    )
    rng = ensure_rng(seed)
    centers = rng.standard_normal((32, DIM))
    base = ArrayEmbeddingRecommender(
        _clustered(rng, NUM_USERS, DIM, centers),
        _clustered(rng, NUM_ITEMS, DIM, centers),
        generation=1,
    ).fit(dataset)
    two = TwoStageRecommender(base, IvfIndex(seed=seed), k_candidates=128)
    two.fit(dataset)

    clock = ManualClock()
    plan = FaultPlan.random(
        NUM_REQUESTS, rate=FAULT_RATE, kinds=("index_stale",), seed=seed
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


def _episode(
    seed: int,
    kind: str,
    outcomes: dict,
    allowed: tuple[str, ...],
    problems: tuple[str, ...] = (),
    fired: tuple[str, ...] = (),
) -> FaultCell:
    """One episode's cell: any ``status::model`` outside ``allowed`` fails."""
    unexpected = tuple(
        f"{count} responses {key}, expected only {' or '.join(allowed)}"
        for key, count in sorted(outcomes.items()) if key not in allowed
    )
    return FaultCell(
        "retrieval", seed, kind, unexpected + problems, fired,
        summary=" ".join(f"{k}={n}" for k, n in sorted(outcomes.items())),
    )


def staleness_cells(seed: int, workdir) -> list[FaultCell]:
    """The three episodes for ``seed``; ``workdir`` is unused."""
    service, clock, injector, base, two = build_demo(seed=seed)
    outcomes = _replay(service, clock, seed, NUM_REQUESTS)
    fired = tuple(sorted({f.kind for f in injector.injected}))
    cells = [_episode(
        seed, "index_stale", outcomes, ("ok::ann", "degraded::exact"),
        () if fired else ("no index_stale fault fired",), fired,
    )]

    # Swap in a new embedding generation without rebuilding the index.
    rng = ensure_rng(seed + 99)
    base.set_embeddings(
        base.item_vectors()
        + 0.05 * rng.standard_normal(base.item_vectors().shape)
    )
    service.faults = None  # isolate real staleness from injected faults
    outcomes = _replay(service, clock, seed + 1, 30)
    cells.append(
        _episode(seed, "stale_embeddings", outcomes, ("degraded::exact",))
    )

    service.promote("ann", two)
    outcomes = _replay(service, clock, seed + 2, 30)
    problems = ()
    if two.index.generation != base.generation:
        problems = (
            f"re-promoted index at generation {two.index.generation}, "
            f"embeddings at {base.generation}",
        )
    cells.append(
        _episode(seed, "re_promotion", outcomes, ("ok::ann",), problems)
    )
    return cells
