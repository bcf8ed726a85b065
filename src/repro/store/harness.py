"""Fault-injected durability harness: the crash matrix.

The durability claim of :mod:`repro.store` is an *invariant*, not a
property of any particular failure: after a crash at **any** IO operation
of a train→checkpoint→commit run, re-opening the store recovers a state
that is bitwise equal to exactly one committed generation — old or new,
never a hybrid.  This module turns that claim into an exhaustive check:

1. :func:`run_scenario` executes a small deterministic training run —
   TransE over a seeded toy graph, backed by a
   :class:`~repro.store.mmap.MmapShardStore` and an incremental
   :class:`~repro.runtime.checkpoint.Checkpointer` — through a pluggable
   :class:`~repro.store.io.StoreIO`: store shards and manifests, and the
   checkpoint archives, are all written by ``io``.
2. :func:`crash_cells`, the store's cell function for
   ``python -m repro fault-matrix``, first runs the scenario clean
   through a :class:`~repro.store.io.RecordingStoreIO` to enumerate its
   IO operations and record every committed generation's
   table bytes, then replays it once per ``(operation, fault kind)`` pair
   with a :class:`~repro.store.io.FaultingStoreIO`, "pulls the plug"
   (:class:`~repro.runtime.faults.InjectedCrash` is caught only at the
   very top), re-opens the store, and requires the recovered state to
   equal one recorded generation exactly.  It returns one
   :class:`~repro.runtime.faults.FaultCell` per fault kind.
3. :func:`make_corrupted_store` leaves a deliberately corrupted store
   behind for ``store-verify --repair`` to exercise.

A cell may legitimately recover *nothing* only when the faulted operation
is part of writing generation 0's manifest — the store was never created,
so there is no generation to fall back to; every other cell must recover.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.exceptions import CheckpointError, StoreError
from repro.core.rng import ensure_rng
from repro.kg.triples import TripleStore
from repro.kge.translational import TransE
from repro.runtime import TrainingRuntime
from repro.runtime.checkpoint import Checkpointer
from repro.runtime.faults import (
    IO_FAULT_KINDS,
    Fault,
    FaultCell,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
)

from .io import FaultingStoreIO, RecordingStoreIO, StoreIO
from .manifest import manifest_name
from .mmap import MmapShardStore

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "crash_cells",
    "make_corrupted_store",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape of the toy train→checkpoint→commit run the matrix replays."""

    num_entities: int = 8
    num_relations: int = 2
    num_triples: int = 24
    dim: int = 4
    epochs: int = 2
    batch_size: int = 8
    rows_per_shard: int = 4


@dataclass
class ScenarioResult:
    """What one scenario run produced (clean runs only; crashes raise)."""

    store_dir: Path
    generations: tuple[int, ...]
    history: list[float]
    num_ops: int


def _toy_triples(config: ScenarioConfig, seed: int) -> TripleStore:
    rng = ensure_rng(seed)
    heads = rng.integers(config.num_entities, size=config.num_triples)
    rels = rng.integers(config.num_relations, size=config.num_triples)
    tails = rng.integers(config.num_entities, size=config.num_triples)
    return TripleStore(
        heads, rels, tails,
        num_entities=config.num_entities,
        num_relations=config.num_relations,
    )


def run_scenario(
    workdir: str | Path,
    seed: int = 0,
    io: StoreIO | None = None,
    config: ScenarioConfig = ScenarioConfig(),
) -> ScenarioResult:
    """Train a small TransE against a fresh store, checkpointing each epoch.

    Every durable byte flows through ``io``, so a
    :class:`~repro.store.io.FaultingStoreIO` makes this exact run crash
    (or silently corrupt) at a chosen IO operation.  Determinism under
    ``seed`` is what lets the crash matrix compare replays bitwise.
    """
    workdir = Path(workdir)
    io = io if io is not None else StoreIO()
    store = MmapShardStore.create(
        workdir / "store", rows_per_shard=config.rows_per_shard, seed=seed, io=io
    )
    try:
        model = TransE(
            config.num_entities, config.num_relations, dim=config.dim,
            seed=seed, store=store,
        )
        runtime = TrainingRuntime(
            checkpointer=Checkpointer(
                workdir / "ckpt", every=1, keep=3, store=store
            )
        )
        history = model.fit(
            _toy_triples(config, seed),
            epochs=config.epochs,
            batch_size=config.batch_size,
            seed=seed,
            runtime=runtime,
        )
        generations = store.generations()
    finally:
        store.close()
    return ScenarioResult(
        store_dir=workdir / "store",
        generations=generations,
        history=history,
        num_ops=io.num_ops,
    )


# ---------------------------------------------------------------------- #
# the crash matrix
# ---------------------------------------------------------------------- #
def _table_state(store: MmapShardStore) -> dict[str, bytes]:
    """Bitwise fingerprint of every table at the store's open generation."""
    return {
        name: store.load_table(name).astype("<f4").tobytes()
        for name in store.table_names()
    }


def _reference_states(
    store_dir: Path, generations: tuple[int, ...]
) -> dict[int, dict[str, bytes]]:
    states: dict[int, dict[str, bytes]] = {}
    for gen in generations:
        store = MmapShardStore.open(
            store_dir, mode="train", generation=gen, quarantine=False
        )
        try:
            states[gen] = _table_state(store)
        finally:
            store.close()
    return states


def _recover(
    store_dir: Path,
    op_path: str,
    references: dict[int, dict[str, bytes]],
    genesis: str,
) -> tuple[int | None, str]:
    """Reopen after the (possible) crash and assert old-or-new, not hybrid.

    Returns the recovered generation and the violation ("" = none).
    """
    try:
        store = MmapShardStore.open(store_dir, mode="train")
    except StoreError as exc:
        # Unrecoverable is legitimate only while creating generation 0 —
        # before its manifest rename the store never existed.
        ok = genesis in op_path
        return None, "" if ok else f"store unrecoverable: {exc}"
    try:
        gen = store.generation
        state = _table_state(store)
    finally:
        store.close()
    if gen not in references:
        return gen, f"recovered generation {gen} was never committed cleanly"
    if state != references[gen]:
        bad = sorted(
            name for name in set(state) | set(references[gen])
            if state.get(name) != references[gen].get(name)
        )
        return gen, f"hybrid state: tables {bad} differ from generation {gen}"
    return gen, ""


# ---------------------------------------------------------------------- #
# fault-matrix cells and the corrupted-store fixture
# ---------------------------------------------------------------------- #
def make_corrupted_store(
    directory: str | Path, seed: int = 0, config: ScenarioConfig = ScenarioConfig()
) -> Path:
    """Build a real store, then deliberately rot its newest generation.

    Flips one payload byte in a shard referenced only by the newest
    manifest, so ``store-verify`` must report that generation broken and
    ``--repair`` must quarantine it and fall back to the previous one.
    Returns the store directory.
    """
    directory = Path(directory)
    scenario = run_scenario(directory, seed=seed, config=config)
    store = MmapShardStore.open(scenario.store_dir, mode="train")
    newest = store.generation
    manifest = store._manifest
    store.close()
    # Pick a shard file introduced by the newest generation (its name
    # carries the generation) so older generations stay consistent.
    tag = f"-g{newest:08d}-"
    for spec in manifest["tables"].values():
        for shard in spec["shards"]:
            if tag in shard["file"]:
                path = scenario.store_dir / "shards" / shard["file"]
                blob = bytearray(path.read_bytes())
                blob[-1] ^= 0xFF  # last payload byte
                path.write_bytes(bytes(blob))
                return scenario.store_dir
    raise StoreError(
        f"no shard exclusive to generation {newest}; cannot corrupt safely"
    )


def crash_cells(seed: int, workdir: str | Path) -> list[FaultCell]:
    """The full crash matrix for ``seed``, one verdict per IO fault kind
    (see the module docstring)."""
    workdir = Path(workdir)
    clean_io = RecordingStoreIO()
    clean = run_scenario(workdir / "clean", seed=seed, io=clean_io)
    references = _reference_states(clean.store_dir, clean.generations)
    genesis = manifest_name(0)
    cells = []
    for kind in IO_FAULT_KINDS:
        problems, fired, crashes = [], False, 0
        recovered: Counter = Counter()
        for op in range(clean.num_ops):
            op_path = clean_io.op_log[op].path
            cell_dir = workdir / f"op{op:04d}-{kind}"
            injector = FaultInjector(FaultPlan([Fault(step=op, kind=kind)]))
            try:
                run_scenario(cell_dir, seed=seed, io=FaultingStoreIO(injector))
            except (InjectedCrash, StoreError, CheckpointError, OSError):
                # The top of the "process": discard every live object and
                # recover purely from what reached disk.
                crashes += 1
            fired = fired or bool(injector.injected)
            gen, detail = _recover(
                cell_dir / "store", op_path, references, genesis
            )
            recovered[gen] += 1
            if detail:
                problems.append(f"op {op} ({op_path}): {detail}")
        cells.append(FaultCell(
            "store", seed, kind, tuple(problems),
            fired=(kind,) if fired else (),
            summary=(
                f"{clean.num_ops} io ops, {crashes} crashed, recovered "
                f"generations {dict(sorted(recovered.items(), key=str))}"
            ),
        ))
    return cells
