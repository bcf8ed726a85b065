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
   :class:`~repro.store.io.StoreIO`.
2. :func:`run_crash_matrix` first runs the scenario clean to enumerate
   its IO operations and record every committed generation's table bytes,
   then replays it once per ``(operation, fault kind)`` pair with a
   :class:`~repro.store.io.FaultingStoreIO`, "pulls the plug"
   (:class:`~repro.runtime.faults.InjectedCrash` is caught only at the
   very top), re-opens the store, and asserts the recovered state equals
   one recorded generation exactly.
3. :func:`crash_cells` is the store's cell function for
   ``python -m repro fault-matrix`` (one verdict per fault kind per
   seed); :func:`make_corrupted_store` leaves a deliberately corrupted
   store behind for ``store-verify --repair`` to exercise.

A cell may legitimately recover *nothing* only when the faulted operation
is part of writing generation 0's manifest — the store was never created,
so there is no generation to fall back to; every other cell must recover.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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

from .io import FaultingStoreIO, StoreIO
from .manifest import manifest_name
from .mmap import MmapShardStore

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "CrashCell",
    "CrashMatrixResult",
    "run_scenario",
    "run_crash_matrix",
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
@dataclass(frozen=True)
class CrashCell:
    """Outcome of one ``(io op, fault kind)`` replay."""

    op: int
    kind: str
    op_path: str
    crashed: bool  # the injected fault surfaced (crash or aborted commit)
    fired: bool  # the injector recorded the fault (bitrot fires silently)
    recovered_generation: int | None  # None = store unrecoverable
    ok: bool
    detail: str = ""


@dataclass
class CrashMatrixResult:
    """All cells plus the clean run they were compared against."""

    seed: int
    num_ops: int
    reference_generations: tuple[int, ...]
    cells: list[CrashCell] = field(default_factory=list)

    @property
    def violations(self) -> list[CrashCell]:
        return [c for c in self.cells if not c.ok]


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


def run_crash_matrix(
    workdir: str | Path,
    seed: int = 0,
    ops: tuple[int, ...] | None = None,
    config: ScenarioConfig = ScenarioConfig(),
) -> CrashMatrixResult:
    """Replay the scenario with every fault kind at every IO operation.

    Each cell asserts the core invariant and records the outcome; use
    :attr:`CrashMatrixResult.violations` (empty = pass).  ``ops`` narrows
    the sweep to specific operation indices (default: all of them).
    """
    workdir = Path(workdir)
    clean_io = StoreIO()
    clean = run_scenario(workdir / "clean", seed=seed, io=clean_io, config=config)
    references = _reference_states(clean.store_dir, clean.generations)
    genesis = manifest_name(0)

    result = CrashMatrixResult(
        seed=seed, num_ops=clean.num_ops,
        reference_generations=clean.generations,
    )
    sweep = ops if ops is not None else tuple(range(clean.num_ops))
    for op in sweep:
        op_path = clean_io.op_log[op].path
        for kind in IO_FAULT_KINDS:
            cell_dir = workdir / f"op{op:04d}-{kind}"
            injector = FaultInjector(FaultPlan([Fault(step=op, kind=kind)]))
            crashed = False
            try:
                run_scenario(
                    cell_dir, seed=seed, io=FaultingStoreIO(injector),
                    config=config,
                )
            except (InjectedCrash, StoreError, CheckpointError, OSError):
                # The top of the "process": discard every live object and
                # recover purely from what reached disk.
                crashed = True
            gen, detail = _recover(
                cell_dir / "store", op_path, references, genesis
            )
            result.cells.append(CrashCell(
                op=op, kind=kind, op_path=op_path, crashed=crashed,
                fired=bool(injector.injected), recovered_generation=gen,
                ok=not detail, detail=detail,
            ))
    return result


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
    """The full crash matrix for ``seed``, one verdict per IO fault kind."""
    result = run_crash_matrix(workdir, seed=seed)
    cells = []
    for kind in IO_FAULT_KINDS:
        mine = [c for c in result.cells if c.kind == kind]
        recovered = Counter(c.recovered_generation for c in mine)
        cells.append(FaultCell(
            "store", seed, kind,
            problems=tuple(
                f"op {c.op} ({c.op_path}): {c.detail}"
                for c in mine if not c.ok
            ),
            fired=(kind,) if any(c.fired for c in mine) else (),
            summary=(
                f"{len(mine)} io ops, {sum(c.crashed for c in mine)} "
                "crashed, recovered generations "
                f"{dict(sorted(recovered.items(), key=str))}"
            ),
        ))
    return cells
