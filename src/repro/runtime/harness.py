"""The fault matrix's training cells: a Table-3 model under every training fault.

:func:`resume_cells` (``python -m repro fault-matrix training``) fits KGCN,
a ``train-panel`` entry, on a small movie world once with no runtime, then
once per training kind under a detector, per-epoch checkpoints and an
injector sleeping on a manual clock.  ``raise`` mid-epoch and ``nan_grad``
on an epoch's last batch (a finite loss, so only the checkpoint's refusal
of NaN parameters stops it) must reach the caller as ``InjectedFault`` and
``TrainingDivergedError``, and a fresh fit resuming from the checkpoints
must be bitwise the clean fit (parameters and ``loss_history``); ``stall``
must leave the fit bitwise clean and advance the clock by the stall.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from repro.core.clock import ManualClock
from repro.core.exceptions import TrainingDivergedError
from repro.data import make_movie_dataset
from repro.models.unified.kgcn import KGCN
from repro.runtime import TrainingRuntime
from repro.runtime.checkpoint import Checkpointer
from repro.runtime.faults import Fault, FaultCell, FaultInjector, FaultPlan, InjectedFault
from repro.runtime.guards import DivergenceDetector

__all__ = ["resume_cells"]

#: World, schedule and stall of every training cell.
NUM_USERS, NUM_ITEMS, EPOCHS, STALL_SECONDS = 60, 80, 4, 30.0


def _state(model: KGCN) -> str:
    """Digest of every parameter's bytes and of the loss history."""
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(p.data.tobytes())
    h.update(np.asarray(model.loss_history, dtype=np.float64).tobytes())
    return h.hexdigest()


def _attempt(dataset, seed: int, runtime: TrainingRuntime):
    """``(state digest, None)`` of a fit, or ``(None, what it raised)``."""
    try:
        model = KGCN(epochs=EPOCHS, seed=seed).fit(dataset, runtime=runtime)
    except Exception as exc:  # judged by the caller, whatever it is
        return None, exc
    return _state(model), None


def _runtime(directory: Path, plan: FaultPlan, clock: ManualClock) -> TrainingRuntime:
    return TrainingRuntime(
        divergence=DivergenceDetector(),
        checkpointer=Checkpointer(directory, keep=EPOCHS),
        faults=FaultInjector(plan, sleep=clock.advance),
    )


def resume_cells(seed: int, directory: Path) -> list[FaultCell]:
    """One cell per training fault kind for ``seed``'s world."""
    dataset = make_movie_dataset(seed=seed, num_users=NUM_USERS, num_items=NUM_ITEMS)
    model = KGCN(epochs=EPOCHS, seed=seed)
    clean = _state(model.fit(dataset))
    batches = math.ceil(dataset.interactions.pairs().shape[0] / model.batch_size)
    faults = {
        "raise": (Fault(2 * batches + batches // 2, "raise"), InjectedFault),
        "nan_grad": (Fault(2 * batches - 1, "nan_grad"), TrainingDivergedError),
        "stall": (Fault(batches + 1, "stall", seconds=STALL_SECONDS), None),
    }
    cells = []
    for kind, (fault, expected) in faults.items():
        clock = ManualClock()
        runtime = _runtime(Path(directory) / kind, FaultPlan([fault]), clock)
        state, raised = _attempt(dataset, seed, runtime)
        got = "no error" if raised is None else type(raised).__name__
        problems = []
        if expected is None:  # the faulted fit itself must be the clean fit
            what, summary = "stalled fit", f"clock +{clock():g} s"
            if clock() != fault.seconds:
                problems.append(f"clock advanced {clock()} s, not {fault.seconds} s")
        else:  # it must fail typed, and a fresh fit resuming must be clean
            snapshots = runtime.checkpointer.paths()
            newest = snapshots[-1].stem if snapshots else "no snapshot"
            what = summary = f"fit resumed from {newest}"
            if not isinstance(raised, expected):
                problems.append(f"expected {expected.__name__}, got {got}")
            resume = _runtime(runtime.checkpointer.directory, FaultPlan(), clock)
            state, raised = _attempt(dataset, seed, resume)
        if raised is not None:
            problems.append(f"{what} raised {type(raised).__name__}: {raised}")
        elif state != clean:
            problems.append(f"{what} is not bitwise the clean fit")
        cells.append(FaultCell(
            "training", seed, kind, tuple(problems),
            tuple(f.kind for f in runtime.faults.injected),
            f"step {fault.step}: {got}, {summary}",
        ))
    return cells
