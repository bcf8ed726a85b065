"""Resilient training runtime: guards, checkpoints, fault injection.

This package is the robustness layer the training loop and the serving
and storage layers run through:

* :mod:`repro.runtime.loop` — :func:`~repro.runtime.loop.train_epochs`,
  the one mini-batch loop every autograd model trains through.
* :mod:`repro.runtime.guards` — gradient norms, loss-divergence
  detection, and served-score validation.
* :mod:`repro.runtime.checkpoint` — ``.npz`` snapshot/restore of
  parameters + optimizer + RNG state, saved every epoch with
  resume-from-latest; non-finite parameters are never saved.
* :mod:`repro.runtime.faults` — deterministic fault injection so every
  guard is testable without flaky sleeps.

:class:`TrainingRuntime` bundles the pieces into the one object the loop
accepts (``fit(..., runtime=)``); :mod:`repro.runtime.harness` fits a
Table-3 model under it for the fault matrix.  Telemetry is not one of
them: a fit reports to the active telemetry, installed with
:func:`repro.telemetry.activated`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, Checkpointer, load_checkpoint, save_checkpoint
from .faults import (
    FAULT_KINDS,
    IO_FAULT_KINDS,
    SERVING_FAULT_KINDS,
    TRAINING_FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
)
from .guards import (
    DivergenceDetector,
    ScoreReport,
    grad_norm,
    raw_grad,
    validate_scores,
)

__all__ = [
    "raw_grad",
    "grad_norm",
    "validate_scores",
    "ScoreReport",
    "DivergenceDetector",
    "Checkpoint",
    "Checkpointer",
    "save_checkpoint",
    "load_checkpoint",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "FAULT_KINDS",
    "TRAINING_FAULT_KINDS",
    "SERVING_FAULT_KINDS",
    "IO_FAULT_KINDS",
    "TrainingRuntime",
]


@dataclass
class TrainingRuntime:
    """Bundle of runtime services threaded through an iterative ``fit``.

    All fields are optional; a default-constructed runtime is a no-op, so
    trainers can call the hook methods unconditionally.
    """

    divergence: DivergenceDetector | None = None
    checkpointer: Checkpointer | None = None
    faults: FaultInjector | None = None

    def before_step(self, step: int, params=()) -> None:
        """Fault-injection hook: call after ``backward``, before ``step``."""
        if self.faults is not None:
            self.faults.before_step(step, params)

    def observe_loss(self, loss: float) -> None:
        """Divergence hook: call once per optimizer step with the batch loss."""
        if self.divergence is not None:
            self.divergence.update(loss)

    def resume(self, params, optimizer, rng: np.random.Generator) -> Checkpoint | None:
        """Restore the newest checkpoint into live objects, if one exists."""
        if self.checkpointer is None:
            return None
        return self.checkpointer.restore_latest(params, optimizer=optimizer, rng=rng)

    def maybe_checkpoint(self, step: int, params, optimizer, rng, extra: dict) -> None:
        """Checkpoint hook: call at the end of each epoch."""
        if self.checkpointer is not None:
            self.checkpointer.save(
                step, params, optimizer=optimizer, rng=rng, extra=extra
            )
