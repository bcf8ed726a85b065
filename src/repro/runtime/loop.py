"""The one mini-batch training loop every autograd model runs through.

``GradientRecommender.fit`` (the Table-3 models) and ``KGEModel.fit``
(the KGE models) build their parameters and their Adam, then hand
:func:`train_epochs` a batch-loss callable.  Per batch: ``zero_grad``,
``backward``, ``runtime.before_step`` (fault injection), ``step``, the
caller's ``after_step``, ``loss.item()``, ``runtime.observe_loss``
(divergence detection).  Each epoch end offers a checkpoint; entry
resumes from the newest one, replaying the RNG stream bitwise.  The
active telemetry sees ``fit``/``fit/epoch``/``fit/batch`` spans and the
``fit.*`` gauges and counters, behind one ``enabled`` check; it only
observes, so parameters and history are bitwise the same with it off.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autograd.optim import Optimizer
from repro.autograd.tensor import Tensor
from repro.runtime import TrainingRuntime
from repro.runtime.guards import grad_norm
from repro.telemetry.base import get_active

__all__ = ["train_epochs"]


def train_epochs(
    model: str,
    optimizer: Optimizer,
    batch_loss: Callable[[np.ndarray], Tensor],
    num_examples: int,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    runtime: TrainingRuntime | None = None,
    after_step: Callable[[], None] | None = None,
) -> list[float]:
    """Train ``optimizer.params`` for ``epochs``; returns per-epoch mean loss.

    ``batch_loss(idx)`` returns the differentiable loss of the examples
    ``idx`` (a slice of this epoch's permutation); it may draw from the
    same ``rng``.  ``model`` names the run in the telemetry.
    """
    params = optimizer.params
    runtime = runtime if runtime is not None else TrainingRuntime()
    history: list[float] = []
    start_epoch = 0
    snapshot = runtime.resume(params, optimizer, rng)
    if snapshot is not None:
        start_epoch = snapshot.step + 1
        history = [float(v) for v in snapshot.extra.get("history", [])]
    n = num_examples
    step = start_epoch * ((n + batch_size - 1) // batch_size)
    tel = get_active()
    enabled = tel.enabled
    if enabled:
        fit_span = tel.begin(
            "fit", model=model, epochs=epochs, start_epoch=start_epoch,
            examples=n, batch_size=batch_size,
        )
        loss_gauge = tel.gauge("fit.loss", model=model)
        grad_gauge = tel.gauge("fit.grad_norm", model=model)
        batch_counter = tel.counter("fit.batches")
    try:
        for epoch in range(start_epoch, epochs):
            if enabled:
                epoch_span = tel.begin("fit/epoch", epoch=epoch)
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                if enabled:
                    batch_span = tel.begin("fit/batch", step=step)
                idx = perm[start : start + batch_size]
                loss = batch_loss(idx)
                optimizer.zero_grad()
                loss.backward()
                runtime.before_step(step, params)
                optimizer.step()
                if after_step is not None:
                    after_step()
                loss_value = loss.item()
                runtime.observe_loss(loss_value)
                total += loss_value * idx.size
                step += 1
                if enabled:
                    loss_gauge.set(loss_value)
                    grad_gauge.set(grad_norm(params))
                    batch_counter.inc()
                    tel.end(batch_span, loss=loss_value)
            history.append(total / n)
            if enabled:
                tel.counter("fit.epochs").inc()
                tel.end(epoch_span, mean_loss=history[-1])
            runtime.maybe_checkpoint(
                epoch, params, optimizer, rng, extra={"history": history}
            )
    finally:
        if enabled:
            tel.end(fit_span, epochs_run=len(history) - start_epoch)
    return history
