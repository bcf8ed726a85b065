"""Tests for the resilient training runtime (guards, checkpoint, faults)."""

import numpy as np
import pytest

from repro.autograd import Adam
from repro.autograd.nn import Parameter
from repro.core.exceptions import (
    CheckpointError,
    ConfigError,
    TrainingDivergedError,
)
from repro.kg.triples import TripleStore
from repro.kge import TransE
from repro.models.unified.kgcn import KGCN
from repro.runtime import (
    Checkpointer,
    DivergenceDetector,
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    TrainingRuntime,
    grad_norm,
    load_checkpoint,
    save_checkpoint,
)


def _params(*arrays):
    out = []
    for a in arrays:
        p = Parameter(np.asarray(a, dtype=np.float64))
        p.grad = np.zeros_like(p.data)
        out.append(p)
    return out


@pytest.fixture(scope="module")
def small_store():
    """A tiny deterministic KG for fast TransE runs."""
    rng = np.random.default_rng(3)
    triples = [(int(rng.integers(12)), int(rng.integers(2)), int(rng.integers(12)))
               for __ in range(30)]
    return TripleStore.from_triples(triples, 12, 2)


# ---------------------------------------------------------------------- #
# guards
# ---------------------------------------------------------------------- #
class TestGuards:
    def test_grad_norm(self):
        a, b = _params([3.0, 4.0], [12.0])
        a.grad[:] = [3.0, 4.0]
        b.grad[:] = [12.0]
        assert grad_norm([a, b]) == pytest.approx(13.0)

    def test_divergence_detector_nonfinite_patience(self):
        det = DivergenceDetector()
        det.update(1.0)
        for loss in ("nan", "inf", "nan", "-inf"):
            det.update(float(loss))  # bad, streaks 1 to 4 of PATIENCE = 5
        with pytest.raises(TrainingDivergedError):
            det.update(float("nan"))

    def test_divergence_detector_growth(self):
        det = DivergenceDetector()
        det.update(1.0)
        for __ in range(4):
            det.update(50.0)  # above GROWTH_FACTOR = 10 times the best
        with pytest.raises(TrainingDivergedError):
            det.update(60.0)  # bad, streak 5

    def test_divergence_streak_resets_on_good_update(self):
        det = DivergenceDetector()
        det.update(1.0)
        det.update(50.0)
        det.update(0.9)  # recovers
        det.update(50.0)  # streak restarts at 1, no raise
        assert det.bad_streak == 1

    def test_divergence_floor_guards_near_zero_best(self):
        det = DivergenceDetector()
        det.update(0.0)
        for __ in range(10):
            det.update(0.01)  # 10 x FLOOR, not above it: never bad
        assert det.bad_streak == 0
        det.update(0.0101)
        assert det.bad_streak == 1


# ---------------------------------------------------------------------- #
# the optimizer applies what it is given
# ---------------------------------------------------------------------- #
class TestOptimizerGuards:
    def test_off_policy_preserves_legacy_behavior(self):
        # Adam has no gradient guard: a NaN gradient reaches the parameters,
        # and the runtime (detector, checkpoint refusal) stops the run.
        (p,) = _params([1.0])
        opt = Adam([p], lr=0.1)
        p.grad[:] = [np.nan]
        opt.step()
        assert np.isnan(p.data).all()


# ---------------------------------------------------------------------- #
# checkpointing
# ---------------------------------------------------------------------- #
class TestCheckpoint:
    def test_roundtrip_params_optimizer_rng(self, tmp_path):
        params = _params([1.0, 2.0], [[3.0], [4.0]])
        opt = Adam(params, lr=0.1)
        params[0].grad[:] = [0.1, 0.2]
        params[1].grad[:] = [[0.3], [0.4]]
        opt.step()
        rng = np.random.default_rng(5)
        rng.random(7)  # advance the stream

        path = save_checkpoint(tmp_path / "c.npz", params, optimizer=opt,
                               step=4, rng=rng, extra={"history": [1.0, 0.5]})
        ck = load_checkpoint(path)
        assert ck.step == 4
        assert ck.extra["history"] == [1.0, 0.5]

        fresh = _params([0.0, 0.0], [[0.0], [0.0]])
        fresh_opt = Adam(fresh, lr=0.1)
        fresh_rng = np.random.default_rng(0)
        ck.restore(fresh, optimizer=fresh_opt, rng=fresh_rng)
        np.testing.assert_array_equal(fresh[0].data, params[0].data)
        np.testing.assert_array_equal(fresh_opt._m[1], opt._m[1])
        assert fresh_opt._t == opt._t
        assert fresh_rng.random() == rng.random()

    def test_shape_mismatch_raises(self, tmp_path):
        params = _params([1.0, 2.0])
        path = save_checkpoint(tmp_path / "c.npz", params)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path).restore(_params([0.0, 0.0, 0.0]))

    def test_corrupt_archive_raises_checkpoint_error(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    def test_checkpointer_prunes_to_keep(self, tmp_path):
        params = _params([1.0])
        ck = Checkpointer(tmp_path, keep=2)
        for step in range(8):
            ck.save(step, params)
        assert [p.name for p in ck.paths()] == [
            "ckpt-00000006.npz", "ckpt-00000007.npz",
        ]  # pruned to the newest two
        assert ck.restore_latest(_params([0.0])).step == 7

    def test_restore_latest_empty_directory(self, tmp_path):
        ck = Checkpointer(tmp_path)
        assert ck.restore_latest(_params([1.0])) is None

    def test_resume_skips_truncated_latest(self, tmp_path):
        params = _params([1.0])
        ck = Checkpointer(tmp_path, keep=3)
        for step in range(3):
            params[0].data[:] = float(step)
            ck.save(step, params)
        # truncate the newest file, as if the process died mid-write
        newest = ck.paths()[-1]
        with open(newest, "r+b") as handle:
            handle.truncate(40)
        target = _params([0.0])
        restored = ck.restore_latest(target)
        assert restored.step == 1  # fell back to the newest *loadable* one
        np.testing.assert_array_equal(target[0].data, [1.0])

    def test_save_refuses_non_finite_params_and_writes_nothing(self, tmp_path):
        params = _params([1.0], [2.0, np.inf])
        ck = Checkpointer(tmp_path)
        with pytest.raises(TrainingDivergedError, match="step 3: parameter 1"):
            ck.save(3, params)
        assert list(tmp_path.iterdir()) == []

    def test_resume_raises_when_every_checkpoint_is_corrupt(self, tmp_path):
        params = _params([1.0])
        ck = Checkpointer(tmp_path, keep=3)
        for step in range(2):
            ck.save(step, params)
        for path in ck.paths():
            path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="2 candidate.s. failed"):
            ck.restore_latest(params)


# ---------------------------------------------------------------------- #
# fault injection
# ---------------------------------------------------------------------- #
class TestFaults:
    def test_plan_is_deterministic(self):
        a = FaultPlan.random(num_steps=100, rate=0.2, seed=9)
        b = FaultPlan.random(num_steps=100, rate=0.2, seed=9)
        assert [(f.step, f.kind) for f in a] == [(f.step, f.kind) for f in b]
        assert len(a) > 0

    def test_nan_grad_fault(self):
        (p,) = _params([1.0, 2.0])
        p.grad[:] = [0.5, 0.5]
        injector = FaultInjector(FaultPlan([Fault(step=3, kind="nan_grad")]))
        injector.before_step(2, [p])
        assert np.isfinite(p.grad).all()
        injector.before_step(3, [p])
        assert np.isnan(p.grad).all()
        assert len(injector.injected) == 1

    def test_raise_fault(self):
        injector = FaultInjector(FaultPlan([Fault(step=0, kind="raise")]))
        with pytest.raises(InjectedFault):
            injector.before_step(0)

    def test_stall_fault_uses_injected_sleep(self):
        stalls = []
        injector = FaultInjector(
            FaultPlan([Fault(step=1, kind="stall", seconds=42.0)]),
            sleep=stalls.append,
        )
        injector.before_step(1)
        assert stalls == [42.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Fault(step=0, kind="explode")


# ---------------------------------------------------------------------- #
# end-to-end: the runtime threaded through a KGE fit loop
# ---------------------------------------------------------------------- #
class TestKGERuntimeIntegration:
    def test_divergence_detector_raises_on_injected_nans(self, small_store):
        # The NaN gradients poison the parameters and therefore the loss;
        # the detector must pull the plug.
        plan = FaultPlan([Fault(step=s, kind="nan_grad") for s in range(2, 8)])
        runtime = TrainingRuntime(
            divergence=DivergenceDetector(),
            faults=FaultInjector(plan),
        )
        model = TransE(12, 2, dim=6, seed=0)
        with pytest.raises(TrainingDivergedError):
            model.fit(small_store, epochs=8, seed=0, runtime=runtime)

    def test_nan_on_an_epochs_last_batch_is_never_checkpointed(
        self, small_store, tmp_path
    ):
        # 30 triples in batches of 8: four steps per epoch, so step 7 is the
        # last of epoch 1.  Its loss was computed before the poisoned step,
        # so the detector sees a finite loss; the checkpoint must refuse.
        epochs, fit = 4, dict(epochs=4, batch_size=8, seed=0)
        reference = TransE(12, 2, dim=6, seed=0)
        ref_history = reference.fit(small_store, **fit)

        poisoned = TransE(12, 2, dim=6, seed=0)
        runtime = TrainingRuntime(
            divergence=DivergenceDetector(),
            checkpointer=Checkpointer(tmp_path, keep=epochs),
            faults=FaultInjector(FaultPlan([Fault(step=7, kind="nan_grad")])),
        )
        with pytest.raises(TrainingDivergedError, match="checkpoint step 1"):
            poisoned.fit(small_store, runtime=runtime, **fit)
        assert [p.name for p in runtime.checkpointer.paths()] == [
            "ckpt-00000000.npz"
        ]

        resumed = TransE(12, 2, dim=6, seed=0)
        history = resumed.fit(
            small_store,
            runtime=TrainingRuntime(
                checkpointer=Checkpointer(tmp_path, keep=epochs)
            ),
            **fit,
        )
        assert history == ref_history
        np.testing.assert_array_equal(
            resumed.entity.weight.data, reference.entity.weight.data
        )
        np.testing.assert_array_equal(
            resumed.relation.weight.data, reference.relation.weight.data
        )

    def test_checkpoint_crash_resume_is_bitwise_identical(self, small_store, tmp_path):
        epochs = 6
        reference = TransE(12, 2, dim=6, seed=0)
        ref_history = reference.fit(small_store, epochs=epochs, seed=0)

        # Interrupted run: checkpoints every epoch, killed mid-epoch 4
        # (batch_size >= num_triples, so global step == epoch).
        crashed = TransE(12, 2, dim=6, seed=0)
        runtime = TrainingRuntime(
            checkpointer=Checkpointer(tmp_path, keep=2),
            faults=FaultInjector(FaultPlan([Fault(step=4, kind="raise")])),
        )
        with pytest.raises(InjectedFault):
            crashed.fit(small_store, epochs=epochs, seed=0, runtime=runtime)

        # Resume in a fresh process-equivalent: new model object, no faults.
        resumed = TransE(12, 2, dim=6, seed=0)
        history = resumed.fit(
            small_store, epochs=epochs, seed=0,
            runtime=TrainingRuntime(
                checkpointer=Checkpointer(tmp_path, keep=2)
            ),
        )
        np.testing.assert_array_equal(
            resumed.entity.weight.data, reference.entity.weight.data
        )
        np.testing.assert_array_equal(
            resumed.relation.weight.data, reference.relation.weight.data
        )
        np.testing.assert_allclose(history, ref_history)
        assert resumed.is_fitted

    def test_resume_skips_completed_training(self, small_store, tmp_path):
        ck = Checkpointer(tmp_path)
        first = TransE(12, 2, dim=6, seed=0)
        first.fit(small_store, epochs=3, seed=0,
                  runtime=TrainingRuntime(checkpointer=ck))
        again = TransE(12, 2, dim=6, seed=0)
        history = again.fit(small_store, epochs=3, seed=0,
                            runtime=TrainingRuntime(checkpointer=ck))
        assert len(history) == 3
        np.testing.assert_array_equal(
            again.entity.weight.data, first.entity.weight.data
        )


# ---------------------------------------------------------------------- #
# the same loop under a Table-3 model
# ---------------------------------------------------------------------- #
class TestGradientRecommenderRuntime:
    def _state(self, model):
        return [p.data.tobytes() for p in model.parameters()], model.loss_history

    def test_idle_runtime_is_bitwise_the_plain_fit(self, movie_dataset):
        plain = KGCN(epochs=2, seed=0).fit(movie_dataset)
        idle = KGCN(epochs=2, seed=0).fit(movie_dataset, runtime=TrainingRuntime())
        assert self._state(idle) == self._state(plain)

    def test_raise_then_resume_is_bitwise_the_clean_fit(self, movie_dataset, tmp_path):
        clean = KGCN(epochs=3, seed=0).fit(movie_dataset)
        pairs = movie_dataset.interactions.pairs().shape[0]
        batches = -(-pairs // clean.batch_size)
        # Mid-epoch 1: epoch 0's snapshot exists, epoch 1's work is lost.
        plan = FaultPlan([Fault(step=batches + batches // 2, kind="raise")])
        with pytest.raises(InjectedFault):
            KGCN(epochs=3, seed=0).fit(
                movie_dataset,
                runtime=TrainingRuntime(
                    checkpointer=Checkpointer(tmp_path), faults=FaultInjector(plan)
                ),
            )
        resumed = KGCN(epochs=3, seed=0).fit(
            movie_dataset, runtime=TrainingRuntime(checkpointer=Checkpointer(tmp_path))
        )
        assert self._state(resumed) == self._state(clean)
