"""Tests for the resilient training runtime (guards, retry, checkpoint, faults)."""

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
    RetryPolicy,
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
        det = DivergenceDetector(patience=3)
        det.update(1.0)
        det.update(float("nan"))
        det.update(float("inf"))
        with pytest.raises(TrainingDivergedError):
            det.update(float("nan"))

    def test_divergence_detector_growth(self):
        det = DivergenceDetector(patience=2, growth_factor=10.0)
        det.update(1.0)
        det.update(50.0)  # bad, streak 1
        with pytest.raises(TrainingDivergedError):
            det.update(60.0)  # bad, streak 2

    def test_divergence_streak_resets_on_good_update(self):
        det = DivergenceDetector(patience=2, growth_factor=10.0)
        det.update(1.0)
        det.update(50.0)
        det.update(0.9)  # recovers
        det.update(50.0)  # streak restarts at 1, no raise
        assert det.bad_streak == 1

    def test_detector_validates_config(self):
        with pytest.raises(ConfigError):
            DivergenceDetector(patience=0)
        with pytest.raises(ConfigError):
            DivergenceDetector(growth_factor=1.0)


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
# retry
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.5,
                             seed=7, sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_backoff_is_seeded_and_deterministic(self):
        a = RetryPolicy(max_attempts=4, base_delay=0.5, seed=13, sleep=lambda s: None)
        b = RetryPolicy(max_attempts=4, base_delay=0.5, seed=13, sleep=lambda s: None)
        assert a.delays() == b.delays()
        assert a.delays() == a.delays()  # reusable, restarts the stream
        c = RetryPolicy(max_attempts=4, base_delay=0.5, seed=14)
        assert a.delays() != c.delays()

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                             sleep=lambda s: None)
        with pytest.raises(ValueError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(ValueError("always")))

    def test_non_retryable_propagates_immediately(self):
        calls = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0,
                             retry_on=OSError, sleep=lambda s: None)

        def wrong_kind():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            policy.call(wrong_kind)
        assert len(calls) == 1

    def test_attempt_loop_form(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                             sleep=lambda s: None)
        tries = []
        for attempt in policy:
            with attempt:
                tries.append(attempt.number)
                if attempt.number < 2:
                    raise OSError("flaky")
        assert tries == [1, 2]

    def test_per_attempt_deadline_stops_retrying(self):
        # Fake clock: each attempt appears to take 100s against a 10s deadline.
        ticks = iter(range(0, 10_000, 100))
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.0, jitter=0.0, deadline=10.0,
            sleep=lambda s: None, clock=lambda: float(next(ticks)),
        )
        calls = []

        def slow_and_broken():
            calls.append(1)
            raise OSError("too slow anyway")

        with pytest.raises(OSError):
            policy.call(slow_and_broken)
        assert len(calls) == 1  # not worth retrying an over-deadline attempt

    def test_total_budget_stops_before_overrunning_slo(self):
        # Manual clock: each attempt takes 1s, backoff is a flat 10s.  With
        # a 15s total budget the first backoff fits (1 + 10 = 11s) but the
        # second would not (12 + 10 = 22s), so exactly two attempts run.
        now = [0.0]

        def clock():
            return now[0]

        def sleep(seconds):
            now[0] += seconds

        policy = RetryPolicy(
            max_attempts=5, base_delay=10.0, multiplier=1.0, jitter=0.0,
            total_budget=15.0, sleep=sleep, clock=clock,
        )
        calls = []

        def slow_and_broken():
            calls.append(1)
            now[0] += 1.0
            raise OSError("still broken")

        with pytest.raises(OSError):
            policy.call(slow_and_broken)
        assert len(calls) == 2
        assert now[0] <= 15.0  # the SLO was never exceeded

    def test_total_budget_unlimited_by_default(self):
        now = [0.0]
        policy = RetryPolicy(
            max_attempts=4, base_delay=10.0, multiplier=1.0, jitter=0.0,
            sleep=lambda s: now.__setitem__(0, now[0] + s),
            clock=lambda: now[0],
        )
        calls = []

        def broken():
            calls.append(1)
            raise OSError("nope")

        with pytest.raises(OSError):
            policy.call(broken)
        assert len(calls) == 4  # every attempt ran, however long the backoff

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(total_budget=0.0)

    def test_budget_with_zero_base_delay_rejected(self):
        # base_delay=0 means backoff sleeps can never consume the budget:
        # the loop would retry max_attempts times with the budget check
        # inert.  Construction must reject the combination up front.
        with pytest.raises(ConfigError, match="base_delay"):
            RetryPolicy(total_budget=5.0, base_delay=0.0)
        # Without a budget, zero backoff stays legal (pure attempt cap).
        RetryPolicy(base_delay=0.0)
        # With max_attempts=1 there is no backoff to consume it either.
        RetryPolicy(total_budget=5.0, base_delay=0.0, max_attempts=1)

    def test_budget_with_non_advancing_clock_raises_config_error(self):
        # A mis-wired ManualClock (sleep does not advance the clock the
        # policy reads) would make the budget check read zero elapsed
        # time forever — surfaced as ConfigError, not an infinite spin.
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, jitter=0.0, total_budget=100.0,
            sleep=lambda s: None, clock=lambda: 0.0,
        )

        def broken():
            raise OSError("still down")

        with pytest.raises(ConfigError, match="clock did not advance"):
            policy.call(broken)

    def test_budget_with_wired_manual_clock_trips_normally(self):
        # Correctly wired (sleep advances the same clock), the budget
        # gives up with the last real error — never ConfigError.
        from repro.core.clock import ManualClock

        clock = ManualClock()
        policy = RetryPolicy(
            max_attempts=50, base_delay=1.0, multiplier=1.0, jitter=0.0,
            total_budget=3.5, sleep=clock.advance, clock=clock,
        )
        calls = []

        def broken():
            calls.append(1)
            raise OSError("still down")

        with pytest.raises(OSError):
            policy.call(broken)
        assert 1 < len(calls) < 50  # budget, not the attempt cap, stopped it
        assert clock() <= 3.5


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

    def test_checkpointer_interval_and_prune(self, tmp_path):
        params = _params([1.0])
        ck = Checkpointer(tmp_path, every=2, keep=2)
        saved = [ck.maybe_save(step, params) for step in range(8)]
        # 0-based steps: saves fire at steps 1, 3, 5, 7
        assert [s is not None for s in saved] == [False, True] * 4
        assert len(ck.paths()) == 2  # pruned to the newest two
        assert ck.paths()[-1].name.endswith("00000007.npz")
        assert ck.restore_latest(_params([0.0])).step == 7

    def test_restore_latest_empty_directory(self, tmp_path):
        ck = Checkpointer(tmp_path)
        assert ck.restore_latest(_params([1.0])) is None

    def test_resume_skips_truncated_latest(self, tmp_path):
        params = _params([1.0])
        ck = Checkpointer(tmp_path, every=1, keep=3)
        for step in range(3):
            params[0].data[:] = float(step)
            ck.maybe_save(step, params)
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
            ck.maybe_save(3, params)
        assert list(tmp_path.iterdir()) == []

    def test_resume_raises_when_every_checkpoint_is_corrupt(self, tmp_path):
        params = _params([1.0])
        ck = Checkpointer(tmp_path, every=1, keep=3)
        for step in range(2):
            ck.maybe_save(step, params)
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
            divergence=DivergenceDetector(patience=2),
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
            checkpointer=Checkpointer(tmp_path, every=1, keep=epochs),
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
                checkpointer=Checkpointer(tmp_path, every=1, keep=epochs)
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
            checkpointer=Checkpointer(tmp_path, every=1, keep=2),
            faults=FaultInjector(FaultPlan([Fault(step=4, kind="raise")])),
        )
        with pytest.raises(InjectedFault):
            crashed.fit(small_store, epochs=epochs, seed=0, runtime=runtime)

        # Resume in a fresh process-equivalent: new model object, no faults.
        resumed = TransE(12, 2, dim=6, seed=0)
        history = resumed.fit(
            small_store, epochs=epochs, seed=0,
            runtime=TrainingRuntime(
                checkpointer=Checkpointer(tmp_path, every=1, keep=2)
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
        ck = Checkpointer(tmp_path, every=1)
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
