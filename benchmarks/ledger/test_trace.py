"""Tests for the ledger's outside-in tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

from __future__ import annotations

import itertools

import pytest

from benchmarks.ledger.trace import CHILD, END, OP, PARENT, START, Tracer, self_times
from benchmarks.ledger.workloads import make_workload


def fake_clock(step: float = 1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_self_time_of_nested_spans_on_a_fake_clock():
    tracer = Tracer(clock=fake_clock())
    with tracer.span("root"):  # t=0
        with tracer.span("a"):  # t=1
            with tracer.span("b"):  # t=2
                pass  # b ends t=3
        # a ends t=4
        with tracer.span("b"):  # t=5
            pass  # ends t=6
    # root ends t=7
    with tracer.span("root"):  # t=8, a second op
        pass  # ends t=9

    times = self_times(tracer.spans)
    assert times["root"] == (3.0 + 1.0, 8.0, 2)  # 0..7 minus a and b, then 8..9
    assert times["a"] == (2.0, 3.0, 1)
    assert times["b"] == (2.0, 2.0, 2)
    # Self times partition the root spans exactly.
    total = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    assert sum(v[0] for v in times.values()) == total
    assert [s[OP] for s in tracer.spans] == [0, 0, 0, 0, 1]
    assert tracer.spans[0][CHILD] == 4.0


def test_timed_wrapper_keeps_spans_balanced_when_the_call_raises():
    tracer = Tracer(clock=fake_clock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.timed(boom, "boom")()
    with tracer.span("after"):
        pass
    assert [s[PARENT] for s in tracer.spans] == [-1, -1]


def test_patch_function_wraps_and_restores_every_alias():
    import repro.runtime.guards as guards
    import repro.serving.registry as registry
    import repro.serving.service as service

    original = guards.validate_scores
    assert registry.validate_scores is original and service.validate_scores is original
    tracer = Tracer()
    patched = tracer.patch_function(original, "validate_scores")
    assert patched >= 3
    for module in (guards, registry, service):
        assert module.validate_scores is not original
    service.validate_scores([1.0, 2.0], 2)
    registry.validate_scores([1.0], 1)
    assert self_times(tracer.spans)["validate_scores"][2] == 2
    tracer.restore()
    for module in (guards, registry, service):
        assert module.validate_scores is original


def test_patch_method_restores_own_inherited_and_classmethod_attributes():
    class Base:
        def run(self):
            return "base"

        @classmethod
        def make(cls):
            return cls()

    class Child(Base):
        pass

    tracer = Tracer()
    own_run, own_make = Base.__dict__["run"], Base.__dict__["make"]
    tracer.patch_method(Child, "run", "run")  # inherited: set on Child only
    tracer.patch_method(Base, "make", "make")  # classmethod
    tracer.patch_method(Base, "__init__", "inits", count_only=True)
    assert "run" in Child.__dict__
    assert Child().run() == "base"
    assert isinstance(Child.make(), Child)
    assert tracer.counts["inits"] == 2
    assert [s[0] for s in tracer.spans] == ["run", "make"]
    tracer.restore()
    assert "run" not in Child.__dict__ and "__init__" not in Base.__dict__
    assert Base.__dict__["run"] is own_run and Base.__dict__["make"] is own_make


def test_traced_serve_replay_matches_the_untraced_digest(tmp_path):
    workload = make_workload("serve-ivf-1e5", seed=0, workdir=tmp_path, smoke=True)
    service = workload.setup()
    plain = workload.run_pass(service, None, keep=True, tick=lambda: None)
    tracer = Tracer()
    workload.instrument(tracer)
    try:
        traced = workload.run_pass(service, tracer, keep=False, tick=lambda: None)
    finally:
        tracer.restore()

    assert traced.digest == plain.digest
    recall, problems = workload.check(plain.outputs)
    assert problems == [] and recall >= 0.9
    layers = workload.layer_metrics(tracer, [plain])
    assert layers["retrieval.candidates_per_req"] >= workload.k_candidates
    assert 0 < layers["retrieval.candidate_yield"] <= 1
    # Layers plus the serve() residual add up to serve() wall time.
    times = self_times(tracer.spans)
    serve_total = times["serve"][1]
    assert sum(v[0] for v in times.values()) == pytest.approx(serve_total, rel=1e-9)
    assert times["serve"][2] == len(workload.requests)
