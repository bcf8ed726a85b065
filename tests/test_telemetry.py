"""Unit tests for `repro.telemetry`: tracer, metrics, export, profiling.

Covers the observability subsystem's own invariants (span nesting on an
injected clock, exact small-sample quantiles, JSONL round-trips) and its
non-interference contract: telemetry off must record nothing and training
must be bitwise identical with telemetry on vs off.
"""

import math

import numpy as np
import pytest

from repro.core.clock import ManualClock
from repro.core.exceptions import DataError
from repro.data import make_movie_dataset
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NeighborCache, corrupt_batch
from repro.kg.triples import TripleStore
from repro.kge.translational import TransE
from repro.models.path_based.kprn import KPRN
from repro.models.unified.kgcn import KGCN
from repro.serving.metrics import ServiceMetrics
from repro.telemetry import (
    NULL,
    Histogram,
    MetricRegistry,
    NullTelemetry,
    SCHEMA_VERSION,
    Telemetry,
    Tracer,
    activate,
    activated,
    exact_quantile,
    export_records,
    get_active,
    read_jsonl,
    render_trace_report,
    validate_records,
    write_jsonl,
)
from repro.telemetry import tracer as tracer_module


@pytest.fixture(autouse=True)
def _deactivate():
    """Every test starts and ends with no active telemetry."""
    previous = activate(None)
    yield
    activate(previous)


def small_store(seed=0):
    rng = np.random.default_rng(seed)
    n = 40
    heads = rng.integers(0, 12, size=n)
    rels = rng.integers(0, 3, size=n)
    tails = rng.integers(0, 12, size=n)
    return TripleStore(heads, rels, tails, num_entities=12, num_relations=3)


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_span_nesting_and_ordering_on_manual_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        outer = tracer.begin("outer")
        clock.advance(1.0)
        inner = tracer.begin("inner")
        clock.advance(0.25)
        tracer.end(inner)
        clock.advance(0.5)
        tracer.end(outer)

        records = tracer.records()
        # End order: children land before their parents.
        assert [r.name for r in records] == ["inner", "outer"]
        by_name = {r.name: r for r in records}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].start == 1.0
        assert by_name["inner"].duration == 0.25
        assert by_name["outer"].duration == 1.75

    def test_sequential_ids_and_sibling_parentage(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.begin("root")
        a = tracer.begin("a")
        tracer.end(a)
        b = tracer.begin("b")
        tracer.end(b)
        tracer.end(root)
        assert [s.span_id for s in (root, a, b)] == [0, 1, 2]
        # Both siblings hang off the root, not off each other.
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_end_is_idempotent(self):
        tracer = Tracer(clock=ManualClock())
        span = tracer.begin("once")
        assert tracer.end(span) is not None
        assert tracer.end(span) is None
        assert len(tracer.records()) == 1

    def test_out_of_order_end_cleans_stack(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        outer = tracer.begin("outer")
        tracer.begin("leaked")  # never explicitly ended
        tracer.end(outer)  # ends outer while 'leaked' still open
        after = tracer.begin("after")
        tracer.end(after)
        assert after.parent_id is None  # stack was repaired, not poisoned

    def test_context_manager_records_error_type(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ValueError):
            with tracer.span("risky"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record.attrs["error"] == "ValueError"

    def test_bounded_buffer_drops_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "MAX_SPANS", 3)
        tracer = Tracer(clock=ManualClock())
        for i in range(5):
            tracer.end(tracer.begin(f"s{i}"))
        records = tracer.records()
        assert [r.name for r in records] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_exact_quantile_edge_cases(self):
        assert math.isnan(exact_quantile([], 99.0))
        # One sample: every percentile is that sample.
        assert exact_quantile([7.0], 0.0) == 7.0
        assert exact_quantile([7.0], 50.0) == 7.0
        assert exact_quantile([7.0], 100.0) == 7.0
        # All-equal samples.
        assert exact_quantile([3.0] * 10, 99.0) == 3.0
        # Nearest rank: p99 of 10 samples is the maximum, not interpolated.
        values = [float(i) for i in range(1, 11)]
        assert exact_quantile(values, 99.0) == 10.0
        assert exact_quantile(values, 50.0) == 5.0
        with pytest.raises(ValueError):
            exact_quantile(values, 101.0)

    def test_histogram_exact_then_bucketed(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0), max_samples=4)
        for v in (0.5, 2.0, 3.0, 50.0):
            h.observe(v)
        assert h.exact
        assert h.quantile(50.0) == 2.0
        assert h.quantile(99.0) == 50.0
        h.observe(60.0)  # past the retention cap
        assert not h.exact
        # Bucketed fallback: upper bound of the rank's bucket, clamped to
        # the observed max.
        assert h.quantile(99.0) == 60.0
        assert h.quantile(50.0) == 10.0
        snap = h.snapshot()
        assert snap["count"] == 5 and snap["exact"] is False

    def test_histogram_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        h = Histogram()
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        assert math.isnan(h.quantile(99.0))  # empty histogram

    def test_registry_labeled_series_and_kind_conflict(self):
        reg = MetricRegistry()
        ok = reg.counter("serve.status", status="ok")
        ok.inc(3)
        # Same labels, different kwarg order -> same series.
        assert reg.counter("serve.status", status="ok") is ok
        degraded = reg.counter("serve.status", status="degraded")
        assert degraded is not ok
        with pytest.raises(ValueError):
            reg.gauge("serve.status", status="ok")
        snap = reg.snapshot()
        assert snap["serve.status{status=ok}"]["value"] == 3

    def test_registry_merge_sums_and_clones(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(5)
        b.histogram("lat", bounds=(1.0, 2.0)).observe(1.5)
        a.merge(b)
        assert a.counter("n").value == 7
        # Missing series are cloned with their custom bounds intact.
        assert a.histogram("lat", bounds=(1.0, 2.0)).count == 1

    def test_counter_rejects_negative(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1)

    def test_gauge_envelope(self):
        reg = MetricRegistry()
        g = reg.gauge("loss")
        for v in (3.0, 1.0, 2.0):
            g.set(v)
        snap = g.snapshot()
        assert snap == {"value": 2.0, "min": 1.0, "max": 3.0, "count": 3}


# --------------------------------------------------------------------- #
# export / JSONL round-trip
# --------------------------------------------------------------------- #
class TestExport:
    def build_capture(self):
        clock = ManualClock()
        tel = Telemetry(clock=clock)
        with tel.span("root", phase="test"):
            clock.advance(1.0)
            with tel.span("child"):
                clock.advance(0.5)
        tel.counter("events", kind="a").inc(4)
        tel.histogram("lat").observe(0.5)
        return tel

    def test_jsonl_round_trip(self, tmp_path):
        tel = self.build_capture()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tel)
        capture = read_jsonl(path)
        assert capture.header["version"] == SCHEMA_VERSION
        assert [s.name for s in capture.spans] == ["child", "root"]
        child, root = capture.spans
        assert child.parent_id == root.span_id
        assert root.attrs == {"phase": "test"}
        assert root.duration == 1.5
        (counter, histogram) = capture.metrics
        assert counter["name"] == "events" and counter["value"] == 4
        assert histogram["kind"] == "histogram" and histogram["count"] == 1

    def test_export_is_deterministic_under_fixed_clock(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(p1, self.build_capture())
        write_jsonl(p2, self.build_capture())
        assert p1.read_bytes() == p2.read_bytes()

    def test_validate_accepts_own_export(self):
        assert validate_records(export_records(self.build_capture())) == []

    def test_validate_flags_violations(self):
        records = export_records(self.build_capture())
        assert validate_records(records[1:])  # missing header
        bad_version = [dict(records[0], version=99)] + records[1:]
        assert any("version" in e for e in validate_records(bad_version))
        # A span whose parent is absent (and no drops admitted).
        orphan = [r if r.get("record") != "span" or r["parent_id"] is None
                  else dict(r, parent_id=777) for r in records]
        assert any("parent" in e for e in validate_records(orphan))
        # Header span count mismatch.
        miscount = [dict(records[0], spans=42)] + records[1:]
        assert any("claims" in e for e in validate_records(miscount))

    def test_read_jsonl_raises_dataerror(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(DataError):
            read_jsonl(missing)
        garbage = tmp_path / "bad.jsonl"
        garbage.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_jsonl(garbage)

    def test_report_renders_tree_and_hotspots(self, tmp_path):
        tel = self.build_capture()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tel)
        text = render_trace_report(read_jsonl(path))
        assert "root" in text and "child" in text
        assert "hotspots" in text.lower()


# --------------------------------------------------------------------- #
# facade, null object, active slot, profiling hooks
# --------------------------------------------------------------------- #
class TestFacade:
    def test_null_telemetry_is_inert(self):
        null = NullTelemetry()
        assert not null.enabled
        span = null.begin("x", a=1)
        assert span.set(b=2) is span
        null.end(span)
        null.counter("c").inc()
        null.gauge("g").set(1.0)
        null.histogram("h").observe(1.0)
        assert null.export_records() == []

    def test_active_slot_default_and_restore(self):
        assert get_active() is NULL
        tel = Telemetry(clock=ManualClock())
        with activated(tel):
            assert get_active() is tel
            inner = Telemetry(clock=ManualClock())
            previous = activate(inner)
            assert previous is tel
            activate(previous)
        assert get_active() is NULL


# --------------------------------------------------------------------- #
# instrumented call sites: non-interference + coverage
# --------------------------------------------------------------------- #
class TestInstrumentation:
    def test_fit_bitwise_identical_with_telemetry_on_vs_off(self):
        store = small_store()
        dataset = make_movie_dataset(seed=1, num_users=30, num_items=40)

        def train(telemetry):
            model = TransE(store.num_entities, store.num_relations,
                           dim=4, seed=0)
            with activated(telemetry):
                history = model.fit(store, epochs=2, batch_size=16, seed=1)
            return history, model.entity_embeddings().copy()

        def train_table3(cls, telemetry):
            with activated(telemetry):
                model = cls(epochs=2, seed=0).fit(dataset)
            return model.loss_history, [p.data.tobytes() for p in model.parameters()]

        hist_off, emb_off = train(None)
        tel = Telemetry(clock=ManualClock())
        hist_on, emb_on = train(tel)
        assert hist_on == hist_off
        np.testing.assert_array_equal(emb_on, emb_off)
        # And the capture actually saw the run, nested correctly.
        names = [r.name for r in tel.tracer.records()]
        assert "fit" in names and "fit/epoch" in names
        assert "kg/corrupt_batch" in names and "optim/step" in names
        by_id = {r.span_id: r for r in tel.tracer.records()}
        batch = next(r for r in tel.tracer.records() if r.name == "fit/batch")
        assert by_id[batch.parent_id].name == "fit/epoch"
        # The Table-3 models train through the same loop: same guarantee.
        for cls in (KGCN, KPRN):
            tel = Telemetry(clock=ManualClock())
            assert train_table3(cls, tel) == train_table3(cls, None)
            fits = [r for r in tel.tracer.records() if r.name == "fit"]
            assert [r.attrs["model"] for r in fits] == [cls.__name__]
            assert tel.metrics.counter("fit.epochs").value == 2

    def test_fit_records_nothing_when_disabled(self):
        store = small_store()
        tel = Telemetry(clock=ManualClock())
        model = TransE(store.num_entities, store.num_relations, dim=4, seed=0)
        model.fit(store, epochs=1, batch_size=16, seed=1)  # no telemetry
        assert tel.tracer.records() == []
        assert len(tel.metrics) == 0
        assert get_active() is NULL  # fit restored the slot

    def test_fit_falls_back_to_active_telemetry(self):
        store = small_store()
        tel = Telemetry(clock=ManualClock())
        with activated(tel):
            model = TransE(store.num_entities, store.num_relations,
                           dim=4, seed=0)
            model.fit(store, epochs=1, batch_size=16, seed=1)
        assert any(r.name == "fit" for r in tel.tracer.records())

    def test_sampling_rng_stream_unchanged_by_telemetry(self):
        store = small_store()
        idx = np.arange(store.num_triples)
        plain = corrupt_batch(store, idx, seed=7)
        tel = Telemetry(clock=ManualClock())
        with activated(tel):
            traced = corrupt_batch(store, idx, seed=7)
        for a, b in zip(plain, traced):
            np.testing.assert_array_equal(a, b)
        assert tel.metrics.counter("kg.corrupted_triples").value == idx.size
        (span,) = [r for r in tel.tracer.records()
                   if r.name == "kg/corrupt_batch"]
        assert span.attrs["batch"] == idx.size

    def test_neighbor_cache_sample_traced(self):
        store = small_store()
        kg = KnowledgeGraph(store)
        cache = NeighborCache(kg)
        entities = np.array([0, 1, 2, 3])
        plain = cache.sample(entities, num_samples=3, seed=5)
        tel = Telemetry(clock=ManualClock())
        with activated(tel):
            traced = cache.sample(entities, num_samples=3, seed=5)
        for a, b in zip(plain, traced):
            np.testing.assert_array_equal(a, b)
        assert tel.metrics.counter("kg.neighbor_samples").value == 12


# --------------------------------------------------------------------- #
# ServiceMetrics on the shared registry
# --------------------------------------------------------------------- #
class TestServiceMetricsShim:
    def test_count_reads_without_creating_series(self):
        m = ServiceMetrics()
        m.incr("requests")
        m.incr("requests", 2)
        assert m.count("requests") == 3
        series = len(m.registry)
        # A name never written reads as 0 and creates no series.
        assert m.count("never_written") == 0
        assert len(m.registry) == series
        assert "never_written" not in m.snapshot()

    def test_small_sample_p99_is_observed_value(self):
        m = ServiceMetrics()
        latencies = [0.001 * (i + 1) for i in range(10)]
        for v in latencies:
            m.observe_latency(v)
        # Nearest rank: p99 of 10 observations is the max observation —
        # the old np.percentile path interpolated between the top two.
        assert m.latency_percentile(99.0) == max(latencies)
        assert m.latency_percentile(50.0) in latencies
        snap = m.snapshot()
        assert snap["latency_p99"] == max(latencies)
        assert snap["latency_observations"] == 10

    def test_shares_registry_when_given_one(self):
        reg = MetricRegistry()
        m = ServiceMetrics(registry=reg)
        m.incr("requests")
        assert reg.counter("serve.requests").value == 1

    def test_promotions_and_rollbacks_count_once_with_telemetry(self):
        from repro.models.baselines import MostPopular
        from repro.serving import RecommenderService

        dataset = make_movie_dataset(seed=0)

        def promote_swap_rollback(telemetry):
            service = RecommenderService(
                dataset, ("a", MostPopular().fit(dataset)),
                clock=ManualClock(), telemetry=telemetry,
            )
            service.promote("b", MostPopular().fit(dataset))
            service.rollback()
            return service.metrics

        on = promote_swap_rollback(Telemetry(clock=ManualClock()))
        off = promote_swap_rollback(None)
        for metrics in (on, off):
            assert metrics.count("promotions") == 2
            assert metrics.count("rollbacks") == 1


# --------------------------------------------------------------------- #
# panel + service integration
# --------------------------------------------------------------------- #
class TestPanelAndServiceIntegration:
    def test_run_panel_joins_failures_to_spans(self):
        from repro.experiments.harness import run_panel
        from repro.models.baselines import MostPopular

        def broken():
            raise RuntimeError("factory exploded")

        dataset = make_movie_dataset(seed=0)
        tel = Telemetry(clock=ManualClock())
        with activated(tel):
            result = run_panel(
                dataset, {"Good": MostPopular, "Broken": broken}, seed=0
            )
        assert len(result) == 1 and len(result.failures) == 1
        (failure,) = result.failures
        spans = {r.span_id: r for r in tel.tracer.records()}
        assert failure.span_id in spans
        span = spans[failure.span_id]
        assert span.name == "panel/model"
        assert span.attrs["outcome"] == "failed"
        assert span.attrs["error_type"] == "RuntimeError"
        ok = next(r for r in tel.tracer.records()
                  if r.name == "panel/model" and r.attrs["outcome"] == "ok")
        assert ok.attrs["model"] == "Good"
        assert tel.metrics.counter("panel.models_ok").value == 1
        assert tel.metrics.counter("panel.models_failed").value == 1
        assert get_active() is NULL

    def test_run_panel_records_fit_spans_for_a_gradient_model(self):
        from repro.experiments.harness import run_panel

        dataset = make_movie_dataset(seed=0, num_users=30, num_items=40)
        tel = Telemetry(clock=ManualClock())
        with activated(tel):
            result = run_panel(
                dataset, {"KGCN": lambda: KGCN(epochs=2, seed=0)}, seed=0
            )
        assert result.ok
        records = tel.tracer.records()
        by_id = {r.span_id: r for r in records}
        fit = next(r for r in records if r.name == "fit")
        assert by_id[fit.parent_id].name == "panel/model"
        assert fit.attrs["model"] == "KGCN" and fit.attrs["epochs"] == 2
        epochs = [r for r in records if r.name == "fit/epoch"]
        assert [by_id[r.parent_id].name for r in epochs] == ["fit", "fit"]
        batches = [r for r in records if r.name == "fit/batch"]
        assert batches and all(by_id[r.parent_id].name == "fit/epoch" for r in batches)
        assert tel.metrics.counter("fit.batches").value == len(batches)

    def test_serve_demo_trace_reconciles_and_is_deterministic(self, tmp_path):
        from repro.serving.demo import (
            build_demo_service,
            reconcile_trace_outcomes,
            run_replay,
        )

        def capture(seed):
            service, clock, __ = build_demo_service(seed, 60, trace=True)
            run_replay(service, clock, seed, 60)
            return service

        service = capture(seed=0)
        outcomes = reconcile_trace_outcomes(service)
        assert sum(outcomes.values()) == 60
        # Byte-identical export across two runs of the same seed.
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(p1, service.telemetry)
        write_jsonl(p2, capture(seed=0).telemetry)
        assert p1.read_bytes() == p2.read_bytes()
        assert validate_records(export_records(service.telemetry)) == []

    def test_service_without_telemetry_records_nothing(self):
        from repro.serving.demo import build_demo_service, run_replay

        service, clock, __ = build_demo_service(0, 20, trace=False)
        traces = run_replay(service, clock, 0, 20)
        assert len(traces) == 20
        assert service.telemetry is NULL
        assert service.metrics.count("requests") == 20
