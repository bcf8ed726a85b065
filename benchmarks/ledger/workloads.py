"""The ledger's four workloads, built only on the program's public API.

Each workload owns three things:

* **inputs**, generated in ``__init__`` from the seed and nothing else;
* **setup** (``setup``/``teardown``), the program state a user builds
  before the first operation — timed separately as ``setup_s``;
* **passes** (``run_pass``): one fixed unit of work made of *operations*
  (a request, a panel, a stream batch), each timed on its own.
  Every pass of a run replays the same inputs, so every pass must
  produce the same digest.

``check`` inspects the outputs kept from the first pass against an
oracle and returns ``(quality, problems)``; ``instrument`` patches the
layers a traced pass times, and ``layer_metrics`` turns the spans of the
traced passes into the per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .trace import Tracer, self_times

__all__ = ["PassResult", "make_workload"]

perf = time.perf_counter


@dataclass
class PassResult:
    """One pass: when each timed part started and how long it took.

    ``parts_per_op`` consecutive parts make one operation (a panel is five
    entries); the host-speed probe may run between parts.
    """

    starts: list[float]
    latencies: list[float]
    failed: int
    digest: str
    #: Outputs for ``check`` (kept on the first pass only).
    outputs: object = None
    #: Workload-specific numbers that need no tracing (e.g. served lag).
    extra: dict = field(default_factory=dict)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
class ServeWorkload:
    """A closed loop of persona requests through ``RecommenderService.serve``.

    One caller thread issues the next request when the previous one
    returns: ``serve`` is a synchronous in-process call, so this is how a
    caller uses it.  The service runs on the wall clock with no deadline
    and an admission queue too large to shed, so every non-``ok``
    outcome is a real fault rather than timing jitter.
    """

    fresh_per_pass = False
    parts_per_op = 1
    num_users = 2048
    dim = 32
    num_centers = 256
    k_candidates = 128

    def __init__(self, seed: int, num_items: int, ivf: bool, requests: int, warmup: int):
        from repro.serving.service import ServeRequest
        from repro.traffic import PersonaPopulation, ScheduleProfile, TrafficSchedule

        self.seed, self.num_items, self.ivf = seed, num_items, ivf
        # The catalog generator of repro.traffic.build_two_stage_service.
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((self.num_centers, self.dim))
        items = centers[rng.integers(self.num_centers, size=num_items)]
        self.items = items + 0.25 * rng.standard_normal((num_items, self.dim))
        users = centers[rng.integers(self.num_centers, size=self.num_users)]
        self.users = users + 0.25 * rng.standard_normal((self.num_users, self.dim))
        self.hist_users = np.repeat(np.arange(self.num_users), 3).astype(np.int64)
        self.hist_items = rng.integers(num_items, size=self.hist_users.size).astype(np.int64)

        # Request contents (user, k, exclude_seen) of a movie-persona
        # schedule; arrival times are dropped because the loop is closed.
        population = PersonaPopulation.from_scenario(
            "movie", self.num_users, seed=seed, num_members=256
        )
        schedule = TrafficSchedule(population, ScheduleProfile(horizon=4.0), seed=seed)
        contents = list(schedule)
        while len(contents) < requests + warmup:
            schedule = schedule.continuation()
            contents.extend(schedule)
        self.requests = [
            ServeRequest(user_id=r.user_id, k=r.k, exclude_seen=r.exclude_seen)
            for r in contents[: requests + warmup]
        ]
        self.warmup = self.requests[requests:]
        self.requests = self.requests[:requests]

    # ------------------------------------------------------------------ #
    def setup(self):
        from repro.core.dataset import Dataset
        from repro.core.interactions import InteractionMatrix
        from repro.retrieval import IvfIndex
        from repro.retrieval.two_stage import ArrayEmbeddingRecommender, TwoStageRecommender
        from repro.serving.admission import AdmissionQueue
        from repro.serving.service import RecommenderService

        dataset = Dataset(
            name=f"ledger-catalog-s{self.seed}",
            interactions=InteractionMatrix(
                self.hist_users, self.hist_items, self.num_users, self.num_items
            ),
        )
        base = ArrayEmbeddingRecommender(self.users, self.items).fit(dataset)
        if self.ivf:
            two = TwoStageRecommender(
                base, IvfIndex(seed=self.seed), k_candidates=self.k_candidates
            ).fit(dataset)
            primary, fallbacks = ("two_stage", two), [("exact", base)]
        else:
            primary, fallbacks = ("exact", base), []
        service = RecommenderService(
            dataset,
            primary=primary,
            fallbacks=fallbacks,
            default_deadline=None,
            # Far above any run's request count: the queue never sheds.
            admission=AdmissionQueue(capacity=10**9, drain_rate=4000.0, clock=perf),
            clock=perf,
        )
        for request in self.warmup:
            service.serve(request)
        return service

    def teardown(self, service) -> None:
        pass

    def run_pass(self, service, tracer: Tracer | None, keep: bool, tick) -> PassResult:
        serve = service.serve
        starts, latencies, responses = [], [], []
        for request in self.requests:
            t0 = perf()
            response = serve(request)
            latencies.append(perf() - t0)
            starts.append(t0)
            responses.append(response)
            tick()
        return PassResult(
            starts=starts,
            latencies=latencies,
            failed=sum(r.status != "ok" for r in responses),
            digest=_sha(r.items for r in responses),
            outputs=responses if keep else None,
        )

    # ------------------------------------------------------------------ #
    def _truth(self, user: int, exclude_seen: bool, k: int) -> tuple[np.ndarray, np.ndarray]:
        scores = self.items @ self.users[user]
        if exclude_seen:
            scores[self.hist_items[self.hist_users == user]] = -np.inf
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top], kind="stable")]
        return top, scores

    def check(self, responses) -> tuple[float, list[str]]:
        problems: list[str] = []
        recalls = []
        cache: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}
        max_k = max(r.k for r in self.requests)
        for request, response in zip(self.requests, responses):
            if response.status != "ok":
                problems.append(f"request {response.request_id}: status {response.status}")
                continue
            key = (int(request.user_id), bool(request.exclude_seen))
            if key not in cache:
                cache[key] = self._truth(*key, max_k)
            order, exact = cache[key]
            truth = order[: request.k]
            items = np.asarray(response.items, dtype=np.int64)
            scores = np.asarray(response.scores)
            if items.size != request.k or np.unique(items).size != items.size:
                problems.append(f"request {response.request_id}: not {request.k} distinct items")
                continue
            if items.min() < 0 or items.max() >= self.num_items:
                problems.append(f"request {response.request_id}: item outside the catalog")
                continue
            if np.any(np.diff(scores) > 0) or not np.allclose(scores, exact[items], rtol=1e-9, atol=1e-9):
                problems.append(f"request {response.request_id}: scores unsorted or not exact")
                continue
            if not self.ivf and not np.array_equal(items, truth):
                problems.append(f"request {response.request_id}: differs from the brute-force top-k")
            recalls.append(np.intersect1d(items, truth).size / truth.size)
        recall = float(np.mean(recalls)) if recalls else 0.0
        if self.ivf and recall < 0.9:
            problems.append(f"recall@k {recall:.4f} below 0.9")
        return recall, problems[:20]

    # ------------------------------------------------------------------ #
    def instrument(self, tracer: Tracer) -> None:
        from repro.retrieval import IvfIndex
        from repro.retrieval.two_stage import ArrayEmbeddingRecommender
        from repro.runtime.guards import validate_scores
        from repro.serving.admission import AdmissionQueue
        from repro.serving.breaker import CircuitBreaker
        from repro.serving.metrics import ServiceMetrics
        from repro.serving.service import RecommenderService, validate_request

        tracer.patch_method(RecommenderService, "serve", "serve")
        tracer.patch_function(validate_scores, "validate_scores")
        tracer.patch_function(validate_request, "validate_request")
        tracer.patch_method(ArrayEmbeddingRecommender, "score_items", "rerank")
        tracer.patch_method(AdmissionQueue, "admit", "admission")
        for attr in ("allow", "record_success", "record_failure"):
            tracer.patch_method(CircuitBreaker, attr, "breaker")
        for attr in ("incr", "observe_latency"):
            tracer.patch_method(ServiceMetrics, attr, "metrics")
        tracer.patch_method(IvfIndex, "search", "ivf_search")
        # Candidate count and quota, measured at the index boundary.
        search = IvfIndex.search
        counts = tracer.counts

        def counted_search(index, query, k):
            ids = search(index, query, k)
            counts["candidates"] += int(ids.size)
            counts["quota"] += int(k)
            return ids

        tracer.replace(IvfIndex, "search", counted_search)

    def layer_metrics(self, tracer: Tracer, plain: list[PassResult]) -> dict[str, float]:
        t = self_times(tracer.spans)
        requests = t["serve"][2]

        def us(name: str) -> float:
            return _per(t[name][0], requests) * 1e6

        candidates = tracer.counts.get("candidates", 0)
        return {
            "runtime.validate_scores.us_per_req": us("validate_scores"),
            "retrieval.rerank.us_per_req": us("rerank"),
            "retrieval.ivf_search.us_per_req": us("ivf_search"),
            "retrieval.candidates_per_req": _per(candidates, requests),
            "retrieval.candidate_yield": _per(tracer.counts.get("quota", 0), candidates),
            "serving.admission.us_per_req": us("admission"),
            "serving.validate_request.us_per_req": us("validate_request"),
            "serving.breaker.us_per_req": us("breaker"),
            "serving.metrics.us_per_req": us("metrics"),
            "serving.metrics.calls_per_req": _per(t["metrics"][2], requests),
            "serving.serve_self.us_per_req": us("serve"),
        }


# ---------------------------------------------------------------------- #
# training
# ---------------------------------------------------------------------- #
class TrainPanel:
    """``run_panel`` over one model per survey family (and two more).

    The operation is the whole panel.  Each entry runs as its own
    ``run_panel`` call on the same dataset and seed — the split is
    recomputed identically — so the benchmark can time every entry from
    outside and probe the host's speed between entries.
    """

    fresh_per_pass = False
    models = ("CKE", "KGCN", "KPRN", "MKR", "CFKG")

    def __init__(self, seed: int, num_users: int, num_items: int, models=None):
        import repro.models  # noqa: F401 - registers the model classes
        from repro.core.registry import get_model_class

        self.seed, self.num_users, self.num_items = seed, num_users, num_items
        self.models = tuple(models or self.models)
        self.parts_per_op = len(self.models)
        self.classes = {name: get_model_class(name) for name in self.models}

    def setup(self):
        from repro.data import make_movie_dataset

        return make_movie_dataset(
            seed=self.seed, num_users=self.num_users, num_items=self.num_items
        )

    def teardown(self, dataset) -> None:
        pass

    def run_pass(self, dataset, tracer: Tracer | None, keep: bool, tick) -> PassResult:
        from repro.experiments import run_panel

        starts, latencies, rows, failures = [], [], [], []
        for name, cls in self.classes.items():
            t0 = perf()
            with tracer.span("entry") if tracer else nullcontext():
                # Every user evaluated: AUC over 50 users varies too much by seed.
                panel = run_panel(dataset, {name: cls}, seed=self.seed, max_users=None)
            latencies.append(perf() - t0)
            starts.append(t0)
            rows.extend(panel)
            failures.extend(panel.failures)
            tick()
        digest = _sha(
            json.dumps([r.model, sorted(r.values.items())]) for r in rows
        )
        return PassResult(
            starts=starts,
            latencies=latencies,
            failed=int(bool(failures)),
            digest=digest,
            outputs=(rows, failures) if keep else None,
        )

    def check(self, outputs) -> tuple[float, list[str]]:
        rows, failures = outputs
        problems = [
            f"{f.model} failed in {f.phase}: {f.error_type}: {f.message}" for f in failures
        ]
        for r in rows:
            bad = [k for k, v in r.values.items() if not np.isfinite(v)]
            if bad:
                problems.append(f"{r.model}: non-finite {', '.join(bad)}")
        if len(rows) != len(self.models):
            problems.append(f"{len(rows)} rows for {len(self.models)} models")
        aucs = [r.values["AUC"] for r in rows if "AUC" in r.values]
        return (float(np.mean(aucs)) if aucs else 0.0), problems

    def instrument(self, tracer: Tracer) -> None:
        from repro.autograd.optim import Optimizer
        from repro.autograd.tensor import Tensor
        from repro.eval.evaluator import Evaluator
        from repro.kg.sampling import corrupt_batch

        for name, cls in self.classes.items():
            tracer.patch_method(cls, "fit", f"fit.{name}")
        tracer.patch_method(Tensor, "backward", "backward")
        tracer.patch_method(Optimizer, "step", "optimizer_step")
        tracer.patch_method(Evaluator, "evaluate", "evaluate")
        tracer.patch_function(corrupt_batch, "corrupt_batch")
        tracer.patch_method(Tensor, "__init__", "tensors", count_only=True)

    def layer_metrics(self, tracer: Tracer, plain: list[PassResult]) -> dict[str, float]:
        t = self_times(tracer.spans)
        # Per panel: one "entry" span per model per traced pass.
        panels = _per(t["entry"][2], len(self.models))

        def s(name: str, index: int = 0) -> float:
            return _per(t[name][index], panels)

        steps = t["optimizer_step"][2]
        out = {
            "autograd.backward.s": s("backward"),
            "autograd.optimizer_step.s": s("optimizer_step"),
            "kg.corrupt_batch.s": s("corrupt_batch"),
            "eval.evaluate.s": s("evaluate"),
            "train.forward_self.s": sum(s(f"fit.{m}") for m in self.models),
            "train.panel_self.s": s("entry"),
            "autograd.steps": _per(steps, panels),
            "autograd.tensors_per_step": _per(tracer.counts.get("tensors", 0), steps),
        }
        for m in TrainPanel.models:
            out[f"train.fit_s.{m}"] = s(f"fit.{m}", 1)
        return out


# ---------------------------------------------------------------------- #
# online loop
# ---------------------------------------------------------------------- #
class OnlineChurn:
    """The fault-free online loop: stream -> train -> commit -> promote.

    Writes beside reads: every ``commit_every`` batches the loop commits
    the store, opens a pinned serve view, builds an IVF index and
    promotes through the canary.  Each pass replays a fresh world (a new
    store directory), so passes are identical.
    """

    fresh_per_pass = True
    parts_per_op = 1

    def __init__(self, seed: int, workdir: Path, batches: int, stream: dict):
        from repro.online.harness import ChurnConfig
        from repro.online.stream import StreamConfig

        self.seed, self.workdir, self.batches = seed, Path(workdir), batches
        self.config = ChurnConfig(
            commit_every=8, model_dim=32, rows_per_shard=1024, k_candidates=128,
            stream=StreamConfig(**stream),
        )
        self._worlds = 0

    def setup(self):
        from repro.online.harness import build_world

        directory = self.workdir / f"world{self._worlds}"
        self._worlds += 1
        shutil.rmtree(directory, ignore_errors=True)
        return build_world(directory, self.seed, plan=None, config=self.config)

    def teardown(self, world) -> None:
        if world is not None:
            world.loop.close()
            shutil.rmtree(world.store_dir.parent, ignore_errors=True)

    def run_pass(self, world, tracer: Tracer | None, keep: bool, tick) -> PassResult:
        from repro.online.harness import freshness_report

        loop = world.loop
        latencies, starts, cycle_ends = [], [], []
        for __ in range(self.batches):
            cycles = len(loop.cycles)
            t0 = perf()
            with tracer.span("op") if tracer else nullcontext():
                loop.run(1)
            t1 = perf()
            latencies.append(t1 - t0)
            starts.append(t0)
            if len(loop.cycles) > cycles:
                if loop.cycles[-1].outcome == "promoted":
                    cycle_ends.append((len(starts), t1))
                # Only after a cycle, so no served-lag interval holds a probe.
                tick()

        # Served lag: from the start of a batch to the end of the first
        # promoted cycle whose commit contains it.
        lags, c = [], 0
        for i, t0 in enumerate(starts):
            while c < len(cycle_ends) and cycle_ends[c][0] <= i:
                c += 1
            if c < len(cycle_ends):
                lags.append(cycle_ends[c][1] - t0)

        quarantined = sum(b.status != "applied" for b in loop.batch_outcomes)
        unpromoted = sum(c.outcome != "promoted" for c in loop.cycles)
        live = loop.live_generation()
        served = _served_bytes(world)
        digest = _sha(
            [b.trace() for b in loop.batch_outcomes]
            + [c.trace() for c in loop.cycles]
            + list(loop.watch_traces)
            + [live, hashlib.sha256(served).hexdigest()]
        )
        outputs = None
        if keep:
            outputs = {
                "outcomes": sorted({c.outcome for c in loop.cycles}),
                "cycles": len(loop.cycles),
                "quarantined": quarantined,
                "live": live,
                "newest": max(loop.committed),
                "bitwise": live in loop.committed and served == loop.committed[live],
                "freshness": freshness_report(world),
                "recall": self._served_recall(world),
            }
        return PassResult(
            starts=starts,
            latencies=latencies,
            failed=quarantined + unpromoted,
            digest=digest,
            outputs=outputs,
            extra={"lags": lags, "promoted": len(cycle_ends)},
        )

    def _served_recall(self, world, users: int = 200, k: int = 10) -> float:
        """Recall@k of the live two-stage model against its own exact ranking.

        No floor is checked: online embeddings grow from a random init and
        are not clustered, so IVF at 128 candidates recalls ~0.63 here.
        """
        from repro.serving.service import ServeRequest

        exact_model = world.service.registry.live.base
        rng = np.random.default_rng(self.seed)
        recalls = []
        seen = world.stream.seen_users
        for user in rng.choice(seen, size=min(users, seen), replace=False):
            served = world.service.serve(ServeRequest(user_id=int(user), k=k, exclude_seen=False))
            scores = np.asarray(exact_model.score_all(int(user)))
            truth = np.argpartition(-scores, k - 1)[:k]
            recalls.append(np.intersect1d(served.items, truth).size / k)
        return float(np.mean(recalls))

    def check(self, out) -> tuple[float, list[str]]:
        problems = []
        if out["outcomes"] != ["promoted"]:
            problems.append(f"cycle outcomes {out['outcomes']}, expected only promoted")
        if out["cycles"] != self.batches // self.config.commit_every:
            problems.append(f"{out['cycles']} cycles for {self.batches} batches")
        if out["quarantined"]:
            problems.append(f"{out['quarantined']} batches quarantined")
        if not out["bitwise"]:
            problems.append(f"live generation {out['live']} is not bitwise a committed one")
        if out["live"] != out["newest"]:
            problems.append(f"serving generation {out['live']}, newest is {out['newest']}")
        fresh = out["freshness"]
        if not fresh["hit_rate_online"] > fresh["hit_rate_frozen"]:
            problems.append("online model is no fresher than the frozen bootstrap")
        return out["recall"], problems

    def instrument(self, tracer: Tracer) -> None:
        from repro.online.stream import InteractionStream
        from repro.online.trainer import ShadowTrainer
        from repro.retrieval import IvfIndex
        from repro.serving.service import RecommenderService
        from repro.store.mmap import MmapShardStore

        tracer.patch_method(InteractionStream, "next_batch", "stream")
        tracer.patch_method(ShadowTrainer, "apply", "apply")
        tracer.patch_method(MmapShardStore, "commit", "commit")
        tracer.patch_method(MmapShardStore, "open", "open")
        tracer.patch_method(IvfIndex, "build", "ivf_build")
        tracer.patch_method(RecommenderService, "promote", "promote")
        tracer.patch_method(RecommenderService, "serve", "serve")

    def layer_metrics(self, tracer: Tracer, plain: list[PassResult]) -> dict[str, float]:
        t = self_times(tracer.spans)
        lags = [lag for p in plain for lag in p.extra["lags"]]
        batches = t["op"][2]
        cycles = t["promote"][2]

        def per(name: str, count: int, scale: float) -> float:
            return _per(t[name][0], count) * scale

        return {
            "retrieval.ivf_build.ms_per_cycle": per("ivf_build", cycles, 1e3),
            "serving.promote.ms_per_cycle": per("promote", cycles, 1e3),
            "store.commit.ms_per_cycle": per("commit", cycles, 1e3),
            "store.open.ms_per_cycle": per("open", cycles, 1e3),
            "serving.serve.us_per_req": per("serve", t["serve"][2], 1e6),
            "online.apply.us_per_batch": per("apply", batches, 1e6),
            "online.stream.us_per_batch": per("stream", batches, 1e6),
            "online.loop_self.us_per_batch": per("op", batches, 1e6),
            "online.cycles_promoted": float(plain[0].extra["promoted"]),
            "online.served_lag_p50_ms": float(np.percentile(lags, 50)) * 1e3,
            "online.served_lag_p90_ms": float(np.percentile(lags, 90)) * 1e3,
            "online.freshness_hit_rate": float(plain[0].outputs["freshness"]["hit_rate_online"]),
        }


def _served_bytes(world) -> bytes:
    """The ``<f4`` bytes of the entity table the live model serves."""
    from repro.online.trainer import ENTITY_TABLE

    base = world.service.registry.live.base  # TwoStageRecommender -> store model
    table = base.store.table(ENTITY_TABLE)
    return np.ascontiguousarray(table.to_array(), dtype="<f4").tobytes()


# ---------------------------------------------------------------------- #
# sizes (names and reasons live in BENCHMARK.json)
# ---------------------------------------------------------------------- #
def make_workload(name: str, seed: int, workdir: Path, smoke: bool = False):
    """The workload ``name`` at full (benchmark) or smoke size."""
    if name == "serve-ivf-1e5":
        return ServeWorkload(
            seed, num_items=2_000 if smoke else 100_000, ivf=True,
            requests=500 if smoke else 1_000, warmup=50 if smoke else 500,
        )
    if name == "serve-exact-2e4":
        return ServeWorkload(
            seed, num_items=2_000 if smoke else 20_000, ivf=False,
            requests=500 if smoke else 1_000, warmup=50 if smoke else 500,
        )
    if name == "train-panel":
        if smoke:
            return TrainPanel(seed, num_users=40, num_items=60, models=("CFKG",))
        return TrainPanel(seed, num_users=150, num_items=200)
    if name == "online-churn":
        if smoke:
            stream = dict(num_users=256, num_items=2_000, warm_users=192,
                          warm_items=1_600, session_size=16)
            return OnlineChurn(seed, workdir, batches=40, stream=stream)
        stream = dict(num_users=2048, num_items=20_000, warm_users=1536,
                      warm_items=16_000, session_size=16)
        return OnlineChurn(seed, workdir, batches=160, stream=stream)
    raise KeyError(f"unknown workload {name!r}")
