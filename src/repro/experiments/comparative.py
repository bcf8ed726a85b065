"""Comparative studies validating the survey's qualitative claims.

The survey reports no unified benchmark numbers of its own; its evaluative
content is a set of claims about how the method families behave.  Each
study here operationalizes one claim on the synthetic scenarios and returns
rows: E1-E8 for the method families, E9-E11 for the Section 6 extensions,
the DKN channel ablation, the training-cost scaling study, the Table 4
stand-ins and the all-scenario quality panel.  Their pass criteria are the
checks in :mod:`repro.experiments.claims` (claims C1-C6 in DESIGN.md), and
``python -m repro study NAME`` / ``python -m repro claims`` run them
through that table.

Each study's defaults are the arguments its claim's bounds were set at,
so the table calls every study with its seed alone.  Two defaults changed
to get there: ``study_hop_depth`` runs hops (1, 2), not (1, 2, 3), and
``study_multitask`` weights (0, 0.5, 1), not (0, 0.25, 0.5, 1).  The
workloads are small so the whole table stays fast.  E1-E8 expose their
knobs for larger runs; the rest take the seed alone, their sizes fixed
where the bounds were set.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.splitter import random_split
from repro.data import SCENARIO_SCHEMAS, make_movie_dataset, make_news_dataset
from repro.data.synthetic import generate_dataset
from repro.eval.coldstart import cold_start_study, sparsity_sweep
from repro.eval.evaluator import Evaluator
from repro.eval.explain import explanation_fidelity
from repro.extensions import (
    PPGN,
    RecencyKNN,
    attach_user_attributes,
    make_cross_domain_pair,
    make_dynamic_dataset,
    temporal_split,
)
from repro.kg.builders import ensure_user_item_graph
from repro.kg.completion import evaluate_link_prediction
from repro.kge import KGE_MODELS
from repro.models.baselines import BPRMF, ItemKNN, MostPopular
from repro.models.embedding_based import CFKG, CKE, DKN, MKR, KTUP, RCF
from repro.models.path_based import KPRN, PGPR, HeteMF, HeteRec, RKGE
from repro.models.unified import KGAT, KGCN, AKUPM, IntentGC, RippleNet

from .harness import run_panel

__all__ = [
    "study_embedding_methods",
    "study_kg_signal_sweep",
    "study_path_methods",
    "study_unified_methods",
    "study_cold_start",
    "study_kge_link_prediction",
    "study_aggregators",
    "study_explainability",
    "study_multitask",
    "study_cross_domain",
    "study_user_side",
    "study_dynamic",
    "study_dkn_channels",
    "study_scaling",
    "study_table4_standins",
    "study_scenario_quality",
    "DEFAULT_DATA_KWARGS",
]

#: Shared small-but-meaningful dataset size for the studies.  The mean
#: interaction count keeps density under ~9%, the sparse regime where the
#: survey situates KG-based recommendation (public datasets are sparser
#: still: MovieLens-1M is ~4%).
DEFAULT_DATA_KWARGS = dict(num_users=80, num_items=120, mean_interactions=10.0)


def _movie(seed: int = 0, **overrides):
    kwargs = {**DEFAULT_DATA_KWARGS, **overrides}
    return make_movie_dataset(seed=seed, **kwargs)


# ---------------------------------------------------------------------- #
# E1 — embedding-based methods vs pure CF
# ---------------------------------------------------------------------- #
def study_embedding_methods(
    seed: int = 0,
    epochs: int = 25,
    executor: str = "sequential",
    max_workers: int | None = None,
):
    """CF baselines vs embedding-based KG methods on the movie scenario."""
    dataset = _movie(seed=seed)
    factories = {
        "MostPopular": lambda: MostPopular(),
        "ItemKNN": lambda: ItemKNN(),
        "BPR-MF": lambda: BPRMF(epochs=epochs, seed=seed),
        "CKE": lambda: CKE(epochs=epochs, seed=seed),
        "CFKG": lambda: CFKG(epochs=epochs, seed=seed),
        "MKR": lambda: MKR(epochs=epochs, seed=seed),
        "KTUP": lambda: KTUP(epochs=epochs, seed=seed),
        "RCF": lambda: RCF(epochs=epochs, seed=seed),
    }
    return run_panel(
        dataset, factories, seed=seed, executor=executor, max_workers=max_workers
    )


# ---------------------------------------------------------------------- #
# E1b — KG signal sweep: the KG helps exactly when it is informative
# ---------------------------------------------------------------------- #
def study_kg_signal_sweep(
    seed: int = 0,
    signals: tuple[float, ...] = (1.0, 0.5, 0.0),
    epochs: int = 25,
    executor: str = "sequential",
    max_workers: int | None = None,
):
    """KG-aware vs CF as the published KG's fidelity degrades."""
    rows = []
    for signal in signals:
        dataset = _movie(seed=seed, kg_signal=signal)
        results = run_panel(
            dataset,
            {
                "BPR-MF": lambda: BPRMF(epochs=epochs, seed=seed),
                "KGCN": lambda: KGCN(epochs=epochs, seed=seed),
                "RCF": lambda: RCF(epochs=epochs, seed=seed),
            },
            seed=seed,
            executor=executor,
            max_workers=max_workers,
        )
        for r in results:
            rows.append(
                {"kg_signal": signal, "model": r.model, "AUC": r["AUC"],
                 "NDCG@10": r["NDCG@10"]}
            )
    return rows


# ---------------------------------------------------------------------- #
# E2 — path-based methods
# ---------------------------------------------------------------------- #
def study_path_methods(
    seed: int = 0,
    epochs: int = 8,
    executor: str = "sequential",
    max_workers: int | None = None,
):
    dataset = _movie(seed=seed)
    factories = {
        "MostPopular": lambda: MostPopular(),
        "BPR-MF": lambda: BPRMF(epochs=25, seed=seed),
        "Hete-MF": lambda: HeteMF(epochs=10, seed=seed),
        "HeteRec": lambda: HeteRec(seed=seed),
        "RKGE": lambda: RKGE(epochs=epochs, seed=seed),
        "KPRN": lambda: KPRN(epochs=epochs, seed=seed),
        "PGPR": lambda: PGPR(epochs=6, seed=seed),
    }
    return run_panel(
        dataset, factories, seed=seed, executor=executor, max_workers=max_workers
    )


def study_metapath_count(seed: int = 0, counts: tuple[int, ...] = (1, 2, 4)):
    """HeteRec as a function of the number of meta-paths L."""
    dataset = _movie(seed=seed)
    rows = []
    for count in counts:
        results = run_panel(
            dataset,
            {f"HeteRec(L={count})": lambda c=count: HeteRec(num_metapaths=c, seed=seed)},
            seed=seed,
        )
        rows.append(
            {"num_metapaths": count, "AUC": results[0]["AUC"],
             "NDCG@10": results[0]["NDCG@10"]}
        )
    return rows


# ---------------------------------------------------------------------- #
# E3 — unified methods and the hop-depth ablation
# ---------------------------------------------------------------------- #
def study_unified_methods(
    seed: int = 0,
    epochs: int = 20,
    executor: str = "sequential",
    max_workers: int | None = None,
):
    dataset = _movie(seed=seed)
    factories = {
        "BPR-MF": lambda: BPRMF(epochs=25, seed=seed),
        "CKE (best Emb.)": lambda: CKE(epochs=25, seed=seed),
        "HeteRec (best Path)": lambda: HeteRec(seed=seed),
        "RippleNet": lambda: RippleNet(epochs=epochs, num_negatives=2, seed=seed),
        "KGCN": lambda: KGCN(epochs=epochs, num_negatives=2, seed=seed),
        "KGAT": lambda: KGAT(epochs=10, seed=seed),
        "AKUPM": lambda: AKUPM(epochs=epochs, seed=seed),
    }
    return run_panel(
        dataset, factories, seed=seed, executor=executor, max_workers=max_workers
    )


def study_hop_depth(
    seed: int = 0,
    hops: tuple[int, ...] = (1, 2),
    executor: str = "sequential",
    max_workers: int | None = None,
):
    """RippleNet/KGCN ripple-hop sweep (propagation depth ablation)."""
    dataset = _movie(seed=seed)
    rows = []
    for h in hops:
        results = run_panel(
            dataset,
            {
                f"RippleNet(H={h})": lambda hh=h: RippleNet(
                    hops=hh, epochs=15, num_negatives=2, seed=seed
                ),
                f"KGCN(H={h})": lambda hh=h: KGCN(
                    hops=hh, num_neighbors=8, epochs=20, num_negatives=2, seed=seed
                ),
            },
            seed=seed,
            executor=executor,
            max_workers=max_workers,
        )
        for r in results:
            rows.append({"hops": h, "model": r.model, "AUC": r["AUC"]})
    return rows


# ---------------------------------------------------------------------- #
# E4 — sparsity and cold start
# ---------------------------------------------------------------------- #
def study_cold_start(seed: int = 0):
    """Cold-item AUC: KG methods vs CF (the survey's core motivation)."""
    dataset = _movie(seed=seed)
    factories = {
        "BPR-MF": lambda: BPRMF(epochs=25, seed=seed),
        "ItemKNN": lambda: ItemKNN(),
        "CKE": lambda: CKE(epochs=25, seed=seed),
        "KGCN": lambda: KGCN(epochs=25, num_negatives=2, seed=seed),
        "CFKG": lambda: CFKG(epochs=25, seed=seed),
    }
    return cold_start_study(dataset, factories, seed=seed)


def study_sparsity(seed: int = 0, levels: tuple[float, ...] = (25.0, 12.0, 6.0)):
    """AUC as mean interactions per user shrinks."""
    factories = {
        "BPR-MF": lambda: BPRMF(epochs=25, seed=seed),
        "KGCN": lambda: KGCN(epochs=25, num_negatives=2, seed=seed),
    }
    size_kwargs = {
        k: v for k, v in DEFAULT_DATA_KWARGS.items() if k != "mean_interactions"
    }
    return sparsity_sweep(
        make_movie_dataset,
        factories,
        mean_interactions=levels,
        seed=seed,
        **size_kwargs,
    )


# ---------------------------------------------------------------------- #
# E5 — KGE model comparison (link prediction)
# ---------------------------------------------------------------------- #
def study_kge_link_prediction(
    seed: int = 0, epochs: int = 25, dim: int = 16, holdout: float = 0.15
):
    """Translation-distance vs semantic-matching KGE on the movie KG."""
    dataset = _movie(seed=seed)
    kg = dataset.kg
    rng = np.random.default_rng(seed)
    triples = kg.triples()
    order = rng.permutation(triples.shape[0])
    n_test = max(10, int(holdout * triples.shape[0]))
    test = triples[order[:n_test]]
    train = triples[order[n_test:]]
    from repro.kg.triples import TripleStore

    train_store = TripleStore.from_triples(train, kg.num_entities, kg.num_relations)
    rows = []
    for name, cls in KGE_MODELS.items():
        model = cls(kg.num_entities, kg.num_relations, dim=dim, seed=seed)
        model.fit(train_store, epochs=epochs, seed=seed)
        result = evaluate_link_prediction(
            model.score_triples, test, kg.store, kg.num_entities
        )
        rows.append({"model": name, **result.as_dict()})
    return rows


def study_kge_downstream(
    seed: int = 0,
    kge_models: tuple[str, ...] = ("TransE", "TransR", "DistMult"),
    epochs: int = 25,
    executor: str = "sequential",
    max_workers: int | None = None,
):
    """Downstream effect of the KGE choice: CKE and CFKG per KGE model.

    The survey's Future Directions asks under which circumstances each KGE
    family should be adopted; this measures the recommendation-side answer.
    """
    dataset = _movie(seed=seed)
    factories = {}
    for name in kge_models:
        factories[f"CKE[{name}]"] = lambda n=name: CKE(kge=n, epochs=epochs, seed=seed)
        factories[f"CFKG[{name}]"] = lambda n=name: CFKG(kge=n, epochs=epochs, seed=seed)
    return run_panel(
        dataset, factories, seed=seed, executor=executor, max_workers=max_workers
    )


# ---------------------------------------------------------------------- #
# E6 — aggregator ablation (Eq. 30-33)
# ---------------------------------------------------------------------- #
def study_aggregators(
    seed: int = 0,
    epochs: int = 20,
    executor: str = "sequential",
    max_workers: int | None = None,
):
    dataset = _movie(seed=seed)
    factories = {
        f"KGCN[{agg}]": (
            lambda a=agg: KGCN(aggregator=a, epochs=epochs, num_negatives=2, seed=seed)
        )
        for agg in ("sum", "concat", "neighbor", "bi-interaction")
    }
    return run_panel(
        dataset, factories, seed=seed, executor=executor, max_workers=max_workers
    )


# ---------------------------------------------------------------------- #
# E7 — explanation validity
# ---------------------------------------------------------------------- #
def study_explainability(seed: int = 0):
    """Path validity/coverage for the explanation-capable models."""
    dataset = _movie(seed=seed)
    train, __ = random_split(dataset, seed=seed)
    rows = []
    for name, factory in {
        "CFKG": lambda: CFKG(epochs=20, seed=seed),
        "RKGE": lambda: RKGE(epochs=5, seed=seed),
        "KPRN": lambda: KPRN(epochs=5, seed=seed),
        "PGPR": lambda: PGPR(epochs=5, seed=seed),
        "KGAT": lambda: KGAT(epochs=8, seed=seed),
    }.items():
        model = factory().fit(train)
        fidelity = explanation_fidelity(model, users=list(range(15)), k=5)
        rows.append({"model": name, **fidelity})
    return rows


# ---------------------------------------------------------------------- #
# E8 — multi-task weight sweep
# ---------------------------------------------------------------------- #
def study_multitask(
    seed: int = 0,
    weights: tuple[float, ...] = (0.0, 0.5, 1.0),
    epochs: int = 25,
    num_seeds: int = 3,
    executor: str = "sequential",
    max_workers: int | None = None,
):
    """KTUP/MKR joint-training weight lambda (Eq. 9) sweep.

    Single-seed gains are noisy at this scale, so each (model, lambda) cell
    is the mean AUC over ``num_seeds`` dataset/training seeds.
    """
    rows = []
    for lam in weights:
        sums: dict[str, float] = {"KTUP": 0.0, "MKR": 0.0}
        for offset in range(num_seeds):
            s = seed + offset
            dataset = _movie(seed=s)
            results = run_panel(
                dataset,
                {
                    "KTUP": lambda w=lam, ss=s: KTUP(kg_weight=w, epochs=epochs, seed=ss),
                    "MKR": lambda w=lam, ss=s: MKR(kg_weight=w, epochs=epochs, seed=ss),
                },
                seed=s,
                executor=executor,
                max_workers=max_workers,
            )
            for r in results:
                sums[r.model] += r["AUC"]
        for model, total in sums.items():
            rows.append(
                {"lambda": lam, "model": f"{model}(l={lam})", "AUC": total / num_seeds}
            )
    return rows


# ---------------------------------------------------------------------- #
# E9-E11 (the Section 6 future directions) and the DKN channel ablation
# ---------------------------------------------------------------------- #
def _evaluated_rows(train, test, seed, fits, key="model"):
    """AUC/NDCG@10 rows for ``(name, fit)`` pairs; ``fit()`` trains a model."""
    evaluator = Evaluator(train, test, seed=seed, max_users=40)
    rows = []
    for name, fit in fits:
        result = evaluator.evaluate(fit(), name=name)
        rows.append({key: name, "AUC": result["AUC"], "NDCG@10": result["NDCG@10"]})
    return rows


def study_cross_domain(seed: int = 0):
    """E9: PPGN transfer from a dense movie domain into sparse books."""
    source, target = make_cross_domain_pair(
        num_users=60, source_interactions=22.0, target_interactions=4.0, seed=seed
    )
    train, test = random_split(target, seed=seed)
    return _evaluated_rows(train, test, seed, (
        ("BPR-MF (target only)", lambda: BPRMF(epochs=25, seed=seed).fit(train)),
        ("PPGN (source + target)", lambda: PPGN(source, epochs=20, seed=seed).fit(train)),
    ))


def study_user_side(seed: int = 0):
    """E10: KGAT with taste-correlated demographics vs the plain graph."""
    data = make_movie_dataset(seed=seed, num_users=60, num_items=90, mean_interactions=8.0)
    train, test = random_split(data, seed=seed)
    plain = ensure_user_item_graph(train)
    demo = attach_user_attributes(plain, num_attributes=6, seed=seed)
    return _evaluated_rows(train, test, seed, (
        (name, lambda g=graph: KGAT(epochs=10, pretrain_epochs=5, seed=seed).fit(g))
        for name, graph in (("KGAT (plain graph)", plain), ("KGAT (+demographics)", demo))
    ))


def study_dkn_channels(seed: int = 0):
    """DKN with the word channel, the entity channel, and both (news)."""
    data = make_news_dataset(seed=seed, num_users=60, num_items=90, mean_interactions=7.0)
    train, test = random_split(data, seed=seed)
    return _evaluated_rows(train, test, seed, (
        (name, lambda kw=kwargs: DKN(epochs=10, seed=seed, **kw).fit(train))
        for name, kwargs in (("word only", dict(use_entity_channel=False)),
                             ("entities only", dict(use_word_channel=False)),
                             ("word + entities", {}))
    ), key="channels")


def study_dynamic(seed: int = 0):
    """E11: recency-decayed vs static profiles under drift; each row is the
    mean AUC over seeds ``seed``, ``seed + 1`` and ``seed + 2``."""
    rows = []
    for name, factory in (("ItemKNN (static)", ItemKNN),
                          ("RecencyKNN (decay=0.3)", lambda: RecencyKNN(decay=0.3))):
        aucs = []
        for s in range(seed, seed + 3):
            data = make_dynamic_dataset(
                num_periods=4, interactions_per_period=6, drift=1.0, seed=s
            )
            train, test = temporal_split(data)
            evaluator = Evaluator(train, test, seed=s, max_users=40)
            aucs.append(evaluator.evaluate(factory().fit(train))["AUC"])
        rows.append({"model": name, "AUC": float(np.mean(aucs))})
    return rows


# ---------------------------------------------------------------------- #
# training-cost scaling; Table 4's stand-ins and a panel on each scenario
# ---------------------------------------------------------------------- #
#: The two world sizes (users, items) of the scaling study, and its epochs.
SCALING_SIZES = ((40, 60), (80, 120))
SCALING_EPOCHS = 5
#: The world each Table 4 scenario's quality panel runs on.
SCENARIO_DATA = dict(num_users=50, num_items=80, mean_interactions=9.0)


def study_scaling(seed: int = 0):
    """Training cost per interaction-epoch at two world sizes.

    KGCN's sampled receptive field and IntentGC's vector-wise convolution
    are the survey's scalability arguments; RippleNet is the contrast.  A
    fit's time is the least of three identical fits, so one scheduler or
    GC pause on a shared host does not read as training cost.
    """
    rows = []
    for num_users, num_items in SCALING_SIZES:
        data = make_movie_dataset(
            seed=seed, num_users=num_users, num_items=num_items, mean_interactions=10.0
        )
        nnz = data.interactions.nnz
        for name, factory in (
            ("KGCN", lambda: KGCN(epochs=SCALING_EPOCHS, num_negatives=1, seed=seed)),
            ("RippleNet",
             lambda: RippleNet(epochs=SCALING_EPOCHS, ripple_size=16, seed=seed)),
            ("IntentGC", lambda: IntentGC(epochs=SCALING_EPOCHS, seed=seed)),
        ):
            elapsed = min(_fit_seconds(factory, data) for __ in range(3))
            rows.append({"model": name, "users": num_users, "items": num_items,
                         "interactions": nnz, "seconds": elapsed,
                         "us_per_interaction": 1e6 * elapsed / (SCALING_EPOCHS * nnz)})
    return rows


def _fit_seconds(factory, data) -> float:
    start = time.perf_counter()
    factory().fit(data)
    return time.perf_counter() - start


def study_table4_standins(seed: int = 0):
    """Generate every Table 4 scenario's synthetic stand-in; summarize each."""
    return [
        generate_dataset(schema, num_users=30, num_items=50, seed=seed).describe()
        for __, schema in sorted(SCENARIO_SCHEMAS.items())
    ]


def study_scenario_quality(seed: int = 0):
    """BPR-MF vs KGCN AUC on all seven scenarios; a failed fit reads NaN."""
    rows = []
    for name, schema in sorted(SCENARIO_SCHEMAS.items()):
        data = generate_dataset(schema, seed=seed, **SCENARIO_DATA)
        panel = run_panel(data, {
            "BPR-MF": lambda: BPRMF(epochs=20, seed=seed),
            "KGCN": lambda: KGCN(epochs=20, num_negatives=2, seed=seed),
        }, max_users=30, seed=seed)
        auc = {r.model: r["AUC"] for r in panel}
        bpr, kgcn = auc.get("BPR-MF", float("nan")), auc.get("KGCN", float("nan"))
        rows.append({"scenario": name, "BPR-MF": bpr, "KGCN": kgcn,
                     "delta": kgcn - bpr, "failures": len(panel.failures)})
    return rows
