"""Autograd hot-loop microbenchmarks: sparse embedding gradients vs dense.

Times the three layers the sparse-gradient training path (see
``docs/autograd.md``) accelerates, each against a faithful
reimplementation of the pre-sparse seed code path:

* **embedding backward** — building the gradient of an embedding lookup:
  row-sparse :class:`~repro.autograd.sparse.SparseGrad` construction +
  coalescing vs the seed's ``np.zeros_like`` + ``np.add.at`` dense scatter,
* **optimizer step** — lazy row-wise Adam vs the same Adam stepping the
  densified gradient (``densified`` in ``tests/autograd_reference.py``:
  the dense path pays densification + a full-table update),
* **end-to-end fit** — one TransE epoch over a fixed batch count while the
  entity-table size grows, with ``fit``'s Adam sparse or densified; with
  sparse updates the epoch time is sublinear in ``num_entities``,
* **LSTM step** — forward and backward through KPRN-shaped masked
  ``nn.LSTMCell`` steps: the fused one-node step vs the op-by-op
  composition it replaced (``tests/autograd_reference.py``),
* **training tape per step** — tensors made inside each ``train-panel``
  model's ``fit`` per optimizer step.  The ledger's
  ``autograd.tensors_per_step`` also counts the constants evaluation makes;
  this figure counts training alone.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_autograd.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_autograd.py --smoke    # CI smoke

The full run writes machine-readable results to ``--out`` (default
``benchmarks/BENCH_autograd.json``).  ``--smoke`` runs tiny sizes and
asserts the correctness/bitwise invariants instead of reporting timings —
the embedding-lookup gradient equals the ``np.add.at`` scatter, a table
looked up twice densifies to the two lookups' scatters summed in order,
lazy Adam's first step matches the densified step bitwise, a ``fit`` on
densified gradients reproduces the seed's ``np.add.at`` training path
bitwise and a sparse ``fit`` tracks it, ``coalesce_rows`` (unique-row and
table-sized paths) equals the per-column ``bincount`` loop, the fused LSTM
step and KGCN's fused attention pool equal their compositions in outputs
and every gradient, and MKR's rank-one cross & compress unit equals the
cross-matrix composition to rounding.  The dense and composed paths are
reached only through the oracles in ``tests/autograd_reference.py``.
See ``docs/performance.md`` for recorded numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.autograd import nn
from repro.autograd import tensor as tensor_mod
from repro.autograd.optim import Adam, Optimizer
from repro.autograd.sparse import SparseGrad, coalesce_rows
from repro.core.rng import ensure_rng
from repro.kge import TransE
from repro.kge import base as kge_base
from repro.kg.triples import TripleStore
from repro.models.embedding_based.mkr import CrossCompress
from repro.models.unified.kgcn import attention_pool

if __package__:  # imported as ``benchmarks.bench_autograd`` (pytest collection)
    from .bench_retrieval import host_facts
else:  # run as a script: this directory is on sys.path, the repository root not
    from bench_retrieval import host_facts

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.autograd_reference import (
    attention_pool_reference,
    coalesce_rows_reference,
    cross_compress_reference,
    dense_lookup_reference,
    densified,
    lstm_step_reference,
)

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_autograd.json"


# --------------------------------------------------------------------- #
# seed reference implementations (the pre-sparse code paths)
# --------------------------------------------------------------------- #
def seed_lookup_backward(weight: np.ndarray, rows: np.ndarray, upstream: np.ndarray):
    """The seed's embedding-lookup backward: full-table zeros + add.at."""
    grad = np.zeros_like(weight)
    np.add.at(grad, rows, upstream)
    return grad


def sparse_lookup_backward(shape, rows: np.ndarray, upstream: np.ndarray):
    """The sparse path: wrap the batch rows, coalesce duplicates."""
    return SparseGrad(shape, rows, upstream).coalesce()


def best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
def make_store(num_triples, num_entities, num_relations, seed=0):
    rng = ensure_rng(seed)
    triples = np.stack(
        [
            rng.integers(0, num_entities, size=num_triples),
            rng.integers(0, num_relations, size=num_triples),
            rng.integers(0, num_entities, size=num_triples),
        ],
        axis=1,
    )
    return TripleStore.from_triples(triples, num_entities, num_relations)


def bench_lookup_backward(num_entities, dim, batch, repeats, seed=0):
    rng = ensure_rng(seed)
    weight = rng.standard_normal((num_entities, dim))
    rows = rng.integers(0, num_entities, size=batch).astype(np.int64)
    upstream = rng.standard_normal((batch, dim))
    dense = best_time(lambda: seed_lookup_backward(weight, rows, upstream), repeats)
    sparse = best_time(
        lambda: sparse_lookup_backward(weight.shape, rows, upstream), repeats
    )
    return dense, sparse


def bench_adam_step(num_entities, dim, batch, repeats, seed=0):
    rng = ensure_rng(seed)
    rows = rng.integers(0, num_entities, size=batch).astype(np.int64)
    upstream = rng.standard_normal((batch, dim))

    def one_mode(dense):
        w = nn.Parameter(rng.standard_normal((num_entities, dim)))
        opt = (densified(Adam) if dense else Adam)([w], lr=0.01, weight_decay=1e-5)

        def step():
            w._grad = SparseGrad(w.shape, rows, upstream.copy())
            opt.step()

        return best_time(step, repeats)

    return one_mode(True), one_mode(False)


def fit_transe(model, store, dense, seed_lookups=False, **fit_kw):
    """``model.fit`` with its Adam densified when ``dense``; with
    ``seed_lookups`` every lookup's backward is a dense ``np.add.at``."""
    saved = kge_base.Adam, tensor_mod.Tensor.__getitem__
    kge_base.Adam = densified(Adam) if dense else Adam
    if seed_lookups:
        tensor_mod.Tensor.__getitem__ = dense_lookup_reference
    try:
        return model.fit(store, **fit_kw)
    finally:
        kge_base.Adam, tensor_mod.Tensor.__getitem__ = saved


def bench_fit_epoch(num_entities, dim, num_triples, batch, repeats, dense):
    store = make_store(num_triples, num_entities, num_relations=8, seed=0)
    best = float("inf")
    for _ in range(repeats):
        model = TransE(num_entities, 8, dim=dim, seed=0)  # init outside the clock
        t0 = time.perf_counter()
        fit_transe(model, store, dense, epochs=1, batch_size=batch, lr=0.01, seed=1)
        best = min(best, time.perf_counter() - t0)
    return best


def lstm_chain(step, cell, xs, masks):
    """KPRN's recurrence: masked steps from the zero state, loss on ``h``."""
    h, c = cell.initial_state(xs[0].shape[0])
    for x, mask in zip(xs, masks):
        h, c = step(cell, x, (h, c), mask)
    return h


def lstm_inputs(paths, in_dim, steps, seed=0):
    rng = ensure_rng(seed)
    lengths = rng.integers(2, steps + 1, size=paths)
    masks = [(t < lengths)[:, None].astype(np.float64) for t in range(steps)]
    xs = [
        tensor_mod.Tensor(rng.standard_normal((paths, in_dim)), requires_grad=True)
        for __ in range(steps)
    ]
    return xs, masks


def bench_lstm_step(paths, in_dim, hidden, steps, repeats):
    """Seconds per fwd+bwd of one step, and tape tensors per step."""
    xs, masks = lstm_inputs(paths, in_dim, steps)
    cell = nn.LSTMCell(in_dim, hidden, seed=0)
    out = {}
    for name, step in (("composed", lstm_step_reference), ("fused", nn.LSTMCell.__call__)):
        made = []
        original = tensor_mod.Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(None)
            original(self, *args, **kwargs)

        tensor_mod.Tensor.__init__ = counting
        try:
            lstm_chain(step, cell, xs, masks)
        finally:
            tensor_mod.Tensor.__init__ = original

        def once():
            cell.zero_grad()
            lstm_chain(step, cell, xs, masks).sum().backward()

        out[name] = (best_time(once, repeats) / steps, len(made) / steps)
    return out


#: The ledger's ``train-panel`` models and world.
PANEL_MODELS = ("CKE", "KGCN", "KPRN", "MKR", "CFKG")
PANEL_WORLD = {"seed": 0, "num_users": 150, "num_items": 200}


def train_tensors_per_step():
    """Tensors made inside each panel model's ``fit``, per optimizer step.

    Each model is built as ``run_panel`` builds it and fitted on the
    panel's training split; tensors and optimizer steps are counted only
    while ``fit`` runs, so evaluation's untaped constants are left out.
    """
    import repro.models  # noqa: F401 - registers the model classes
    from repro.core.registry import get_model_class
    from repro.core.splitter import random_split
    from repro.data import make_movie_dataset

    dataset = make_movie_dataset(**PANEL_WORLD)
    train, __ = random_split(dataset, test_fraction=0.2, seed=PANEL_WORLD["seed"])
    counts = {"tensors": 0, "steps": 0}
    original_init, original_step = tensor_mod.Tensor.__init__, Optimizer.step

    def counting_init(self, *args, **kwargs):
        counts["tensors"] += 1
        original_init(self, *args, **kwargs)

    def counting_step(self):
        counts["steps"] += 1
        return original_step(self)

    out = {}
    for name in PANEL_MODELS:
        model = get_model_class(name)()
        counts.update(tensors=0, steps=0)
        tensor_mod.Tensor.__init__, Optimizer.step = counting_init, counting_step
        try:
            model.fit(train)
        finally:
            tensor_mod.Tensor.__init__, Optimizer.step = original_init, original_step
        out[name] = {
            "tensors": counts["tensors"],
            "steps": counts["steps"],
            "tensors_per_step": counts["tensors"] / counts["steps"],
        }
    return out


# --------------------------------------------------------------------- #
def run(args):
    results = {
        "config": {
            "entities": args.entities,
            "dim": args.dim,
            "batch": args.batch,
            "triples": args.triples,
            "repeats": args.repeats,
        },
        "kernels": {},
        "fit_epoch_seconds": {},
        "host": host_facts(),
    }
    header = f"{'kernel':<24} {'dense s':>10} {'sparse s':>10} {'speedup':>8}"
    print(
        f"autograd microbenchmarks: {args.entities} entities, dim {args.dim}, "
        f"batch {args.batch} (best of {args.repeats})"
    )
    print(header)
    print("-" * len(header))

    def report(name, dense, sparse):
        print(f"{name:<24} {dense:>10.5f} {sparse:>10.5f} {dense / sparse:>7.1f}x")
        results["kernels"][name] = {
            "dense_seconds": dense,
            "sparse_seconds": sparse,
            "speedup": dense / sparse,
        }

    report(
        "embedding backward",
        *bench_lookup_backward(args.entities, args.dim, args.batch, args.repeats),
    )
    report(
        "Adam step",
        *bench_adam_step(args.entities, args.dim, args.batch, args.repeats),
    )

    print()
    header = f"{'fit epoch (TransE)':<24} {'dense s':>10} {'sparse s':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for entities in args.fit_entities:
        dense = bench_fit_epoch(
            entities, args.dim, args.triples, args.batch, args.repeats, True
        )
        sparse = bench_fit_epoch(
            entities, args.dim, args.triples, args.batch, args.repeats, False
        )
        print(
            f"{f'E={entities}':<24} {dense:>10.4f} {sparse:>10.4f} "
            f"{dense / sparse:>7.1f}x"
        )
        results["fit_epoch_seconds"][str(entities)] = {
            "dense_seconds": dense,
            "sparse_seconds": sparse,
            "speedup": dense / sparse,
        }

    paths, in_dim, hidden, steps = 192, 32, 16, 4  # a KPRN batch: 64 pairs x 3 paths
    lstm = bench_lstm_step(paths, in_dim, hidden, steps, max(args.repeats, 20))
    composed, fused = lstm["composed"], lstm["fused"]
    print()
    print(
        f"LSTM step fwd+bwd ({paths} paths, in {in_dim}, hidden {hidden}, "
        f"{steps} masked steps): composed {composed[0] * 1e6:.0f} us "
        f"({composed[1]:.0f} tensors), fused {fused[0] * 1e6:.0f} us "
        f"({fused[1]:.0f} tensors), {composed[0] / fused[0]:.1f}x"
    )
    results["lstm_step"] = {
        "config": {"paths": paths, "in_dim": in_dim, "hidden": hidden, "steps": steps},
        "composed_seconds": composed[0],
        "fused_seconds": fused[0],
        "composed_tensors": composed[1],
        "fused_tensors": fused[1],
        "speedup": composed[0] / fused[0],
    }

    per_model = train_tensors_per_step()
    print()
    print("training tape, tensors per optimizer step inside fit (train-panel world):")
    for name, row in per_model.items():
        print(
            f"  {name:<6} {row['tensors_per_step']:>8.1f}  "
            f"({row['tensors']} tensors / {row['steps']} steps)"
        )
    results["train_tensors_per_step"] = {"world": PANEL_WORLD, "models": per_model}

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")


# --------------------------------------------------------------------- #
def smoke():
    """Tiny-size single-shot run with bitwise assertions (for CI)."""
    rng = ensure_rng(0)
    weight = rng.standard_normal((40, 6))
    rows = rng.integers(0, 40, size=25).astype(np.int64)  # guaranteed duplicates
    upstream = rng.standard_normal((25, 6))

    # Sparse backward densifies to exactly the seed's add.at scatter.
    ref = seed_lookup_backward(weight, rows, upstream)
    sparse = sparse_lookup_backward(weight.shape, rows, upstream)
    assert np.array_equal(sparse.to_dense(), ref), "sparse backward != add.at"

    # The autograd embedding lookup's gradient is the add.at scatter.
    emb = nn.Embedding(40, 6, seed=1)
    (emb(rows) * upstream).sum().backward()
    expected = seed_lookup_backward(emb.weight.data, rows, upstream)
    assert np.array_equal(emb.weight.grad, expected), "lookup grad != add.at"

    # A table looked up twice densifies segment by segment: each lookup's
    # add.at scatter, then the scatters summed in order.  Rows recur three
    # times per lookup with values of mixed magnitude, so coalescing both
    # lookups at once rounds differently.
    emb = nn.Embedding(5, 2, seed=1)
    seg_rows = np.array([0, 2, 0, 2, 0, 2, 4])
    seg_vals = np.array([1e16, -1e16, 1.0, 3.0, 1.0, 3.0, 7.0])[:, None].repeat(2, axis=1)
    lookups = [(seg_rows, seg_vals), (seg_rows[::-1].copy(), -seg_vals)]
    sum((emb(r) * v).sum() for r, v in lookups).backward()
    expected = sum(seed_lookup_backward(emb.weight.data, r, v) for r, v in lookups)
    assert emb.weight.grad.tobytes() == expected.tobytes(), "densify segment order"

    # Lazy Adam's first step matches the densified step bitwise (zero decay).
    updated = {}
    for dense in (False, True):
        w = nn.Parameter(ensure_rng(2).standard_normal((40, 6)))
        opt = (densified(Adam) if dense else Adam)([w], lr=0.01)
        w._grad = SparseGrad(w.shape, rows, upstream.copy())
        opt.step()
        updated[dense] = w.data
    assert np.array_equal(updated[False], updated[True]), "lazy Adam first step"

    # A fit on densified gradients is the seed's add.at fit, bitwise.
    store = make_store(120, 30, 4, seed=0)
    histories = {}
    for mode in ("seed", "dense", "sparse"):
        histories[mode] = fit_transe(
            TransE(30, 4, dim=6, seed=3), store, dense=mode != "sparse",
            seed_lookups=mode == "seed", epochs=2, batch_size=32, seed=4,
        )
    assert histories["dense"] == histories["seed"], "densified fit not bitwise"
    # Lazy Adam is a different (standard) update rule — untouched rows'
    # moments are not decayed — so the sparse history only tracks the dense
    # one approximately.
    np.testing.assert_allclose(histories["sparse"], histories["dense"], rtol=0.05)

    # The flattened coalesce (and, above its size limit, the per-column
    # loop) is bitwise the per-column loop, and so is the table-sized path
    # (a 40 x dim table here).
    for n, dim in ((25, 6), (4000, 8)):
        r = rng.integers(0, 40, size=n)
        v = rng.standard_normal((n, dim))
        want = coalesce_rows_reference(r, v)
        for got in (coalesce_rows(r, v), coalesce_rows(r, v, 40)):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), "coalesce"

    # KGCN's fused attention pool is bitwise its composition (two hops'
    # width, so the user gradient sums over two broadcast axes).
    pooled = []
    for pool in (attention_pool, attention_pool_reference):
        prng = ensure_rng(5)
        u, r, nbr = (
            tensor_mod.Tensor(prng.standard_normal(shape), requires_grad=True)
            for shape in ((3, 4), (3, 2, 5, 4), (3, 10, 4))
        )
        out = pool(u, r, nbr, 5)
        (out * prng.standard_normal(out.shape)).sum().backward()
        pooled.append([t.tobytes() for t in (out.data, u.grad, r.grad, nbr.grad)])
    assert pooled[0] == pooled[1], "fused attention pool != composition"

    # MKR's rank-one cross & compress equals the cross-matrix composition.
    ranked = []
    for call in (CrossCompress.__call__, cross_compress_reference):
        crng = ensure_rng(6)
        unit = CrossCompress(4, seed=7)
        v, e = (tensor_mod.Tensor(crng.standard_normal((5, 4)), requires_grad=True)
                for __ in range(2))
        v_out, e_out = call(unit, v, e)
        ((v_out * crng.standard_normal((5, 4))).sum() + (e_out * e_out).sum()).backward()
        ranked.append([v_out.data, e_out.data, v.grad, e.grad]
                      + [p.grad for p in unit.parameters()])
    for a, b in zip(*ranked):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg="cross & compress")

    # The fused LSTM step is bitwise its composition: outputs and gradients.
    xs, masks = lstm_inputs(7, 5, 4, seed=3)
    results = []
    for step in (nn.LSTMCell.__call__, lstm_step_reference):
        cell = nn.LSTMCell(5, 3, seed=4)
        for x in xs:
            x.zero_grad()
        h = lstm_chain(step, cell, xs, masks)
        (h * h).sum().backward()
        grads = [x.grad for x in xs] + [p.grad for p in cell.parameters()]
        results.append([h.data.tobytes()] + [g.tobytes() for g in grads])
    assert results[0] == results[1], "fused LSTM step != composition"
    print("bench_autograd smoke: all kernels OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entities", type=int, default=100_000)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--triples", type=int, default=2_048)
    parser.add_argument(
        "--fit-entities",
        type=int,
        nargs="+",
        default=[1_000, 10_000, 100_000],
        help="entity-table sizes for the end-to-end fit scaling study",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=str, default=str(DEFAULT_OUT))
    parser.add_argument(
        "--smoke", action="store_true", help="tiny single-shot correctness run"
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    run(args)


if __name__ == "__main__":
    main()
