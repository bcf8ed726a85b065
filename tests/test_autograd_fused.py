"""Fast autograd paths against their unfused forms, bitwise.

* the fused ``nn.LSTMCell`` step (one tape node) against the op-by-op
  composition plus KPRN's step mask, in outputs and in every gradient, and
  KPRN/EIUM fits through either, parameter for parameter;
* KGCN's fused attention-pool node against its composition, in outputs
  and every gradient, and KGCN fits through either, for every aggregator
  at one and two hops;
* MKR's rank-one cross & compress unit against the ``(B, d, d)``
  cross-matrix composition (to rounding) and against finite differences;
* ``coalesce_rows`` against the per-column ``np.bincount`` loop, on the
  unique-row paths and on the table-sized path;
* lazy Adam against the update that gathered ``m``, ``v`` and ``p`` three
  times;
* tape-off scoring against taped scoring;
* optimizer constructors rejecting settings that would poison a step.

The reference forms live in ``autograd_reference.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models  # noqa: F401 - registers the model classes
from repro.autograd import Adam, nn
from repro.autograd import sparse as sparse_mod
from repro.autograd.sparse import SparseGrad, coalesce_rows
from repro.autograd.tensor import Tensor, no_tape
from repro.core.registry import get_model_class
from repro.data import make_movie_dataset
from repro.models.embedding_based.mkr import CrossCompress
from repro.models.unified import kgcn

from .autograd_reference import (
    attention_pool_reference,
    coalesce_rows_reference,
    cross_compress_reference,
    lstm_step_reference,
    sparse_adam_rows_reference,
)
from .test_autograd_tensor import numeric_grad


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# --------------------------------------------------------------------- #
# fused LSTM step
# --------------------------------------------------------------------- #
def _mask(kind: str, batch: int, rng: np.random.Generator):
    if kind == "none":
        return None
    if kind == "zeros":
        return np.zeros((batch, 1))
    if kind == "ones":
        return np.ones((batch, 1))
    return (rng.random((batch, 1)) < 0.5).astype(np.float64)


def _run(step, seed, batch, in_dim, hidden, mask_kinds, use_h=True, use_c=True):
    """Chain ``len(mask_kinds)`` steps of ``step`` from leaf inputs; returns
    the final outputs and every gradient."""
    rng = np.random.default_rng(seed)
    cell = nn.LSTMCell(in_dim, hidden, seed=seed)
    xs = [Tensor(rng.normal(size=(batch, in_dim)), requires_grad=True) for __ in mask_kinds]
    h0 = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
    masks = [_mask(kind, batch, rng) for kind in mask_kinds]
    w_h = rng.normal(size=(batch, hidden))
    w_c = rng.normal(size=(batch, hidden))
    h, c = h0, c0
    for x, mask in zip(xs, masks):
        h, c = step(cell, x, (h, c), mask)
    loss = None
    if use_h:
        loss = (h * w_h).sum()
    if use_c:
        term = (c * w_c).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    grads = [t.grad for t in (*xs, h0, c0)] + [p.grad for p in cell.parameters()]
    return [h.data, c.data], grads


def _fused(cell, x, state, mask):
    return cell(x, state, mask)


def _assert_bitwise(fused, reference):
    (f_out, f_grads), (r_out, r_grads) = fused, reference
    for a, b in zip(f_out, r_out):
        assert _bits(a) == _bits(b)
    assert len(f_grads) == len(r_grads)
    for a, b in zip(f_grads, r_grads):
        assert (a is None) == (b is None)
        if a is not None:
            assert _bits(a) == _bits(b)


class TestFusedLSTMStep:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 9),
        in_dim=st.integers(1, 7),
        hidden=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(["none", "zeros", "ones", "mixed"]), min_size=1, max_size=4),
    )
    def test_outputs_and_every_gradient(self, seed, batch, in_dim, hidden, kinds):
        args = (seed, batch, in_dim, hidden, kinds)
        _assert_bitwise(_run(_fused, *args), _run(lstm_step_reference, *args))

    @pytest.mark.parametrize("use_h,use_c", [(True, False), (False, True)])
    @pytest.mark.parametrize("kind", ["none", "mixed"])
    def test_one_output_unused(self, use_h, use_c, kind):
        args = (3, 5, 4, 3, [kind, kind, kind])
        _assert_bitwise(
            _run(_fused, *args, use_h=use_h, use_c=use_c),
            _run(lstm_step_reference, *args, use_h=use_h, use_c=use_c),
        )

    def test_one_node_per_step(self):
        cell = nn.LSTMCell(4, 3, seed=0)
        h, c = cell.initial_state(2)
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        h2, c2 = cell(x, (h, c), np.ones((2, 1)))
        assert h2._parents == c2._parents and len(h2._parents) == 1
        node = h2._parents[0]
        params = cell.parameters()
        assert node._parents[0] is x and set(map(id, node._parents[1:])) == set(map(id, params))

    @pytest.mark.parametrize("name", ["KPRN", "EIUM"])
    def test_fit_matches_composed_fit(self, name, monkeypatch):
        dataset = make_movie_dataset(seed=2, num_users=30, num_items=40)
        cls = get_model_class(name)
        fused = cls(epochs=2, seed=1).fit(dataset)
        monkeypatch.setattr(nn.LSTMCell, "__call__", lstm_step_reference)
        composed = cls(epochs=2, seed=1).fit(dataset)
        assert fused.loss_history == composed.loss_history
        for a, b in zip(fused.parameters(), composed.parameters(), strict=True):
            assert _bits(a.data) == _bits(b.data)


# --------------------------------------------------------------------- #
# KGCN attention pool
# --------------------------------------------------------------------- #
def _pool_run(pool, seed, batch, width, neighbors, dim, needs=(True, True, True)):
    """``pool`` on leaf inputs under a non-uniform loss; returns the output
    and every input's gradient.  ``nbr`` is given flat, as KGCN gives it."""
    rng = np.random.default_rng(seed)
    u = Tensor(rng.normal(size=(batch, dim)), requires_grad=needs[0])
    r = Tensor(rng.normal(size=(batch, width, neighbors, dim)), requires_grad=needs[1])
    nbr = Tensor(rng.normal(size=(batch, width * neighbors, dim)), requires_grad=needs[2])
    w = rng.normal(size=(batch, width, dim))
    out = pool(u, r, nbr, neighbors)
    (out * w).sum().backward()
    return [out.data], [t.grad for t in (u, r, nbr)]


class TestAttentionPool:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 6),
        width=st.sampled_from([1, 2, 4]),
        neighbors=st.integers(1, 5),
        dim=st.integers(1, 6),
    )
    def test_outputs_and_every_gradient(self, seed, batch, width, neighbors, dim):
        args = (seed, batch, width, neighbors, dim)
        _assert_bitwise(
            _pool_run(kgcn.attention_pool, *args), _pool_run(attention_pool_reference, *args)
        )

    @pytest.mark.parametrize(
        "needs", [(True, False, False), (False, True, False), (False, False, True)]
    )
    def test_one_input_trained(self, needs):
        args = (5, 3, 2, 4, 3)
        _assert_bitwise(
            _pool_run(kgcn.attention_pool, *args, needs=needs),
            _pool_run(attention_pool_reference, *args, needs=needs),
        )

    def test_one_node(self):
        rng = np.random.default_rng(0)
        u, r, nbr = (
            Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((2, 3), (2, 1, 4, 3), (2, 4, 3))
        )
        out = kgcn.attention_pool(u, r, nbr, 4)
        assert out._parents == (u, r, nbr)

    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("aggregator", kgcn.AGGREGATORS)
    def test_fit_matches_composed_fit(self, aggregator, hops, monkeypatch):
        dataset = make_movie_dataset(seed=2, num_users=30, num_items=40)

        def fit():
            model = kgcn.KGCN(aggregator=aggregator, hops=hops, num_neighbors=4, epochs=2, seed=1)
            return model.fit(dataset)

        fused = fit()
        monkeypatch.setattr(kgcn, "attention_pool", attention_pool_reference)
        composed = fit()
        assert fused.loss_history == composed.loss_history
        for a, b in zip(fused.parameters(), composed.parameters(), strict=True):
            assert _bits(a.data) == _bits(b.data)


# --------------------------------------------------------------------- #
# MKR cross & compress
# --------------------------------------------------------------------- #
def _cc_run(unit_call, units, v0, e0, w_v, w_e):
    """``units`` chained through ``unit_call`` under a non-uniform loss;
    returns the outputs and every gradient."""
    for unit in units:
        unit.zero_grad()
    v = Tensor(v0, requires_grad=True)
    e = Tensor(e0, requires_grad=True)
    v_out, e_out = v, e
    for unit in units:
        v_out, e_out = unit_call(unit, v_out, e_out)
    ((v_out * w_v).sum() + (e_out * w_e).sum()).backward()
    grads = [v.grad, e.grad] + [p.grad for unit in units for p in unit.parameters()]
    return [v_out.data, e_out.data], grads


class TestCrossCompress:
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_matches_cross_matrix_composition(self, num_layers):
        rng = np.random.default_rng(num_layers)
        units = [CrossCompress(6, seed=rng) for __ in range(num_layers)]
        args = [rng.normal(size=(9, 6)) for __ in range(4)]
        (f_out, f_grads), (r_out, r_grads) = (
            _cc_run(CrossCompress.__call__, units, *args),
            _cc_run(cross_compress_reference, units, *args),
        )
        for a, b in zip(f_out + f_grads, r_out + r_grads, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_gradients_match_finite_differences(self, num_layers):
        rng = np.random.default_rng(10 + num_layers)
        units = [CrossCompress(4, seed=rng) for __ in range(num_layers)]
        v0, e0, w_v, w_e = (rng.normal(size=(5, 4)) for __ in range(4))
        __, grads = _cc_run(CrossCompress.__call__, units, v0, e0, w_v, w_e)

        def loss(v_arr, e_arr):
            v, e = Tensor(v_arr), Tensor(e_arr)
            for unit in units:
                v, e = unit(v, e)
            return float((v.data * w_v).sum() + (e.data * w_e).sum())

        np.testing.assert_allclose(grads[0], numeric_grad(lambda x: loss(x, e0), v0), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(grads[1], numeric_grad(lambda x: loss(v0, x), e0), rtol=1e-5, atol=1e-8)
        params = [p for unit in units for p in unit.parameters()]
        for param, grad in zip(params, grads[2:], strict=True):
            saved = param.data

            def at(x, param=param):
                param.data = x
                try:
                    return loss(v0, e0)
                finally:
                    param.data = saved

            np.testing.assert_allclose(grad, numeric_grad(at, saved), rtol=1e-5, atol=1e-8)


# --------------------------------------------------------------------- #
# coalesce_rows
# --------------------------------------------------------------------- #
@st.composite
def _row_batches(draw):
    n = draw(st.integers(0, 300))
    dim = draw(st.integers(1, 70))
    table = draw(st.integers(1, 400))
    rows = np.asarray(draw(st.lists(st.integers(0, table - 1), min_size=n, max_size=n)), dtype=np.int64)
    seed = draw(st.integers(0, 2**16))
    wide = np.random.default_rng(seed).normal(size=(n, 2 * dim))
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran"]))
    if layout == "strided":
        vals = wide[:, ::2]
    elif layout == "fortran":
        vals = np.asfortranarray(wide[:, :dim])
    else:
        vals = np.ascontiguousarray(wide[:, :dim])
    return rows, vals


class TestCoalesceRows:
    @settings(max_examples=150, deadline=None)
    @given(_row_batches())
    def test_matches_per_column_loop(self, batch):
        rows, vals = batch
        unique, summed = coalesce_rows(rows, vals)
        ref_unique, ref_summed = coalesce_rows_reference(rows, vals)
        assert _bits(unique) == _bits(ref_unique)
        assert summed.shape == ref_summed.shape and summed.dtype == ref_summed.dtype
        assert _bits(summed) == _bits(ref_summed)

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros(0, dtype=np.int64),
            np.array([4]),
            np.full(50, 3),  # all duplicates
            np.arange(40)[::-1].copy(),  # no duplicates
            np.tile(np.arange(7), 400),  # above the flat-bincount limit
        ],
        ids=["empty", "one-row", "all-duplicates", "no-duplicates", "large"],
    )
    @pytest.mark.parametrize("dim", [1, 6])
    def test_edge_shapes(self, rows, dim):
        vals = np.random.default_rng(rows.size).normal(size=(rows.size, dim))
        unique, summed = coalesce_rows(rows, vals)
        ref_unique, ref_summed = coalesce_rows_reference(rows, vals)
        assert _bits(unique) == _bits(ref_unique)
        assert summed.shape == ref_summed.shape
        assert _bits(summed) == _bits(ref_summed)

    @settings(max_examples=150, deadline=None)
    @given(_row_batches())
    def test_table_sized_matches_per_column_loop(self, batch):
        rows, vals = batch
        num_rows = int(rows.max()) + 1 if rows.size else 1
        unique, summed = coalesce_rows(rows, vals, num_rows)
        ref_unique, ref_summed = coalesce_rows_reference(rows, vals)
        assert _bits(unique) == _bits(ref_unique) and unique.dtype == ref_unique.dtype
        assert summed.shape == ref_summed.shape and summed.dtype == ref_summed.dtype
        assert _bits(summed) == _bits(ref_summed)

    @pytest.mark.parametrize(
        "num_rows,dim,rows",
        [
            (20, 4, np.zeros(0, dtype=np.int64)),
            (20, 4, np.random.default_rng(1).permutation(20)),  # no duplicates
            (20, 4, np.random.default_rng(2).permutation(np.repeat(np.arange(20), 3))),  # all present
            (20, 4, np.full(9, 19)),  # the last row only
            # The train-panel shapes: KGCN's entity and relation tables,
            # the user table, and the largest panel table.
            (305, 16, np.random.default_rng(3).integers(0, 305, 4352)),
            (6, 16, np.random.default_rng(4).integers(0, 6, 4096)),
            (150, 16, np.random.default_rng(5).integers(0, 150, 256)),
            (455, 16, np.random.default_rng(6).integers(0, 455, 1536)),
        ],
        ids=["empty", "no-duplicates", "all-present", "last-row", "305x16", "6x16", "150x16", "455x16"],
    )
    def test_table_sized_edge_and_panel_shapes(self, num_rows, dim, rows):
        assert num_rows * dim <= sparse_mod._FLAT_COALESCE_LIMIT
        vals = np.random.default_rng(rows.size).normal(size=(rows.size, dim))
        vals[::7] *= -0.0  # signed zeros survive only on the no-duplicate path
        unique, summed = coalesce_rows(rows, vals, num_rows)
        ref_unique, ref_summed = coalesce_rows_reference(rows, vals)
        assert _bits(unique) == _bits(ref_unique) and unique.dtype == ref_unique.dtype
        assert summed.shape == ref_summed.shape
        assert _bits(summed) == _bits(ref_summed)

    def test_sparse_grad_passes_its_table_size(self, monkeypatch):
        seen = []

        def spy(rows, vals, num_rows=None):
            seen.append(num_rows)
            return coalesce_rows(rows, vals, num_rows)

        monkeypatch.setattr(sparse_mod, "coalesce_rows", spy)
        grad = SparseGrad((5, 2), np.array([3, 1, 3, 0]), np.arange(8.0).reshape(4, 2))
        grad.to_dense()
        grad.coalesce()
        assert seen == [5, 5]
        assert grad.rows.tolist() == [0, 1, 3]
        assert grad.vals.tolist() == [[6.0, 7.0], [2.0, 3.0], [4.0, 6.0]]


# --------------------------------------------------------------------- #
# lazy Adam
# --------------------------------------------------------------------- #
class TestSparseAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_matches_three_gather_update(self, weight_decay):
        rng = np.random.default_rng(4)
        table = rng.normal(size=(30, 5))
        param = nn.Parameter(table.copy())
        opt = Adam([param], lr=0.01, weight_decay=weight_decay)
        p, m, v = table.copy(), np.zeros_like(table), np.zeros_like(table)
        for t in range(1, 6):
            rows = rng.integers(0, 30, size=12)  # with duplicates
            vals = rng.normal(size=(12, 5))
            param._grad = SparseGrad(param.shape, rows, vals.copy())
            opt.step()
            unique, summed = coalesce_rows_reference(rows, vals)
            sparse_adam_rows_reference(
                p,
                m,
                v,
                unique,
                summed,
                lr=0.01,
                beta1=0.9,
                beta2=0.999,
                eps=1e-8,
                weight_decay=weight_decay,
                bc1=1.0 - 0.9**t,
                bc2=1.0 - 0.999**t,
            )
            assert _bits(param.data) == _bits(p)
            state = opt.state_dict()
            assert _bits(state["m"][0]) == _bits(m) and _bits(state["v"][0]) == _bits(v)


# --------------------------------------------------------------------- #
# tape-off scoring
# --------------------------------------------------------------------- #
class TestNoTape:
    @pytest.fixture(scope="class")
    def kprn(self):
        dataset = make_movie_dataset(seed=1, num_users=20, num_items=25)
        return get_model_class("KPRN")(epochs=1, seed=0).fit(dataset)

    def test_scores_are_bitwise_the_taped_scores(self, kprn):
        items = np.arange(kprn.fitted_dataset.num_items)
        for user in range(4):
            taped = kprn._score_batch(np.full(items.size, user), items)
            assert taped.requires_grad
            assert _bits(kprn.score_all(user)) == _bits(taped.data)

    def test_records_no_tape_node(self, kprn, monkeypatch):
        made = []
        original = Tensor.__init__

        def counting(self, data, requires_grad=False, _parents=(), _backward=None):
            made.append((requires_grad, _parents, _backward))
            original(self, data, requires_grad, _parents, _backward)

        monkeypatch.setattr(Tensor, "__init__", counting)
        kprn.score_all(0)
        assert made
        assert all(not r and not parents and b is None for r, parents, b in made)

    def test_taping_resumes_after_an_exception(self):
        w = nn.Parameter(np.ones(3))
        with pytest.raises(RuntimeError):
            with no_tape():
                assert not (w * 2.0).requires_grad
                assert not w[np.array([0, 1])].requires_grad
                raise RuntimeError("boom")
        out = (w * 2.0).sum()
        assert out.requires_grad
        out.backward()
        assert _bits(w.grad) == _bits(np.full(3, 2.0))


# --------------------------------------------------------------------- #
# optimizer settings
# --------------------------------------------------------------------- #
_NAN, _INF = math.nan, math.inf
_BAD_SETTINGS = {
    "adam-lr-nan": (Adam, {"lr": _NAN}),
    "adam-lr-inf": (Adam, {"lr": _INF}),
    "adam-weight-decay-nan": (Adam, {"weight_decay": _NAN}),
    "adam-weight-decay-inf": (Adam, {"weight_decay": _INF}),
    "adam-beta1-one": (Adam, {"betas": (1.0, 0.999)}),
    "adam-beta2-one": (Adam, {"betas": (0.9, 1.0)}),
    "adam-beta-negative": (Adam, {"betas": (-0.1, 0.999)}),
    "adam-beta-nan": (Adam, {"betas": (0.9, _NAN)}),
    "adam-eps-zero": (Adam, {"eps": 0.0}),
    "adam-eps-negative": (Adam, {"eps": -1e-8}),
    "adam-eps-nan": (Adam, {"eps": _NAN}),
}


class TestOptimizerSettings:
    @pytest.mark.parametrize("case", list(_BAD_SETTINGS), ids=list(_BAD_SETTINGS))
    def test_rejects_setting_that_poisons_a_step(self, case):
        cls, kwargs = _BAD_SETTINGS[case]
        with pytest.raises(ValueError):
            cls([nn.Parameter(np.ones(3))], **kwargs)

    def test_valid_settings_still_step(self):
        p = nn.Parameter(np.ones(3))
        opt = Adam([p], lr=0.1, weight_decay=0.01, betas=(0.0, 0.0))
        (p * p).sum().backward()
        opt.step()
        assert np.isfinite(p.data).all() and (p.data < 1.0).all()
