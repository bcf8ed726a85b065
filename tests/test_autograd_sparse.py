"""Sparse-gradient training path tests.

Covers the row-sparse embedding gradient (:mod:`repro.autograd.sparse`),
its production in ``Tensor.__getitem__`` / ``nn.Embedding``, accumulation
semantics, the lazy row-wise optimizers, sparse-aware runtime guards, and
the end-to-end bitwise guarantees (a fit with densified gradients
reproduces the historical ``np.add.at`` dense path; checkpoint/resume stays
bitwise with sparse updates on).  The dense paths are reached through the
oracles in ``autograd_reference.py``.
"""

import numpy as np
import pytest

from repro.autograd import nn, ops
from repro.autograd.nn import Parameter
from repro.autograd.optim import Adam
from repro.autograd.sparse import SparseGrad, coalesce_rows
from repro.autograd.tensor import Tensor
from repro.kg.triples import TripleStore
from repro.kge import DistMult, TransE
from repro.kge import base as kge_base
from repro.runtime import (
    Checkpointer,
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    TrainingRuntime,
    grad_norm,
    raw_grad,
)

from .autograd_reference import dense_lookup_reference, densified


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar-valued f at x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


def add_at_reference(shape, rows, vals):
    """The seed's dense scatter: zeros + np.add.at."""
    out = np.zeros(shape)
    np.add.at(out, rows, vals)
    return out


@pytest.fixture(scope="module")
def small_store():
    rng = np.random.default_rng(7)
    triples = [
        (int(rng.integers(15)), int(rng.integers(3)), int(rng.integers(15)))
        for __ in range(40)
    ]
    return TripleStore.from_triples(triples, 15, 3)


# ---------------------------------------------------------------------- #
# coalescing kernel
# ---------------------------------------------------------------------- #
class TestCoalesceRows:
    def test_duplicates_summed_bitwise_like_add_at(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 9, size=50).astype(np.int64)
        vals = rng.standard_normal((50, 4))
        unique, summed = coalesce_rows(rows, vals)
        assert np.array_equal(unique, np.unique(rows))
        dense = np.zeros((9, 4))
        dense[unique] = summed
        assert np.array_equal(dense, add_at_reference((9, 4), rows, vals))

    def test_no_duplicates_reorders_to_ascending(self):
        rows = np.array([5, 2, 8], dtype=np.int64)
        vals = np.arange(6.0).reshape(3, 2)
        unique, summed = coalesce_rows(rows, vals)
        assert unique.tolist() == [2, 5, 8]
        assert np.array_equal(summed, vals[[1, 0, 2]])

    def test_empty(self):
        unique, summed = coalesce_rows(
            np.empty(0, dtype=np.int64), np.empty((0, 3))
        )
        assert unique.size == 0 and summed.shape == (0, 3)


class TestSparseGrad:
    def test_to_dense_matches_add_at(self):
        rows = np.array([1, 3, 1, 0], dtype=np.int64)
        vals = np.arange(8.0).reshape(4, 2)
        g = SparseGrad((5, 2), rows, vals.copy())
        assert np.array_equal(g.to_dense(), add_at_reference((5, 2), rows, vals))

    def test_coalesce_is_idempotent_and_owns_arrays(self):
        rows = np.array([2, 2], dtype=np.int64)
        vals = np.ones((2, 3))
        g = SparseGrad((4, 3), rows, vals)
        g.coalesce()
        assert g.nnz == 1
        assert g.rows is not rows and g.vals is not vals
        assert np.array_equal(vals, np.ones((2, 3)))  # producer's view intact
        before = (g.rows, g.vals)
        g.coalesce()
        assert g.rows is before[0] and g.vals is before[1]

    def test_merge_preserves_accumulation_order(self):
        a = SparseGrad((4, 1), np.array([1], dtype=np.int64), np.array([[1.0]]))
        b = SparseGrad((4, 1), np.array([1], dtype=np.int64), np.array([[2.0]]))
        merged = a.merge(b)
        assert merged.rows.tolist() == [1, 1]
        assert merged.to_dense()[1, 0] == 3.0

    def test_merge_shape_mismatch_raises(self):
        a = SparseGrad((4, 1), np.array([0], dtype=np.int64), np.zeros((1, 1)))
        b = SparseGrad((5, 1), np.array([0], dtype=np.int64), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_add_into_scatters_in_place(self):
        g = SparseGrad(
            (3, 2), np.array([0, 0], dtype=np.int64), np.ones((2, 2))
        )
        dense = np.full((3, 2), 10.0)
        out = g.add_into(dense)
        assert out is dense
        assert dense[0].tolist() == [12.0, 12.0] and dense[1].tolist() == [10.0, 10.0]


# ---------------------------------------------------------------------- #
# lookup backward
# ---------------------------------------------------------------------- #
class TestLookupBackward:
    def test_leaf_lookup_produces_sparse_grad(self):
        w = Parameter(np.random.default_rng(0).standard_normal((10, 3)))
        idx = np.array([4, 7, 4])
        (w[idx] * 2.0).sum().backward()
        assert isinstance(w.raw_grad, SparseGrad)
        assert w.raw_grad.shape == (10, 3)

    def test_sparse_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 3))
        idx = np.array([0, 2, 2, 5])
        coeff = rng.standard_normal((4, 3))

        w = Parameter(x)
        (w[idx] * coeff).sum().backward()
        expected = numeric_grad(lambda a: (a[idx] * coeff).sum(), x)
        np.testing.assert_allclose(w.grad, expected, rtol=1e-6, atol=1e-8)

    def test_grad_property_densifies_in_place(self):
        w = Parameter(np.ones((5, 2)))
        w[np.array([1, 1])].sum().backward()
        assert isinstance(w.raw_grad, SparseGrad)
        dense = w.grad
        assert isinstance(dense, np.ndarray)
        assert w.raw_grad is dense  # cached: repeated reads are free
        assert dense[1].tolist() == [2.0, 2.0]

    @pytest.mark.parametrize(
        "index",
        [
            np.array([0, 3, 3, 7]),
            np.array([-1, 2, -8]),  # negative rows normalize
            [1, 1, 4],  # python list
            3,  # scalar row
            np.array([[0, 2], [2, 5]]),  # 2-d gather (neighbor batches)
        ],
    )
    def test_sparse_and_dense_paths_bitwise_equal(self, index):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4))
        upstream = rng.standard_normal(np.asarray(x[index]).shape)

        w = Parameter(x.copy())
        (w[index] * upstream).sum().backward()
        rows = np.asarray(index).reshape(-1) % 8
        ref = add_at_reference((8, 4), rows, upstream.reshape(rows.size, -1))
        assert np.array_equal(w.grad, ref)

    def test_dense_int_kernel_bitwise_equals_add_at(self):
        # A lookup on an interior node takes the dense scatter (coalesce +
        # assign), which must match np.add.at bitwise, duplicates included.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 5))
        idx = rng.integers(0, 12, size=64)
        upstream = rng.standard_normal((64, 5))
        w = Parameter(x)
        ((w * 1.0)[idx] * upstream).sum().backward()
        assert isinstance(w.raw_grad, np.ndarray)
        assert np.array_equal(w.grad, add_at_reference((12, 5), idx, upstream))

    def test_non_leaf_lookup_stays_dense(self):
        w = Parameter(np.random.default_rng(4).standard_normal((6, 2)))
        scaled = w * 1.0  # interior node: grads must propagate densely
        scaled[np.array([1, 1, 3])].sum().backward()
        assert isinstance(w.raw_grad, np.ndarray)
        expected = add_at_reference((6, 2), np.array([1, 1, 3]), np.ones((3, 2)))
        np.testing.assert_allclose(w.grad, expected)

    def test_one_dim_parameter_lookup_stays_dense(self):
        b = Parameter(np.arange(5.0))
        b[np.array([0, 0, 4])].sum().backward()
        assert isinstance(b.raw_grad, np.ndarray)
        assert b.grad.tolist() == [2.0, 0.0, 0.0, 0.0, 1.0]

    def test_slice_and_mask_indexing_still_differentiable(self):
        w = Parameter(np.arange(12.0).reshape(4, 3))
        w[1:3].sum().backward()
        assert isinstance(w.raw_grad, np.ndarray)
        np.testing.assert_allclose(w.grad[1:3], 1.0)
        np.testing.assert_allclose(w.grad[[0, 3]], 0.0)

        w2 = Parameter(np.arange(4.0))
        w2[np.array([True, False, True, False])].sum().backward()
        assert w2.grad.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_embedding_module_produces_sparse_grad(self):
        emb = nn.Embedding(9, 4, seed=0)
        emb(np.array([2, 8, 2])).sum().backward()
        assert isinstance(emb.weight.raw_grad, SparseGrad)


# ---------------------------------------------------------------------- #
# accumulation mixing
# ---------------------------------------------------------------------- #
class TestAccumulateMixing:
    def test_two_lookups_merge_sparsely(self):
        w = Parameter(np.ones((7, 2)))
        loss = w[np.array([1, 2])].sum() + w[np.array([2, 3])].sum()
        loss.backward()
        assert isinstance(w.raw_grad, SparseGrad)
        expected = np.zeros((7, 2))
        expected[[1, 3]] = 1.0
        expected[2] = 2.0
        assert np.array_equal(w.grad, expected)

    def test_sparse_then_dense_densifies(self):
        w = Parameter(np.full((5, 2), 2.0))
        loss = w[np.array([0, 0])].sum() + (w * 3.0).sum()
        loss.backward()
        assert isinstance(w.raw_grad, np.ndarray)
        expected = np.full((5, 2), 3.0)
        expected[0] += 2.0
        np.testing.assert_allclose(w.grad, expected)

    def test_grad_over_reuse_of_lookup_output(self):
        w = Parameter(np.full((4, 2), 3.0))
        row = w[np.array([1])]
        (row * row).sum().backward()
        np.testing.assert_allclose(w.grad[1], 6.0)
        np.testing.assert_allclose(w.grad[0], 0.0)

    def test_manual_grad_assignment_still_supported(self):
        p = Parameter(np.zeros((3, 2)))
        p.grad = np.zeros_like(p.data)
        p.grad[1] = 5.0  # in-place writes through the property
        assert raw_grad(p)[1].tolist() == [5.0, 5.0]
        p.zero_grad()
        assert p.raw_grad is None


# ---------------------------------------------------------------------- #
# lazy optimizers
# ---------------------------------------------------------------------- #
def _lookup_step(w, opt, idx, coeff):
    opt.zero_grad()
    (w[idx] * coeff).sum().backward()
    opt.step()


def _paired(seed=0, rows=10, dim=3, **kwargs):
    """Lazy Adam and the same optimizer on densified gradients."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, dim))
    w_sparse = Parameter(data.copy())
    w_dense = Parameter(data.copy())
    return (
        w_sparse,
        Adam([w_sparse], **kwargs),
        w_dense,
        densified(Adam)([w_dense], **kwargs),
    )


class TestLazyOptimizers:
    def test_repeated_rows_match_dense_bitwise(self):
        # With weight_decay=0 and the same rows touched every step, the
        # lazy update is the dense update exactly (untouched rows are
        # fixed points).
        w_s, opt_s, w_d, opt_d = _paired(lr=0.05)
        idx = np.array([1, 4, 1, 9])
        coeff = np.random.default_rng(1).standard_normal((4, 3))
        for __ in range(5):
            _lookup_step(w_s, opt_s, idx, coeff)
            _lookup_step(w_d, opt_d, idx, coeff)
        assert np.array_equal(w_s.data, w_d.data)

    def test_first_step_matches_dense_bitwise_any_rows(self):
        w_s, opt_s, w_d, opt_d = _paired(seed=2, lr=0.1)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 10, size=6)
        coeff = rng.standard_normal((6, 3))
        _lookup_step(w_s, opt_s, idx, coeff)
        _lookup_step(w_d, opt_d, idx, coeff)
        assert np.array_equal(w_s.data, w_d.data)

    def test_lazy_weight_decay_shrinks_only_touched_rows(self):
        w = Parameter(np.ones((6, 2)))
        opt = Adam([w], lr=0.5, weight_decay=0.1)
        opt.zero_grad()
        w[np.array([2])].sum().backward()
        opt.step()
        assert np.allclose(w.data[0], 1.0)  # untouched: no decay applied
        # touched row: decayed then stepped
        assert np.allclose(w.data[2], 1.0 * (1 - 0.5 * 0.1) - 0.5 * 1.0)

    def test_dense_weight_decay_shrinks_every_row(self):
        w = Parameter(np.ones((6, 2)))
        opt = densified(Adam)([w], lr=0.5, weight_decay=0.1)
        opt.zero_grad()
        w[np.array([2])].sum().backward()
        opt.step()
        assert np.allclose(w.data[0], 1.0 * (1 - 0.5 * 0.1))

    def test_lazy_adam_untouched_rows_do_not_move(self):
        w = Parameter(np.ones((6, 2)))
        opt = Adam([w], lr=0.1)
        _lookup_step(w, opt, np.array([0]), np.ones((1, 2)))
        snapshot = w.data[1:].copy()
        _lookup_step(w, opt, np.array([5]), np.ones((1, 2)))
        # Rows 1..4 were never touched; lazy Adam leaves them bitwise intact.
        assert np.array_equal(w.data[1:5], snapshot[:4])

    def test_state_dict_roundtrip_interchangeable_across_modes(self):
        w_s, opt_s, w_d, opt_d = _paired(seed=5, lr=0.05)
        idx = np.array([0, 3])
        coeff = np.ones((2, 3))
        _lookup_step(w_s, opt_s, idx, coeff)
        # State left by sparse steps loads into an optimizer stepping dense
        # gradients, and the two then take the same step.
        opt_d.load_state_dict(opt_s.state_dict())
        w_d.data[:] = w_s.data
        _lookup_step(w_s, opt_s, idx, coeff)
        _lookup_step(w_d, opt_d, idx, coeff)
        assert np.array_equal(w_s.data, w_d.data)


# ---------------------------------------------------------------------- #
# sparse-aware gradient norm and faults
# ---------------------------------------------------------------------- #
class TestSparseGuards:
    def _sparse_param(self, rows, vals, shape=(8, 2)):
        p = Parameter(np.zeros(shape))
        p.grad = SparseGrad(shape, np.asarray(rows, dtype=np.int64), np.asarray(vals))
        return p

    def test_grad_norm_coalesces_duplicates(self):
        # Two hits on row 0 of [1.5, 2.0] must be summed *before* the norm:
        # ||(3, 4)|| = 5, not sqrt(2 * ||(1.5, 2)||^2).
        p = self._sparse_param([0, 0], [[1.5, 2.0], [1.5, 2.0]])
        assert grad_norm([p]) == pytest.approx(5.0)

    def test_nan_grad_fault_poisons_sparse_grads(self):
        w = Parameter(np.ones((5, 2)))
        w[np.array([2, 4])].sum().backward()
        injector = FaultInjector(FaultPlan([Fault(step=0, kind="nan_grad")]))
        injector.before_step(0, [w])
        assert isinstance(w.raw_grad, SparseGrad)
        assert np.isnan(w.raw_grad.vals).all()


# ---------------------------------------------------------------------- #
# end-to-end fit guarantees
# ---------------------------------------------------------------------- #
def _fit_history(model_cls, store, seed, dense=False, seed_lookups=False):
    """Fit a small model; ``dense`` steps Adam on densified gradients and
    ``seed_lookups`` makes every lookup's backward a dense ``np.add.at``."""
    with pytest.MonkeyPatch.context() as patch:
        if dense:
            patch.setattr(kge_base, "Adam", densified(Adam))
        if seed_lookups:
            patch.setattr(Tensor, "__getitem__", dense_lookup_reference)
        model = model_cls(15, 3, dim=4, seed=seed)
        history = model.fit(store, epochs=2, batch_size=16, seed=seed + 1)
    return model, history


class TestFitEquivalence:
    # TransE: margin loss + normalize_entities; DistMult: logistic loss.
    @pytest.mark.parametrize("model_cls", [TransE, DistMult])
    def test_dense_updates_reproduce_seed_path_bitwise(self, model_cls, small_store):
        seed_model, seed_hist = _fit_history(
            model_cls, small_store, 0, dense=True, seed_lookups=True
        )
        dense_model, dense_hist = _fit_history(model_cls, small_store, 0, dense=True)
        assert dense_hist == seed_hist
        np.testing.assert_array_equal(
            dense_model.entity.weight.data, seed_model.entity.weight.data
        )
        np.testing.assert_array_equal(
            dense_model.relation.weight.data, seed_model.relation.weight.data
        )

    @pytest.mark.parametrize("model_cls", [TransE, DistMult])
    def test_sparse_fit_tracks_dense_fit(self, model_cls, small_store):
        __, dense_hist = _fit_history(model_cls, small_store, 0, dense=True)
        __, sparse_hist = _fit_history(model_cls, small_store, 0)
        # Lazy Adam is a (documented) semantic variant, so the histories
        # agree approximately, not bitwise.
        np.testing.assert_allclose(sparse_hist, dense_hist, rtol=0.05)

    def test_sparse_fit_is_deterministic(self, small_store):
        __, hist_a = _fit_history(TransE, small_store, 0)
        __, hist_b = _fit_history(TransE, small_store, 0)
        assert hist_a == hist_b

    def test_dense_updates_fit_is_deterministic(self, small_store):
        model_a, hist_a = _fit_history(TransE, small_store, 0, dense=True)
        model_b, hist_b = _fit_history(TransE, small_store, 0, dense=True)
        assert hist_a == hist_b
        np.testing.assert_array_equal(
            model_a.entity.weight.data, model_b.entity.weight.data
        )

    def test_checkpoint_crash_resume_bitwise_with_sparse_updates(
        self, small_store, tmp_path
    ):
        epochs = 6
        reference = TransE(15, 3, dim=4, seed=0)
        ref_history = reference.fit(
            small_store, epochs=epochs, batch_size=64, seed=0
        )

        crashed = TransE(15, 3, dim=4, seed=0)
        runtime = TrainingRuntime(
            checkpointer=Checkpointer(tmp_path, keep=2),
            faults=FaultInjector(FaultPlan([Fault(step=4, kind="raise")])),
        )
        with pytest.raises(InjectedFault):
            crashed.fit(
                small_store, epochs=epochs, batch_size=64, seed=0, runtime=runtime
            )

        resumed = TransE(15, 3, dim=4, seed=0)
        history = resumed.fit(
            small_store, epochs=epochs, batch_size=64, seed=0,
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


# ---------------------------------------------------------------------- #
# tape-level wins
# ---------------------------------------------------------------------- #
class TestTapeHotLoop:
    def test_scalar_reuse_accumulates(self):
        t = Tensor(np.array(2.0), requires_grad=True)
        (t * t).backward()
        np.testing.assert_allclose(t.grad, 4.0)

    def test_lookup_composes_with_downstream_ops(self):
        w = Parameter(np.full((5, 3), 2.0))
        out = ops.relu(w[np.array([1, 1, 4])])
        out.sum().backward()
        expected = add_at_reference((5, 3), np.array([1, 1, 4]), np.ones((3, 3)))
        np.testing.assert_allclose(w.grad, expected)
