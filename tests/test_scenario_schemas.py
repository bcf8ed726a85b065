"""Parametrized structural checks: each scenario's graph matches its schema."""

import pytest

from repro.data import SCENARIO_SCHEMAS
from repro.data.synthetic import generate_dataset
from repro.kg.hin import NetworkSchema


@pytest.fixture(scope="module", params=sorted(SCENARIO_SCHEMAS))
def world(request):
    name = request.param
    schema = SCENARIO_SCHEMAS[name]
    data = generate_dataset(schema, num_users=12, num_items=24, seed=3)
    return schema, data


class TestSchemaConformance:
    def test_type_names_match_schema(self, world):
        schema, data = world
        expected = [schema.item_type] + [a.name for a in schema.attributes]
        assert data.kg.type_names == expected

    def test_relation_labels_cover_schema(self, world):
        schema, data = world
        for spec in schema.attributes:
            assert spec.relation in data.kg.relation_labels
        for __, rel, __dst, __n in schema.attribute_links:
            assert rel in data.kg.relation_labels

    def test_entity_counts_match_specs(self, world):
        schema, data = world
        kg = data.kg
        for type_id, spec in enumerate(schema.attributes, start=1):
            assert kg.entities_of_type(type_id).size == spec.count

    def test_links_per_item_within_bounds(self, world):
        schema, data = world
        kg = data.kg
        for item in range(data.num_items):
            idx = kg.store.outgoing(item)
            rels = kg.store.relations[idx]
            for spec in schema.attributes:
                rel_id = kg.relation_id(spec.relation)
                count = int((rels == rel_id).sum())
                lo, hi = spec.per_item
                assert lo <= count <= hi, (schema.scenario, spec.name)

    def test_item_facts_point_to_declared_type(self, world):
        schema, data = world
        kg = data.kg
        for spec in schema.attributes:
            rel_id = kg.relation_id(spec.relation)
            type_id = kg.type_names.index(spec.name)
            idx = kg.store.with_relation(rel_id)
            heads = kg.store.heads[idx]
            tails = kg.store.tails[idx]
            item_heads = heads < data.num_items
            assert (kg.entity_types[tails[item_heads]] == type_id).all()

    def test_network_schema_validates(self, world):
        __, data = world
        schema = NetworkSchema(data.kg)
        # Every schema-enumerated item-item meta-path stays on the schema.
        for path in schema.enumerate_metapaths(0, 0, max_length=2, max_paths=10):
            steps = zip(path.node_types[:-1], path.relation_types, path.node_types[1:])
            assert all((r, b) in schema.steps_from(a) for a, r, b in steps)

    def test_text_dim_respected(self, world):
        schema, data = world
        if schema.text_dim > 0:
            assert data.item_text is not None
            assert data.item_text.shape == (data.num_items, schema.text_dim)
        else:
            assert data.item_text is None
