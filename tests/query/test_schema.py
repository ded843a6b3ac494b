"""Tests for the sensor relation schema."""

import pytest

from repro.query import SENSOR_SCHEMA, Attribute, RelationSchema


class TestAttribute:
    def test_validation(self):
        with pytest.raises(ValueError):
            Attribute(name="", static=True)
        with pytest.raises(ValueError):
            Attribute(name="x", static=True, kind="blob")


class TestRelationSchema:
    def test_sensor_schema_has_28_attributes(self):
        assert len(SENSOR_SCHEMA) == 28

    def test_static_dynamic_split_matches_paper(self):
        # 18 dynamic readings, 10 static attributes (Appendix B).
        assert sum(not a.static for a in SENSOR_SCHEMA.attributes) == 18
        assert sum(a.static for a in SENSOR_SCHEMA.attributes) == 10

    def test_expected_attributes_present(self):
        for name in ("id", "x", "y", "cid", "rid", "pos", "u", "v", "humidity"):
            assert SENSOR_SCHEMA.has_attribute(name)

    def test_static_flags(self):
        assert SENSOR_SCHEMA.is_static("id")
        assert SENSOR_SCHEMA.is_static("pos")
        assert not SENSOR_SCHEMA.is_static("u")
        assert not SENSOR_SCHEMA.is_static("temperature")

    def test_unknown_attribute(self):
        with pytest.raises(KeyError):
            SENSOR_SCHEMA.attribute("nonexistent")
        assert not SENSOR_SCHEMA.has_attribute("nonexistent")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RelationSchema(
                name="bad",
                attributes=[
                    Attribute("a", static=True),
                    Attribute("a", static=False),
                ],
            )

    def test_attribute_names_order(self):
        names = [attribute.name for attribute in SENSOR_SCHEMA.attributes]
        assert len(names) == 28
        assert names[0] == "temperature"
