"""Tests for the sensor node model."""

import pytest

from repro.network import SensorNode


class TestSensorNode:
    def test_defaults_include_id_and_pos(self):
        node = SensorNode(node_id=3, position=(1.0, 2.0))
        assert node.get_attribute("id") == 3
        assert node.get_attribute("pos") == (1.0, 2.0)
        assert node.alive

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            SensorNode(node_id=-1, position=(0, 0))

    def test_set_static_overwrites_and_shows_in_attributes(self):
        node = SensorNode(node_id=1, position=(0, 0), static_attributes={"u": 10})
        node.set_static("u", 99)
        assert node.get_attribute("u") == 99
        assert node.static_attributes == {"u": 99, "id": 1, "pos": (0, 0)}

    def test_missing_attribute_raises(self):
        node = SensorNode(node_id=1, position=(0, 0))
        with pytest.raises(KeyError):
            node.get_attribute("nope")
        assert "nope" not in node.static_attributes

    def test_static_attribute_roundtrip(self):
        node = SensorNode(node_id=1, position=(0, 0))
        assert "temp" not in node.static_attributes
        node.set_static("temp", 21.5)
        assert "temp" in node.static_attributes
        assert node.get_attribute("temp") == 21.5

    def test_fail_and_recover(self):
        node = SensorNode(node_id=1, position=(0, 0))
        node.fail()
        assert not node.alive
        node.recover()
        assert node.alive

    def test_distance(self):
        a = SensorNode(node_id=1, position=(0.0, 0.0))
        b = SensorNode(node_id=2, position=(3.0, 4.0))
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_move_updates_pos_attribute(self):
        node = SensorNode(node_id=1, position=(0.0, 0.0))
        node.move_to((5.0, 5.0))
        assert node.position == (5.0, 5.0)
        assert node.get_attribute("pos") == (5.0, 5.0)
