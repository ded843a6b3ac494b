"""Sensor relation schema.

Appendix B: sensor relations are pre-defined with a 28-attribute schema.  18
attributes carry physical measurements or soft readings (temperature, light,
humidity, battery, RFID, ADC values, free memory, local time, ...) and the
remainder are static attributes that can be assigned from the base station
(role, room, 3-D location, grid coordinates).  The static/dynamic split is
what enables pre-evaluation of static clauses and content routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Attribute:
    """One column of a sensor relation."""

    name: str
    static: bool
    kind: str = "int16"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.kind not in {"int16", "float", "point", "string"}:
            raise ValueError(f"unsupported attribute kind {self.kind!r}")


@dataclass
class RelationSchema:
    """An ordered collection of attributes forming a sensor relation schema."""

    name: str
    attributes: List[Attribute] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise ValueError("duplicate attribute names in schema")
        self._by_name: Dict[str, Attribute] = {a.name: a for a in self.attributes}

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"schema {self.name!r} has no attribute {name!r}") from None

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name

    def is_static(self, name: str) -> bool:
        return self.attribute(name).static

    def __len__(self) -> int:
        return len(self.attributes)

def _dynamic(name: str, kind: str = "int16", description: str = "") -> Attribute:
    return Attribute(name=name, static=False, kind=kind, description=description)


def _static(name: str, kind: str = "int16", description: str = "") -> Attribute:
    return Attribute(name=name, static=True, kind=kind, description=description)


#: The 28-attribute sensor schema of Appendix B.  18 dynamic readings plus 10
#: static identifiers / user-assigned attributes.
SENSOR_SCHEMA = RelationSchema(
    name="sensors",
    attributes=[
        # --- dynamic: physical sensor measurements and soft readings (18) ---
        _dynamic("temperature", description="ambient temperature"),
        _dynamic("light", description="photo sensor"),
        _dynamic("humidity", description="relative humidity"),
        _dynamic("battery", description="battery level"),
        _dynamic("rfid", description="RFID tag currently detected"),
        _dynamic("adc0"), _dynamic("adc1"), _dynamic("adc2"),
        _dynamic("adc3"), _dynamic("adc4"), _dynamic("adc5"),
        _dynamic("memfree", description="free RAM at the mote"),
        _dynamic("localtime", description="local clock"),
        _dynamic("voltage", description="supply voltage"),
        _dynamic("accel_x", description="accelerometer x"),
        _dynamic("accel_y", description="accelerometer y"),
        _dynamic("u", description="synthetic uniform value used by Queries 0-2"),
        _dynamic("v", description="humidity trace value used by Query 3"),
        # --- static: identifiers and user-assigned attributes (10) ---
        _static("id", description="unique node identifier"),
        _static("x", description="synthetic exponential-spatial attribute"),
        _static("y", description="synthetic uniform attribute"),
        _static("cid", description="column number in a 4x4 grid"),
        _static("rid", description="row number in a 4x4 grid"),
        _static("pos", kind="point", description="real-life position"),
        _static("role", kind="string", description="user-assigned role"),
        _static("room", description="room number"),
        _static("floor", description="building floor"),
        _static("zone", description="administrative zone"),
    ],
)
