"""The tracer on toy classes: wrapping, restoring and self-time accounting."""

import time

from bench.trace import NAME, PARENT, Tracer


class Base:
    def work(self):
        return "base"

    def outer(self):
        time.sleep(0.002)
        return self.inner()

    def inner(self):
        time.sleep(0.002)
        return 1

    def helper(self, x):
        return x + 1


class Child(Base):
    def work(self):
        return "child+" + super().work()


class Grandchild(Child):
    pass


def test_wrap_records_parents_and_restore_puts_everything_back():
    before = {cls: dict(vars(cls)) for cls in (Base, Child, Grandchild)}
    tracer = Tracer()
    tracer.wrap(Base, "outer", "toy.outer")
    tracer.wrap(Base, "inner", "toy.inner")
    tracer.wrap(Base, "helper", "toy.helper", count_only=True)
    tracer.wrap(Grandchild, "inner", "toy.inner")      # inherited, not own
    assert Base().outer() == 1
    assert Grandchild().inner() == 1
    assert Base().helper(1) == 2 and Child().helper(2) == 3
    names = [span[NAME] for span in tracer.spans]
    assert names == ["toy.outer", "toy.inner", "toy.inner"]
    assert tracer.spans[1][PARENT] == 0 and tracer.spans[2][PARENT] == -1
    assert tracer.counts["toy.helper"] == 2
    tracer.restore()
    assert {cls: dict(vars(cls)) for cls in (Base, Child, Grandchild)} == before


def test_self_time_is_span_minus_children_and_sums_to_the_root():
    tracer = Tracer()
    tracer.wrap(Base, "outer", "toy.outer")
    tracer.wrap(Base, "inner", "toy.inner")
    try:
        with tracer.span("root"):
            Base().outer()
            Base().inner()
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert totals["toy.inner"]["calls"] == 2
    assert totals["toy.outer"]["self_s"] < totals["toy.outer"]["busy_s"]
    assert totals["toy.outer"]["self_s"] >= 0.0015
    self_sum = sum(entry["self_s"] for entry in totals.values())
    assert abs(self_sum - totals["root"]["busy_s"]) < 1e-9
    assert tracer.calls_within("toy.inner", ("toy.outer",)) == 1
    assert tracer.calls_within("toy.inner", ("root",)) == 2


def test_wrap_overrides_opens_one_span_across_super_calls():
    tracer = Tracer()
    tracer.wrap_overrides(Base, "work", "toy.work")
    try:
        assert Child().work() == "child+base"
        assert Grandchild().work() == "child+base"
        assert Base().work() == "base"
    finally:
        tracer.restore()
    assert [span[NAME] for span in tracer.spans] == ["toy.work"] * 3
    assert "__wrapped__" not in vars(Child.work) and "__wrapped__" not in vars(Base.work)
