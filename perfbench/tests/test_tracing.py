"""Span bookkeeping: self time, request ids, patching and restore."""

import asyncio
import sys
import types

import pytest

from perfbench.tracing import Tracer, untraced


class ScriptedClock:
    """``time.perf_counter`` stand-in returning the given instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and D [6, 7].
    tracer = Tracer(clock=ScriptedClock(0, 1, 2, 4, 5, 6, 7, 10))
    with tracer.span("A"):
        with tracer.span("B"):
            with tracer.span("C"):
                pass
        with tracer.span("D"):
            pass
    assert tracer.self_s("C") == 2
    assert tracer.self_s("B") == 4 - 2
    assert tracer.self_s("D") == 1
    assert tracer.self_s("A") == 10 - 4 - 1
    assert tracer.total_s("A") == 10
    assert tracer.root_s == 10
    # Self times partition the root span's duration.
    assert sum(t.self_s for t in tracer.totals.values()) == tracer.root_s
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["C"][1] == by_name["B"][0]
    assert by_name["B"][1] == by_name["A"][0]
    assert by_name["A"][1] is None


def test_same_name_spans_accumulate():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("leaf"):
            pass
    assert tracer.calls("leaf") == 3
    assert tracer.calls("missing") == 0 and tracer.self_s("missing") == 0.0


def test_span_cap_keeps_totals():
    tracer = Tracer(max_spans=2)
    for _ in range(5):
        with tracer.span("x"):
            pass
    assert len(tracer.spans) == 2 and tracer.dropped == 3
    assert tracer.calls("x") == 5


def test_request_id_follows_to_thread_and_credits_parent():
    tracer = Tracer()

    def work():
        with tracer.span("work") as frame:
            return frame.request_id

    async def handler():
        with tracer.span("request", request_id="r1"):
            return await asyncio.to_thread(work)

    assert asyncio.run(handler()) == "r1"
    duration, covered = tracer.requests["r1"]
    assert covered == pytest.approx(tracer.total_s("work"))
    assert 0 < covered <= duration
    assert {span[5] for span in tracer.spans} == {"r1"}


@pytest.fixture
def fake_modules(monkeypatch):
    """A ``repro.*`` module defining ``f`` and another importing it by name."""
    home = types.ModuleType("repro._perfbench_home")

    def f(x):
        return [x, x]

    home.f = f
    alias = types.ModuleType("repro._perfbench_alias")
    alias.g = f
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    return home, alias, f


def test_patch_function_replaces_every_alias_and_restores(fake_modules):
    home, alias, original = fake_modules
    seen = []
    tracer = Tracer()
    tracer.patch_function(
        home.__name__, "f", "fake.f",
        on_result=lambda t, args, kwargs, result: seen.append(result),
    )
    assert home.f is not original and alias.g is home.f
    assert alias.g(3) == [3, 3]
    assert tracer.calls("fake.f") == 1 and seen == [[3, 3]]
    with untraced():
        home.f(4)
    assert tracer.calls("fake.f") == 1
    tracer.restore()
    assert home.f is original and alias.g is original


def test_consume_times_a_generator_inside_its_span():
    tracer = Tracer()

    def rule(n):
        for i in range(n):
            with tracer.span("child"):
                yield i

    wrapped = tracer.wrap(rule, "rule", consume=True)
    assert wrapped(3) == [0, 1, 2]
    assert tracer.calls("child") == 3
    # The children ran while the rule's span was open.
    assert {span[1] for span in tracer.spans if span[2] == "child"} == {
        span[0] for span in tracer.spans if span[2] == "rule"
    }


def test_patch_item_restores_mapping():
    registry = {"a": 1}
    tracer = Tracer()
    tracer.patch_item(registry, "a", 2)
    assert registry["a"] == 2
    tracer.restore()
    assert registry == {"a": 1}
