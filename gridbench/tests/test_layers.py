import functools

import pytest

from layers import OTHER, SpanClock, callback_module, classify, code_key, layer_of_module


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_coverage():
    clock = FakeClock()
    spans = SpanClock(clock)
    spans.enter("sim.run", "sim")            # t=0
    clock.now = 10
    spans.enter("event", "guest")            # t=10
    clock.now = 15
    spans.enter("hypervisor.send_ipi", "hypervisor")  # t=15
    clock.now = 18
    assert spans.exit() == 3                 # ipi: 15..18
    clock.now = 30
    assert spans.exit() == 20                # event: 10..30
    clock.now = 40
    spans.enter("event", "guest")            # t=40
    clock.now = 45
    spans.exit()                             # event: 40..45
    clock.now = 50
    assert spans.exit() == 50                # run: 0..50
    assert spans.self_ns["hypervisor"] == 3
    assert spans.self_ns["guest"] == (20 - 3) + 5
    assert spans.self_ns["sim"] == 50 - 20 - 5
    # Self times partition the root span exactly.
    assert sum(spans.self_ns.values()) == 50
    assert spans.calls("event") == 2
    assert spans.seconds("event") == pytest.approx(25e-9)


def test_only_coarse_spans_are_kept_individually():
    clock = FakeClock()
    spans = SpanClock(clock)
    spans.enter("cell", "experiments")
    spans.enter("event", "guest")
    spans.enter("sim.run", "sim")
    spans.exit()
    spans.exit()
    spans.exit()
    names = [(r[0], r[4]) for r in spans.records]
    # sim.run's parent is the enclosing *recorded* span, the cell.
    assert names == [("cell", -1), ("sim.run", 0)]


def test_layer_of_module():
    assert layer_of_module("repro.guest.kernel") == "guest"
    assert layer_of_module("repro.hypervisor.schedulers.credit") == "hypervisor"
    assert layer_of_module("repro.metrics.collectors") == OTHER
    assert layer_of_module("repro") == OTHER
    assert layer_of_module("builtins") == OTHER
    assert layer_of_module(None) == OTHER


def test_classify_bound_methods_and_partials():
    from repro.guest.kernel import GuestKernel
    from repro.hypervisor.machine import Machine

    machine = Machine()
    assert classify(machine.slice_expired) == "hypervisor"
    # Inherited or not, a method belongs to the module that defines it.
    assert classify(Machine.slice_expired) == "hypervisor"
    assert classify(functools.partial(machine.slice_expired, None)) == "hypervisor"
    assert classify(functools.partial(functools.partial(GuestKernel._tick), None)) == "guest"
    assert classify(print) == OTHER
    assert classify([].append) == OTHER


def test_classify_generator_resumes_by_behaviour_module():
    from repro.workloads.synthetic import cpu_hog

    gen = cpu_hog(1000)
    assert callback_module(gen) == "repro.workloads.synthetic"
    assert classify(gen) == "workloads"
    local = (x for x in ())
    assert classify(local) == OTHER  # defined here, not in a layer


def test_code_key_is_shared_by_closures_of_one_def():
    def make(n):
        return lambda: n

    a, b = make(1), make(2)
    assert a is not b
    assert code_key(a) is code_key(b)
    assert code_key(functools.partial(a)) is code_key(a)
