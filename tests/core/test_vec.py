"""Bit-identity of coalesced RNG draws.

``jittered_sum`` draws several jittered costs in one pass; it is only
allowed to exist because it is indistinguishable from separate
``jittered`` calls: same values, same RNG stream positions.
"""

from repro.sim.rng import SeedSequenceFactory, jittered, jittered_sum


COSTS = ((1200, 0.06), (5400, 0.08), (800, 0.10), (2500, 0.05))


def test_jittered_sum_matches_sequential_jittered():
    """Same values AND same stream state as separate jittered() calls."""
    a = SeedSequenceFactory(42).stream("costs", "normal")
    b = SeedSequenceFactory(42).stream("costs", "normal")
    for _ in range(700):  # cross several buffer refills
        coalesced = jittered_sum(a, COSTS)
        sequential = sum(jittered(b, mean, sigma) for mean, sigma in COSTS)
        assert coalesced == sequential
    assert a.state_dict() == b.state_dict()


def test_jittered_sum_raw_generator_fallback():
    a = SeedSequenceFactory(7).generator("raw")
    b = SeedSequenceFactory(7).generator("raw")
    total = jittered_sum(a, COSTS)
    assert total == sum(jittered(b, mean, sigma) for mean, sigma in COSTS)
    assert isinstance(total, int) and total > 0


def test_jittered_sum_clamps_each_component():
    """Each component clamps to >= 1 individually, like jittered does."""
    stream = SeedSequenceFactory(1).stream("tiny", "normal")
    total = jittered_sum(stream, ((1, 5.0),) * 100)
    assert total >= 100  # 100 components, each at least 1
