"""Unit tests of the gate-propagation memo (:mod:`repro.sta.cache`)."""

import pytest

from repro.obs.registry import disable, enable
from repro.sta.cache import PropagationCache
from repro.sta.windows import DirWindow, LineTiming

NS = 1e-9


def _timing(a_s=0.1, a_l=None, t_s=0.05, t_l=0.08):
    if a_l is None:
        a_l = a_s + 0.1
    return LineTiming(
        rise=DirWindow(a_s * NS, a_l * NS, t_s * NS, t_l * NS),
        fall=DirWindow(a_s * NS, a_l * NS, t_s * NS, t_l * NS),
    )


def _cache(max_entries=8, quantum=1e-15):
    return PropagationCache(max_entries=max_entries, quantum=quantum)


def test_round_trip_returns_equal_but_distinct_objects():
    cache = _cache()
    inputs = [_timing(), _timing(0.3, 0.4)]
    key, tag = cache.key_for("nand2", 1e-14, inputs)
    assert cache.lookup(key, tag) is None
    stored = _timing(0.5, 0.9)
    cache.store(key, tag, stored)
    hit = cache.lookup(key, tag)
    assert hit is not None
    assert hit is not stored
    assert hit.rise == stored.rise and hit.fall == stored.fall
    # Mutating the returned copy must not poison the cache.
    hit.rise.a_s = 123.0
    again = cache.lookup(key, tag)
    assert again.rise.a_s == stored.rise.a_s


def test_eviction_bound_holds():
    cache = _cache(max_entries=4)
    for i in range(10):
        key, tag = cache.key_for("inv1", 1e-14, [_timing(0.1 * (i + 1))])
        cache.store(key, tag, _timing())
    assert len(cache) == 4
    # The most recent entries survive (LRU eviction).
    key, tag = cache.key_for("inv1", 1e-14, [_timing(0.1 * 10)])
    assert cache.lookup(key, tag) is not None
    key, tag = cache.key_for("inv1", 1e-14, [_timing(0.1 * 1)])
    assert cache.lookup(key, tag) is None


def test_hit_miss_counters_published():
    registry = enable()
    try:
        before_hits = registry.counter("sta.memo.hits").value
        before_misses = registry.counter("sta.memo.misses").value
        cache = _cache()
        key, tag = cache.key_for("nor2", 2e-14, [_timing()])
        cache.lookup(key, tag)  # miss
        cache.store(key, tag, _timing())
        cache.lookup(key, tag)  # hit
        assert registry.counter("sta.memo.hits").value == before_hits + 1
        assert registry.counter("sta.memo.misses").value == before_misses + 1
    finally:
        disable()


def test_quantization_collision_is_a_miss_not_a_wrong_hit():
    # A huge quantum forces distinct windows onto the same hash key; the
    # exact tag check must turn the collision into a miss.
    cache = _cache(quantum=1.0)
    a = [_timing(0.10)]
    b = [_timing(0.11)]
    key_a, tag_a = cache.key_for("nand2", 1e-14, a)
    key_b, tag_b = cache.key_for("nand2", 1e-14, b)
    assert key_a == key_b and tag_a != tag_b
    cache.store(key_a, tag_a, _timing(1.0))
    assert cache.lookup(key_b, tag_b) is None


def test_impossible_windows_key_on_state():
    cache = _cache()
    dead = LineTiming(
        rise=DirWindow.impossible(), fall=DirWindow.impossible()
    )
    key, tag = cache.key_for("nand2", 1e-14, [dead])
    cache.store(key, tag, _timing())
    # NaN fields would defeat tag equality; the state-only key must hit.
    key2, tag2 = cache.key_for(
        "nand2",
        1e-14,
        [LineTiming(rise=DirWindow.impossible(), fall=DirWindow.impossible())],
    )
    assert key2 == key and tag2 == tag
    assert cache.lookup(key2, tag2) is not None


def test_analyzer_counters_track_real_work():
    # Work counters must mean what they say: ``sta.gates_evaluated`` is
    # the number of corner searches actually run, so memo hits leave it
    # (and ``sta.corner_calls``) untouched.
    from repro.characterize.library import CellLibrary
    from repro.circuit import load_packaged_bench
    from repro.sta.analysis import TimingAnalyzer

    registry = enable()
    try:
        circuit = load_packaged_bench("c432s")
        analyzer = TimingAnalyzer(circuit, CellLibrary.load_default())
        analyzer.analyze_per_gate()
        hits = registry.counter("sta.memo.hits").value
        misses = registry.counter("sta.memo.misses").value
        evaluated = registry.counter("sta.gates_evaluated").value
        assert hits + misses == len(circuit.gates)
        assert evaluated == misses
        assert registry.counter("sta.corner_calls").value == 2 * evaluated
        # Same inputs again: every gate hits the memo, no new work.
        analyzer.analyze_per_gate()
        assert registry.counter("sta.memo.hits").value == hits + len(
            circuit.gates
        )
        assert registry.counter("sta.memo.misses").value == misses
        assert registry.counter("sta.gates_evaluated").value == evaluated
        assert registry.counter("sta.corner_calls").value == 2 * evaluated
    finally:
        disable()


def test_atpg_base_refinement_fills_the_memo():
    # CrosstalkAtpg's sign-off pass is one compiled forward pass, so the
    # memo is still empty when the base ITR refinement every search
    # starts from runs: that walk looks each gate up once and fills the
    # memo, and a second refinement finds each gate in it.
    from repro.atpg import CrosstalkAtpg
    from repro.characterize.library import CellLibrary
    from repro.circuit import load_packaged_bench

    registry = enable()
    try:
        circuit = load_packaged_bench("c432s")
        atpg = CrosstalkAtpg(circuit, CellLibrary.load_default())
        assert registry.counter("sta.compile.passes").value == 1
        assert registry.counter("sta.memo.hits").value == 0
        assert registry.counter("sta.memo.misses").value == 0
        atpg.engine.refine(atpg.engine.initial_values())
        hits = registry.counter("sta.memo.hits").value
        misses = registry.counter("sta.memo.misses").value
        assert misses > 0 and hits + misses == len(circuit.gates)
        atpg.engine.refine(atpg.engine.initial_values())
        assert registry.counter("sta.memo.misses").value == misses
        assert registry.counter("sta.memo.hits").value - hits == len(
            circuit.gates
        )
    finally:
        disable()


def test_constructor_validation():
    with pytest.raises(ValueError):
        PropagationCache(max_entries=0, quantum=1e-15)
    with pytest.raises(ValueError):
        PropagationCache(max_entries=4, quantum=0.0)


def test_clear_resets_entries():
    cache = _cache()
    key, tag = cache.key_for("inv1", 1e-14, [_timing()])
    cache.store(key, tag, _timing())
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.lookup(key, tag) is None
