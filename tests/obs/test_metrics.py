"""Metrics instruments, registry snapshots, and cross-shard merging."""

import itertools

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    active_registry,
    use_registry,
)


# -- instruments -----------------------------------------------------------


def test_counter_accumulates():
    c = Counter("rows")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_rejects_decrement():
    with pytest.raises(ValueError, match="cannot decrease"):
        Counter("rows").inc(-1)


def test_gauge_last_write_wins():
    g = Gauge("rate")
    g.set(3.0)
    g.set(1.5)
    assert g.value == 1.5


def test_histogram_summary_stats():
    h = Histogram("wall", bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 100.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(105.0)
    assert h.min == 0.5
    assert h.max == 100.0
    assert h.buckets == [1, 1, 1, 1]  # one per bucket incl. overflow
    assert h.mean == pytest.approx(105.0 / 4)


def test_histogram_quantile_bucket_edges():
    h = Histogram("wall", bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 0.5, 1.5, 3.0):
        h.observe(v)
    assert h.quantile(0.5) == 1.0  # 2nd of 4 obs sits in the <=1 bucket
    assert h.quantile(1.0) == 3.0  # top lands below the overflow bucket


def test_histogram_empty_quantile_nan():
    import math

    assert math.isnan(Histogram("wall").quantile(0.5))


def test_histogram_requires_sorted_bounds():
    with pytest.raises(ValueError, match="sorted"):
        Histogram("wall", bounds=(2.0, 1.0))


#: Values whose repeated sums round differently at every step, one of
#: them past the last bucket edge.
REPEATED = (0.1, 1e-3 / 3, 0.0123456789, 7.25, 5e3)


@pytest.mark.parametrize("n", [1, 3, 4096])
def test_observe_many_equals_repeated_observe(n):
    """``observe_many(v, n)`` leaves the snapshot ``n`` ``observe(v)``
    calls leave: ``sum`` bit for bit, and buckets, count, min and
    max."""
    many, single = Histogram("wall"), Histogram("wall")
    single.observe(0.3)
    many.observe(0.3)
    for value in REPEATED:
        many.observe_many(value, n)
        for _ in range(n):
            single.observe(value)
        assert many.to_dict() == single.to_dict()
        assert many.sum.hex() == single.sum.hex()


def test_observe_many_zero_times_leaves_the_histogram_untouched():
    empty = Histogram("wall")
    empty.observe_many(2.5, 0)
    assert empty.to_dict() == Histogram("wall").to_dict()
    h = Histogram("wall")
    h.observe(0.5)
    before = h.to_dict()
    h.observe_many(100.0, 0)
    assert h.to_dict() == before
    with pytest.raises(ValueError, match="times"):
        h.observe_many(1.0, -1)


def test_observe_many_on_the_null_registry_records_nothing():
    NULL_REGISTRY.histogram("campaign.row_wall_s").observe_many(0.01, 64)
    assert NULL_REGISTRY.to_dict() == {}


def test_observe_many_merges_as_repeated_observe():
    def shard(observe):
        reg = MetricsRegistry()
        observe(reg.histogram("campaign.row_wall_s"))
        return reg.to_dict()

    def repeated(h):
        for _ in range(7):
            h.observe(0.0123456789)

    other = _shard_registry(2).to_dict()
    assert MetricsRegistry.merge([
        other, shard(lambda h: h.observe_many(0.0123456789, 7)),
    ]).to_dict() == MetricsRegistry.merge([other, shard(repeated)]).to_dict()


# -- registry --------------------------------------------------------------


def test_registry_interns_by_name():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert len(reg) == 1


def test_registry_rejects_kind_collision():
    reg = MetricsRegistry()
    reg.counter("a")
    with pytest.raises(ValueError, match="is a counter"):
        reg.histogram("a")


def test_snapshot_is_plain_and_sorted():
    reg = MetricsRegistry()
    reg.counter("z").inc(2)
    reg.gauge("a").set(1.0)
    snap = reg.to_dict()
    assert list(snap) == ["a", "z"]
    assert snap["z"] == {"kind": "counter", "value": 2}
    assert snap["a"] == {"kind": "gauge", "value": 1.0}


def _shard_registry(seed):
    """A registry as a shard worker would fill it; values are exact
    binary fractions so float sums are order-independent."""
    reg = MetricsRegistry()
    reg.counter("campaign.rows_measured").inc(seed + 1)
    reg.counter("campaign.retries").inc(seed % 3)
    reg.gauge("parallel.shard.rows_per_s").set(10.0 * (seed + 1))
    h = reg.histogram("campaign.row_wall_s")
    for k in range(seed + 2):
        h.observe(0.25 * (k + 1) * (seed + 1))
    return reg


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_merge_associative_across_shard_orders(order):
    """Folding shard snapshots in any order yields the same merged
    snapshot — the supervisor's shard-id ordering is a convention, not
    a correctness requirement."""
    shards = [_shard_registry(k).to_dict() for k in range(3)]
    reference = MetricsRegistry.merge(shards).to_dict()
    permuted = MetricsRegistry.merge([shards[i] for i in order]).to_dict()
    assert permuted == reference


def test_merge_pairwise_matches_flat_merge():
    shards = [_shard_registry(k).to_dict() for k in range(3)]
    flat = MetricsRegistry.merge(shards).to_dict()
    left = MetricsRegistry.merge(shards[:2])
    left.merge_snapshot(shards[2])
    assert left.to_dict() == flat


def test_merge_sums_counters_and_buckets():
    shards = [_shard_registry(k).to_dict() for k in range(3)]
    merged = MetricsRegistry.merge(shards)
    assert merged.counter("campaign.rows_measured").value == 1 + 2 + 3
    hist = merged.histogram("campaign.row_wall_s")
    assert hist.count == 2 + 3 + 4
    assert hist.min == 0.25
    # Gauges keep the maximum (the only order-free level reduction).
    assert merged.gauge("parallel.shard.rows_per_s").value == 30.0


def test_merge_rejects_mismatched_bounds():
    a = MetricsRegistry()
    a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
    b = MetricsRegistry()
    b.histogram("h", bounds=(1.0, 4.0)).observe(0.5)
    with pytest.raises(ValueError, match="bounds"):
        a.merge_snapshot(b.to_dict())


def test_merge_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        MetricsRegistry.merge([{"x": {"kind": "mystery", "value": 1}}])


# -- null default ----------------------------------------------------------


def test_default_registry_is_null_and_inert():
    reg = active_registry()
    assert isinstance(reg, NullRegistry)
    reg.counter("anything").inc(10)
    reg.gauge("anything").set(1.0)
    reg.histogram("anything").observe(1.0)
    assert reg.to_dict() == {}


def test_null_instruments_are_shared_singletons():
    assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
    assert NULL_REGISTRY.histogram("a") is NULL_REGISTRY.histogram("b")


def test_use_registry_scopes_routing():
    reg = MetricsRegistry()
    assert isinstance(active_registry(), NullRegistry)
    with use_registry(reg):
        assert active_registry() is reg
        active_registry().counter("seen").inc()
    assert isinstance(active_registry(), NullRegistry)
    assert reg.counter("seen").value == 1


def test_use_registry_none_is_passthrough():
    outer = MetricsRegistry()
    with use_registry(outer):
        with use_registry(None):
            assert active_registry() is outer


def test_use_registry_restores_on_error():
    reg = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with use_registry(reg):
            raise RuntimeError("boom")
    assert isinstance(active_registry(), NullRegistry)
