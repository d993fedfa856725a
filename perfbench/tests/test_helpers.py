"""Tiny-size tests for the benchmark's helpers.

Run from the repo root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
import threading
import types

import pytest

from measure import (
    FailureLedger,
    layer_totals,
    nearest_rank,
    percentile_with_tail,
    samples_needed,
    self_times,
    tail_count,
)
from spans import Tracer, measure_rows


def test_nearest_rank_picks_a_sample():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(samples, 0.5) == 3.0
    assert nearest_rank(samples, 1.0) == 5.0
    assert nearest_rank(samples, 0.01) == 1.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_p99_needs_ten_samples_beyond_it():
    assert samples_needed(0.99) == 1000
    assert samples_needed(0.5) == 20
    thousand = [float(i) for i in range(1000)]
    assert tail_count(thousand, 0.99) == 10
    assert percentile_with_tail(thousand, 0.99) == 989.0
    with pytest.raises(ValueError, match="only 9 beyond"):
        percentile_with_tail(thousand[:999], 0.99)


def test_failure_ledger_counts_against_attempts():
    ledger = FailureLedger()
    for _ in range(8):
        ledger.attempt()
    ledger.fail("timeout")
    ledger.fail("http_500")
    ledger.fail("timeout")
    assert ledger.attempted == 8
    assert ledger.failed == 3
    assert ledger.failures == {"timeout": 2, "http_500": 1}
    assert FailureLedger().failed == 0


def test_self_time_subtracts_children_once():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "child", 1.0, 4.0, 0),
        (2, "child", 3.0, 6.0, 0),        # overlaps its sibling
        (3, "grandchild", 1.5, 2.5, 1),   # does not count against root
        (4, "late", 9.0, 12.0, 0),        # outlives its parent: clipped
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["total_s"] == pytest.approx(6.0)
    assert totals["child"]["self_s"] == pytest.approx(2.0 + 3.0)


def test_tracer_wraps_where_callers_bind_and_restores():
    module = types.ModuleType("perfbench_fake_layer")

    def leaf():
        return "leaf"

    def outer():
        return module.leaf() + "!"

    module.leaf, module.outer = leaf, outer
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.patch(module.__name__, "outer", "layer.outer",
                     request_of=lambda: "req-1")
        tracer.patch(module.__name__, "leaf", "layer.leaf")
        thread = threading.Thread(target=module.leaf)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert module.outer() == "leaf!"
        tracer.restore()
        assert module.leaf is leaf and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    rows = {row[1]: row for row in tracer.export() if row[5] != "-"}
    assert set(rows) == {"layer.outer", "layer.leaf"}
    assert rows["layer.leaf"][4] == rows["layer.outer"][0]
    assert rows["layer.leaf"][5] == "req-1"
    orphan = [row for row in tracer.export() if row[5] == "-"]
    assert len(orphan) == 1 and orphan[0][4] is None
    tuples = measure_rows(tracer.export())
    assert sorted(layer_totals(tuples)) == ["layer.leaf", "layer.outer"]
