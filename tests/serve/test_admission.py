"""Bounded admission: fair share, round-robin service, shedding."""

import pytest

from repro.serve.admission import AdmissionQueue
from repro.serve.errors import Overloaded


class TestBasics:
    def test_fifo_within_one_tenant(self):
        q = AdmissionQueue(8)
        for i in range(4):
            q.put(i, "a")
        assert [q.get(0) for _ in range(4)] == [0, 1, 2, 3]
        assert q.get(0) is None

    def test_depth_and_load(self):
        q = AdmissionQueue(4)
        q.put("x", "a")
        q.put("y", "b")
        assert q.depth == 2
        assert q.depth_for("a") == 1
        assert q.depth_for("c") == 0
        assert set(q.tenants()) == {"a", "b"}

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class TestFairness:
    def test_round_robin_across_tenants(self):
        q = AdmissionQueue(16)
        for i in range(3):
            q.put(f"a{i}", "a")
        for i in range(3):
            q.put(f"b{i}", "b")
        q.put("c0", "c")
        got = [q.get(0) for _ in range(7)]
        # tenant c's single request does not wait behind a's flood
        assert got.index("c0") < got.index("a2")
        assert got.index("b0") < got.index("a2")
        # per-tenant order is preserved
        assert got.index("a0") < got.index("a1") < got.index("a2")

    def test_full_queue_sheds_tenant_over_quota(self):
        q = AdmissionQueue(4)
        for i in range(4):
            q.put(i, "hog")  # fills the queue
        with pytest.raises(Overloaded) as exc:
            q.put(99, "hog")
        assert exc.value.reason == "queue_full"  # only tenant -> queue_full
        assert exc.value.tenant == "hog"
        assert q.shed_total == 1

    def test_quiet_tenant_admitted_past_capacity(self):
        q = AdmissionQueue(4)
        for i in range(4):
            q.put(i, "hog")
        # a quiet tenant is below its fair share (4 // 2 = 2): admitted
        q.put("first", "quiet")
        q.put("second", "quiet")
        with pytest.raises(Overloaded) as exc:
            q.put("third", "quiet")
        assert exc.value.reason == "tenant_quota"
        assert q.depth == 6  # bounded overflow, < 2 * capacity

    def test_hard_tenant_cap_always_enforced(self):
        q = AdmissionQueue(100)
        q.put(1, "t", max_queue=2)
        q.put(2, "t", max_queue=2)
        with pytest.raises(Overloaded) as exc:
            q.put(3, "t", max_queue=2)
        assert exc.value.reason == "tenant_limit"

    def test_admitted_counter(self):
        q = AdmissionQueue(4)
        q.put(1, "a")
        q.put(2, "b")
        assert q.admitted_total == 2


class TestLifecycle:
    def test_get_timeout_returns_none(self):
        q = AdmissionQueue(4)
        assert q.get(timeout=0.01) is None

    def test_close_wakes_getters(self):
        q = AdmissionQueue(4)
        q.close()
        assert q.get(timeout=5.0) is None  # returns immediately, no block

    def test_drain_empties_everything(self):
        q = AdmissionQueue(8)
        q.put(1, "a")
        q.put(2, "b")
        q.put(3, "a")
        items = q.drain()
        assert sorted(items) == [1, 2, 3]
        assert q.depth == 0
        assert q.get(0) is None
