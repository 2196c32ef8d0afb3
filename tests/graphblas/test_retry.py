"""The one retry loop (``repro.graphblas.retry``): schedule, loop,
the exhausted mark that keeps nested loops from multiplying, its
governed form, and the layering rule that put it in the core."""

import ast
import pathlib
import re

import pytest

import repro.graphblas
from repro.graphblas import governor, retry
from repro.graphblas.errors import InvalidValue, OutOfMemory
from repro.graphblas.retry import RetryPolicy


def no_sleep(d):
    pass


def delays(policy, n):
    """The next ``n`` delays, in attempt order (advances the RNG)."""
    return [policy.delay(k) for k in range(1, n + 1)]


class TestBackoff:
    def test_raw_is_capped_exponential(self):
        b = RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0)
        assert b.raw(1) == pytest.approx(0.01)
        assert b.raw(2) == pytest.approx(0.02)
        assert b.raw(3) == pytest.approx(0.04)
        assert b.raw(4) == pytest.approx(0.05)  # capped
        assert b.raw(10) == pytest.approx(0.05)

    def test_zero_jitter_is_deterministic_ladder(self):
        b = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=0.0)
        assert delays(b, 3) == [b.raw(1), b.raw(2), b.raw(3)]
        assert b._rng is None  # no jitter, no RNG

    def test_jitter_bounds(self):
        b = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=1.0, seed=3)
        for k in range(1, 8):
            d = b.delay(k)
            assert 0.0 <= d <= b.raw(k)
        half = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=0.5, seed=3)
        for k in range(1, 8):
            d = half.delay(k)
            assert half.raw(k) * 0.5 <= d <= half.raw(k)

    def test_seeded_replay(self):
        a = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=1.0, seed=42)
        b = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=1.0, seed=42)
        assert delays(a, 6) == delays(b, 6)
        c = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=1.0, seed=43)
        assert delays(a, 6) != delays(c, 6)
        # another layer's error classes, same schedule and seed
        d = c.retrying(OSError)
        c.reset()
        assert d.transient == (OSError,) and delays(d, 6) == delays(c, 6)

    def test_reset_rewinds_the_stream(self):
        b = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=1.0, seed=9)
        first = delays(b, 4)
        b.reset()
        assert delays(b, 4) == first

    def test_validation(self):
        with pytest.raises(InvalidValue):
            RetryPolicy(attempts=0)
        with pytest.raises(InvalidValue):
            RetryPolicy(base_delay=-1)
        with pytest.raises(InvalidValue):
            RetryPolicy(max_delay=-1)
        with pytest.raises(InvalidValue):
            RetryPolicy(jitter=1.5)
        with pytest.raises(InvalidValue):
            RetryPolicy().raw(0)


class TestRetryCall:
    def test_success_needs_no_backoff(self):
        calls = []
        policy = RetryPolicy(3, jitter=1.0, transient=(ValueError,))
        out = policy.call(lambda: calls.append(1) or "ok", sleep=no_sleep)
        assert out == "ok" and len(calls) == 1
        assert policy._rng is None  # a fault-free call builds no RNG

    def test_transient_retried_then_succeeds(self):
        state = {"n": 0}
        slept = []

        def flaky():
            state["n"] += 1
            if state["n"] < 3:
                raise ValueError("transient")
            return state["n"]

        policy = RetryPolicy(5, base_delay=0.01, jitter=0.0,
                             transient=(ValueError,))
        assert policy.call(flaky, sleep=slept.append) == 3
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_attempts_exhausted_raises_last(self):
        calls = []

        def always():
            calls.append(1)
            raise ValueError(f"still broken #{len(calls)}")

        policy = RetryPolicy(3, jitter=0.0, transient=(ValueError,))
        with pytest.raises(ValueError, match="still broken #3") as info:
            policy.call(always, sleep=no_sleep)
        assert info.value.retries_exhausted

    def test_non_transient_propagates_immediately(self):
        calls = []

        def wrong():
            calls.append(1)
            raise KeyError("not transient")

        policy = RetryPolicy(5, jitter=0.0, transient=(ValueError,))
        with pytest.raises(KeyError) as info:
            policy.call(wrong, sleep=no_sleep)
        assert len(calls) == 1
        assert not hasattr(info.value, "retries_exhausted")

    def test_on_retry_runs_before_sleep_and_can_abort(self):
        order = []

        def failing():
            raise ValueError("x")

        def on_retry(failures, delay, exc):
            order.append(("retry", failures))
            if failures == 2:
                raise RuntimeError("cancelled mid-backoff")

        policy = RetryPolicy(5, base_delay=0.01, jitter=0.0,
                             transient=(ValueError,))
        with pytest.raises(RuntimeError):
            policy.call(failing, on_retry=on_retry,
                        sleep=lambda d: order.append(("sleep", d)))
        # the abort in on_retry fired before its sleep
        assert order == [("retry", 1), ("sleep", 0.01), ("retry", 2)]


class TestExhaustedMark:
    """Nested loops: one owner per failure, never the product."""

    @staticmethod
    def _policy(attempts):
        return RetryPolicy(attempts, base_delay=0.0, transient=(ValueError,))

    def test_inner_exhausts_outer_does_not_loop(self):
        calls, outer_retries = [], []

        def kernel():
            calls.append(1)
            raise ValueError("persistent")

        inner, outer = self._policy(3), self._policy(4)
        with pytest.raises(ValueError, match="persistent"):
            outer.call(lambda: inner.call(kernel),
                       on_retry=lambda *a: outer_retries.append(a))
        assert len(calls) == 3  # inner's attempts, not 3 * 4
        assert not outer_retries

    def test_inner_absorbs_outer_never_sees_it(self):
        calls, entered, outer_retries = [], [], []

        def kernel():
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("transient")
            return "ok"

        def query():
            entered.append(1)
            return self._policy(3).call(kernel)

        out = self._policy(3).call(
            query, on_retry=lambda *a: outer_retries.append(a))
        assert out == "ok"
        assert len(calls) == 2 and len(entered) == 1 and not outer_retries

    def test_unmarked_failure_is_still_the_outer_loops(self):
        # a class only the outer layer names is the outer layer's to retry
        calls = []

        def query():
            calls.append(1)
            if len(calls) < 3:
                raise KeyError("outside any op")
            return self._policy(3).call(lambda: "ok")

        outer = RetryPolicy(3, base_delay=0.0, transient=(KeyError,))
        assert outer.call(query) == "ok" and len(calls) == 3


class TestGovernorAdoption:
    """The governor uses the one class; ``with_retry`` runs its loop as
    governed work."""

    def test_delay_matches_shared_backoff(self):
        assert governor.RetryPolicy is RetryPolicy
        policy = governor.RetryPolicy(
            3, base_delay=0.01, max_delay=0.3, jitter=0.7, seed=11
        )
        mirror = RetryPolicy(base_delay=0.01, max_delay=0.3, jitter=0.7,
                             seed=11)
        assert [policy.delay(k) for k in (1, 2, 3)] == delays(mirror, 3)

    def test_policy_retries_transient_and_counts(self):
        policy = governor.RetryPolicy(
            3, base_delay=0.0, max_delay=0.0, seed=0
        )
        state = {"n": 0}

        def flaky():
            state["n"] += 1
            if state["n"] < 2:
                raise OutOfMemory("injected")
            return "served"

        with governor.ExecutionContext() as ctx:
            assert governor.with_retry(flaky, policy=policy, op="test") \
                == "served"
        assert ctx.stats["retries"] == 1

    def test_policy_rejects_bad_jitter(self):
        with pytest.raises(InvalidValue):
            governor.RetryPolicy(3, jitter=2.0)


# --------------------------------------------------------------------------
# layering: the core never imports the layers built on it
# --------------------------------------------------------------------------

_CORE = pathlib.Path(repro.graphblas.__file__).parent
_ABOVE = ("serve", "stream", "lagraph")
#: module-path strings handed to ``importlib`` count as imports too
_PATH = re.compile(r"(?:\.\.|repro\.)(?:%s)(?:\..*)?" % "|".join(_ABOVE))
#: the lazy ``capi`` option accessors, by name: the ``GxB_Serve_set`` /
#: ``GxB_Serve_get`` pair imports its owner on first call
_ALLOWED = {("capi.py", "..serve.config")}


def _upward_imports(path: pathlib.Path):
    """(lineno, absolute module name) of every import of a layer above."""
    to_repro = len(path.relative_to(_CORE).parts) + 1  # relative level of repro/
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.level == to_repro:
            names = [f"repro.{node.module}"] if node.module else \
                [f"repro.{a.name}" for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _PATH.fullmatch(node.value):
            names = [node.value.replace("..", "repro.", 1)]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and parts[1:2] and parts[1] in _ABOVE:
                yield node.lineno, name


def test_core_imports_nothing_built_on_it():
    found = []
    for path in sorted(_CORE.rglob("*.py")):
        rel = path.relative_to(_CORE).as_posix()
        for lineno, name in _upward_imports(path):
            if (rel, name.replace("repro.", "..", 1)) not in _ALLOWED:
                found.append(f"{rel}:{lineno} imports {name}")
    assert not found, "\n".join(found)


def test_retry_is_a_leaf():
    tree = ast.parse(pathlib.Path(retry.__file__).read_text(encoding="utf-8"))
    local = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert local == {"errors"}
