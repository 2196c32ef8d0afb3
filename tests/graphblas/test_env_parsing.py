"""Hardened environment parsing: bad knob values warn once and fall back."""

import warnings

import numpy as np
import pytest

from repro.graphblas import envutil, faults, options
from repro.graphblas.backends import current_backend
from repro.graphblas.backends.differential import DifferentialBackend

DEFAULT_BUDGET = options.defaults("diff")["budget"]


@pytest.fixture(autouse=True)
def _fresh_warn_state():
    envutil.reset_warned()
    yield
    envutil.reset_warned()


class TestEnvUtil:
    def test_env_int_valid(self, monkeypatch):
        monkeypatch.setenv("X_INT", "42")
        assert envutil.env_int("X_INT", 7) == 42

    def test_env_int_unset_and_blank(self, monkeypatch):
        monkeypatch.delenv("X_INT", raising=False)
        assert envutil.env_int("X_INT", 7) == 7
        monkeypatch.setenv("X_INT", "   ")
        assert envutil.env_int("X_INT", 7) == 7

    def test_env_int_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("X_INT", "banana")
        with pytest.warns(RuntimeWarning, match="X_INT"):
            assert envutil.env_int("X_INT", 7) == 7

    def test_env_int_below_minimum(self, monkeypatch):
        monkeypatch.setenv("X_INT", "-5")
        with pytest.warns(RuntimeWarning, match="minimum"):
            assert envutil.env_int("X_INT", 7, minimum=0) == 7

    def test_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv("X_INT", "banana")
        with pytest.warns(RuntimeWarning):
            envutil.env_int("X_INT", 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert envutil.env_int("X_INT", 7) == 7
        # a *different* bad value warns again
        monkeypatch.setenv("X_INT", "kiwi")
        with pytest.warns(RuntimeWarning):
            envutil.env_int("X_INT", 7)

    def test_env_float_rejects_nan(self, monkeypatch):
        monkeypatch.setenv("X_F", "nan")
        with pytest.warns(RuntimeWarning):
            assert envutil.env_float("X_F", 1.5) == 1.5
        envutil.reset_warned()
        monkeypatch.setenv("X_F", "2.5")
        assert envutil.env_float("X_F", 1.5) == 2.5

    def test_env_bytes_suffixes(self, monkeypatch):
        for raw, want in [("1024", 1024), ("4k", 4 << 10),
                          ("64m", 64 << 20), ("2G", 2 << 30)]:
            monkeypatch.setenv("X_B", raw)
            assert envutil.env_bytes("X_B", None) == want

    def test_env_bytes_garbage(self, monkeypatch):
        monkeypatch.setenv("X_B", "lots")
        with pytest.warns(RuntimeWarning):
            assert envutil.env_bytes("X_B", 99) == 99

    def test_env_choice(self, monkeypatch):
        monkeypatch.setenv("X_C", "b")
        assert envutil.env_choice("X_C", "a", {"a", "b"}) == "b"
        monkeypatch.setenv("X_C", "z")
        with pytest.warns(RuntimeWarning, match="X_C"):
            assert envutil.env_choice("X_C", "a", {"a", "b"}) == "a"


class TestHardenedKnobs:
    @pytest.fixture(autouse=True)
    def _fresh_default_backend(self):
        from repro.graphblas.backends import set_default_backend

        set_default_backend(None)  # force the env to be re-read
        yield
        set_default_backend(None)

    def test_bogus_backend_falls_back_to_optimized(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_BACKEND", "turbo9000")
        with pytest.warns(RuntimeWarning, match="GRAPHBLAS_BACKEND"):
            assert current_backend().name == "optimized"

    def test_valid_backend_env_respected(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_BACKEND", "reference")
        assert current_backend().name == "reference"

    def test_bogus_diff_budget_falls_back(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_DIFF_BUDGET", "a lot")
        with pytest.warns(RuntimeWarning, match="GRAPHBLAS_DIFF_BUDGET"):
            be = DifferentialBackend()
        assert be.budget == DEFAULT_BUDGET

    def test_negative_diff_budget_falls_back(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_DIFF_BUDGET", "-3")
        with pytest.warns(RuntimeWarning, match="minimum"):
            be = DifferentialBackend()
        assert be.budget == DEFAULT_BUDGET

    def test_explicit_budget_beats_env(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_DIFF_BUDGET", "123")
        assert DifferentialBackend(budget=77).budget == 77


class TestFaultRunSeed:
    @pytest.fixture(autouse=True)
    def _reset_seed(self):
        faults.set_run_seed(None)
        yield
        faults.set_run_seed(None)

    def test_env_seed_pins_run_seed(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_FAULT_SEED", "12345")
        assert faults.run_seed() == 12345

    def test_garbage_env_seed_warns_and_uses_entropy(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_FAULT_SEED", "dice")
        with pytest.warns(RuntimeWarning, match="GRAPHBLAS_FAULT_SEED"):
            seed = faults.run_seed()
        assert 0 <= seed <= 0xFFFFFFFF

    def test_garbage_env_seed_warns_once(self, monkeypatch):
        """Routed through the option table, the warning is de-duplicated
        like every other knob's (it used to repeat on every first use)."""
        monkeypatch.setenv("GRAPHBLAS_FAULT_SEED", "dice")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            faults.run_seed()
        faults.set_run_seed(None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            faults.run_seed()

    def test_probabilistic_plan_seeds_reproducible(self, monkeypatch):
        monkeypatch.delenv("GRAPHBLAS_FAULT_SEED", raising=False)

        def arm_two():
            seeds = []
            with faults.inject("ewise", probability=0.5) as p1:
                seeds.append(p1.seed)
                with faults.inject("apply", probability=0.5) as p2:
                    seeds.append(p2.seed)
            return seeds

        faults.set_run_seed(777)
        first = arm_two()
        faults.set_run_seed(777)
        second = arm_two()
        assert first == second
        assert len(set(first)) == 2  # distinct streams per plan
        faults.set_run_seed(778)
        assert arm_two() != first

    def test_explicit_seed_untouched(self):
        with faults.inject("ewise", probability=0.5, seed=5) as plan:
            assert plan.seed == 5

    def test_deterministic_plan_has_no_seed(self):
        with faults.inject("ewise", nth=2) as plan:
            assert plan.seed is None


class TestCompiledBuildDir:
    def test_env_dir_honoured_when_set_after_import(self, monkeypatch, tmp_path):
        from repro.graphblas.compiled import toolchain

        monkeypatch.setenv("GRAPHBLAS_COMPILED_DIR", str(tmp_path / "kernels"))
        assert toolchain.build_dir() == str(tmp_path / "kernels")
        assert (tmp_path / "kernels").is_dir()

    def test_blank_dir_warns_once_and_falls_back(self, monkeypatch):
        """A whitespace-only value used to reach os.makedirs verbatim."""
        from repro.graphblas.compiled import toolchain

        monkeypatch.delenv("GRAPHBLAS_COMPILED_DIR", raising=False)
        default = toolchain.build_dir()
        monkeypatch.setenv("GRAPHBLAS_COMPILED_DIR", "   ")
        with pytest.warns(RuntimeWarning, match="GRAPHBLAS_COMPILED_DIR"):
            assert toolchain.build_dir() == default
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert toolchain.build_dir() == default
