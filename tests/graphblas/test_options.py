"""The option table is the single source of every tunable.

Three guarantees: (a) every ``GRAPHBLAS_*`` name in ``src/`` is a declared
row, lives as a literal only in ``options.py``, and is in the generated
docs table; (b) each row kind warns once and falls back on a malformed
environment value and rejects a malformed ``set()``; (c) precedence is
``set`` > environment > default, round-tripped through every surface
(``options``, the owner's view, ``capi.GxB_<Group>_get``) for every row.
"""

import os
import re
import warnings

import pytest

from repro import obs
from repro.graphblas import (
    backends, capi, compiled, engine, envutil, faults, governor, options,
)
from repro.graphblas.backends.differential import DifferentialBackend
from repro.graphblas.errors import InvalidValue
from repro.serve import config as serve_config

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SRC = os.path.join(ROOT, "src")
ROWS = [pytest.param(row, id=f"{row.group}.{row.name}") for row in options.TABLE]
ENV_ROWS = [p for p in ROWS if p.values[0].env]


def _reset_everything():
    """Owner resets drop the overrides *and* refresh the snapshots."""
    options.reset()
    engine.reset()
    compiled.reset()
    obs.reset()
    backends.set_default_backend(None)
    faults.set_run_seed(None)
    envutil.reset_warned()


@pytest.fixture(autouse=True)
def _pristine():
    _reset_everything()
    yield
    _reset_everything()


def _other_value(row):
    """A valid value for the row that differs from its default."""
    if row.kind == "on_off":
        return not row.default
    if row.kind == "choice":
        choices = row.choices() if callable(row.choices) else row.choices
        # "compiled" names the optimized engine, the backend default
        return next(c for c in choices
                    if c not in (row.default, "compiled", "differential",
                                 "off"))
    if row.kind == "path":
        return "/tmp/option-table-roundtrip"
    if row.kind == "float":
        return (row.default or 0.0) + 1.5
    return (row.default or 0) + 3


def _env_text(row, value):
    if row.kind == "on_off":
        return "on" if value else "off"
    return str(value)


# What each owner actually consumes, so the round trip proves the table
# reaches behaviour and not only its own dict.
CONSUMERS = {
    "engine": lambda: vars(engine.get_config()),
    "compiled": compiled.get_config,
    "spill": lambda: dict(zip(("enabled", "directory", "budget"),
                              governor.spill_config())),
    "governor": lambda: dict(zip(("budget", "deadline"),
                                 governor.env_limits())),
    "serve": lambda: serve_config.serve_config().as_dict(),
    "obs": lambda: {**options.get("obs"),
                    "slow_ms": obs.slow_op_threshold()},
    "backend": lambda: {"name": backends.current_backend_name()},
    "diff": lambda: vars(DifferentialBackend()),
    "faults": lambda: {"seed": faults.run_seed()},
}
GXB = {"engine": (capi.GxB_Engine_set, capi.GxB_Engine_get),
       "compiled": (capi.GxB_Compiled_set, capi.GxB_Compiled_get),
       "spill": (capi.GxB_Spill_set, capi.GxB_Spill_get),
       "serve": (capi.GxB_Serve_set, capi.GxB_Serve_get),
       "obs": (capi.GxB_Obs_set, capi.GxB_Obs_get)}


class TestSingleSource:
    def _sources(self):
        for dirpath, _, files in os.walk(SRC):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield os.path.relpath(path, SRC), fh.read()

    def test_every_name_in_src_is_a_declared_row(self):
        declared = {row.env for row in options.TABLE if row.env}
        for path, text in self._sources():
            for name in set(re.findall(r"GRAPHBLAS_[A-Z_]+", text)):
                if name.endswith("_"):  # a GRAPHBLAS_SERVE_* style wildcard
                    assert any(d.startswith(name) for d in declared), (path, name)
                else:
                    assert name in declared, (path, name)

    def test_names_are_literals_only_in_the_table(self):
        quoted = re.compile(r"""["']GRAPHBLAS_[A-Z_]+["']""")
        holders = {path for path, text in self._sources() if quoted.search(text)}
        assert holders == {os.path.join("repro", "graphblas", "options.py")}

    def test_os_environ_is_read_in_two_modules_and_the_cc_probe(self):
        hits = {path: text.count("os.environ")
                for path, text in self._sources() if "os.environ" in text}
        toolchain = os.path.join("repro", "graphblas", "compiled", "toolchain.py")
        assert hits.pop(toolchain) == 1  # $CC
        assert set(hits) == {os.path.join("repro", "graphblas", "envutil.py")}

    def test_rows_are_unique_and_groups_partition_the_table(self):
        keys = [(row.group, row.name) for row in options.TABLE]
        envs = [row.env for row in options.TABLE if row.env]
        assert len(set(keys)) == len(keys) and len(set(envs)) == len(envs)
        assert sum(len(g) for g in options.GROUPS.values()) == len(options.TABLE)

    def test_every_row_is_in_the_generated_docs_table(self):
        with open(os.path.join(ROOT, "docs", "API.md"), encoding="utf-8") as fh:
            doc = fh.read()
        table = doc[doc.index("## Configuration"):]
        table = table[:table.index("\n## ", 1)]
        for row in options.TABLE:
            line = next(ln for ln in table.splitlines()
                        if ln.startswith(f"| `{row.group}.{row.name}`"))
            if row.env:
                assert f"`{row.env}`" in line
            if row.default is not None and row.kind != "on_off":
                assert f"`{row.default}`" in line, line

    def test_owner_views_match_their_rows(self):
        """No field can drift out of a getter again (GxB_Engine_get used to
        omit one, ServeConfig.as_dict four)."""
        assert set(vars(engine.get_config())) == set(options.GROUPS["engine"])
        assert set(options.GROUPS["serve"]) <= set(
            serve_config.ServeConfig().as_dict())
        assert set(serve_config.ServeConfig().as_dict()) == set(
            serve_config.ServeConfig.__dataclass_fields__)
        for group, (_, getter) in GXB.items():
            assert set(options.GROUPS[group]) <= set(getter()), group


MALFORMED_ENV = {
    "on_off": ["sideways"],
    "int": ["banana", "-999999999"],
    "float": ["soon", "nan", "-1"],
    "bytes": ["lots", "-1"],
    "choice": ["turbo9000"],
    "path": ["   "],
}
MALFORMED_SET = {
    "on_off": ["sideways"],
    "int": ["banana", -999999999],
    "float": ["soon", float("nan"), -1.0],
    "bytes": ["lots", -1],
    "choice": ["turbo9000"],
    "path": ["   ", 7],
}


def _first_row_of(kind, *, bounded=False):
    return next(r for r in options.TABLE
                if r.kind == kind and r.env and (r.minimum is not None or not bounded))


class TestMalformedValues:
    @pytest.mark.parametrize("kind", sorted(MALFORMED_ENV))
    def test_env_warns_once_and_falls_back(self, kind, monkeypatch):
        row = _first_row_of(kind, bounded=kind in ("int", "float", "bytes"))
        for raw in MALFORMED_ENV[kind]:
            monkeypatch.setenv(row.env, raw)
            with pytest.warns(RuntimeWarning, match=row.env):
                assert options.get(row.group)[row.name] == row.default
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second read: already warned
                assert options.get(row.group)[row.name] == row.default

    @pytest.mark.parametrize("kind", sorted(MALFORMED_SET))
    def test_set_rejects_and_stores_nothing(self, kind):
        row = _first_row_of(kind, bounded=kind in ("int", "float", "bytes"))
        before = options.get(row.group)
        for bad in MALFORMED_SET[kind]:
            with pytest.raises(InvalidValue, match=row.name):
                options.set(row.group, **{row.name: bad})
        assert options.get(row.group) == before

    def test_unknown_name_and_group(self):
        with pytest.raises(InvalidValue, match="bogus"):
            options.set("engine", bogus=1)
        with pytest.raises(InvalidValue, match="nope"):
            options.get("nope")
        # one bad value poisons the whole call: nothing is half-applied
        with pytest.raises(InvalidValue):
            options.set("serve", workers=9, queue_depth=0)
        assert options.get("serve")["workers"] == options.defaults("serve")["workers"]

    def test_bytes_suffix_and_on_off_spellings(self):
        options.set("spill", budget="64m", enabled="off")
        assert options.get("spill")["budget"] == 64 << 20
        assert options.get("spill")["enabled"] is False


class TestPrecedence:
    @pytest.mark.parametrize("row", ENV_ROWS)
    def test_set_beats_env_beats_default(self, row, monkeypatch):
        monkeypatch.delenv(row.env, raising=False)
        assert options.get(row.group)[row.name] == row.default
        from_env = _other_value(row)
        monkeypatch.setenv(row.env, _env_text(row, from_env))
        assert options.get(row.group)[row.name] == from_env
        options.set(row.group, **{row.name: row.default
                                  if row.default is not None else from_env})
        monkeypatch.setenv(row.env, "garbage-is-not-even-parsed-into-the-result")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = options.get(row.group)[row.name]
        assert got == (row.default if row.default is not None else from_env)

    def test_none_leaves_a_value_unchanged_and_reset_is_per_group(self):
        options.set("spill", budget=1 << 20)
        options.set("spill", budget=None, enabled=False)
        options.set("diff", budget=5)
        assert options.get("spill")["budget"] == 1 << 20
        options.reset("spill")
        assert options.get("spill") == options.defaults("spill")
        assert options.get("diff")["budget"] == 5
        options.reset()
        assert options.get("diff") == options.defaults("diff")


class TestRoundTrip:
    @pytest.mark.parametrize("row", ROWS)
    def test_set_get_consumer_capi_reset(self, row):
        """set -> options.get -> the owner's view -> GxB_<Group>_get ->
        reset, for every row, through the surface a user would call."""
        group, name = row.group, row.name
        before = options.get(group)[name]
        value = _other_value(row)
        if group in GXB:
            setter, getter = GXB[group]
            kwargs = {name: value}
            if group == "obs" and name != "enabled":
                kwargs["enabled"] = True  # GxB_Obs_set's flag is required
            assert setter(**kwargs) == capi.GrB_SUCCESS
            assert getter()[name] == value
        elif group == "backend":
            backends.set_default_backend(value)
        else:
            options.set(group, **{name: value})
        assert options.get(group)[name] == value
        assert CONSUMERS[group]()[name] == pytest.approx(value)
        _reset_everything()
        assert options.get(group)[name] == before
        if before is not None:  # unset seed/limits resolve afresh each time
            assert CONSUMERS[group]()[name] == before

    def test_getters_carry_live_state(self):
        assert capi.GxB_Engine_get()["pool"] == engine.pool_stats()
        assert capi.GxB_Compiled_get()["resolved"] == compiled.toolchain_name()
        assert capi.GxB_Obs_get()["enabled"] is False

    def test_capi_maps_errors_to_info_and_records_the_message(self):
        for setter, _ in GXB.values():
            assert setter(bogus=1) == capi.Info.INVALID_VALUE
        assert capi.GxB_Engine_set(workers=0) == capi.Info.INVALID_VALUE
        assert "workers" in capi.GrB_error()
        assert capi.GxB_Spill_set(budget=-1) == capi.Info.INVALID_VALUE
        assert capi.GxB_Spill_set(False, directory="/tmp/gxb-spill",
                                  budget=1 << 20) == capi.GrB_SUCCESS
        assert capi.GxB_Spill_get() == {
            "enabled": False, "directory": "/tmp/gxb-spill", "budget": 1 << 20}
