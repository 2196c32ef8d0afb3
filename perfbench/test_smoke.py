"""Smoke test of the perfbench runner.

Not part of tier-1 (``testpaths = ["tests"]``); run it with

    python -m pytest perfbench/test_smoke.py -q

``run.py --all --smoke`` uses scale-8 fixtures, one pass and one set-up
sample per workload, so two complete sets take well under a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import _checks  # noqa: E402
import _common  # noqa: E402
import run as runner  # noqa: E402

SPEC = _common.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=600,
                          check=False)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("perfbench")
    results = []
    for k in range(2):
        path = out_dir / f"smoke{k}.json"
        proc = _run("--all", "--smoke", "--seed", "7", "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        results.append((path, json.loads(path.read_text())))
    return results


def test_every_declared_metric_is_emitted_with_its_unit(two_runs):
    _, result = two_runs[0]
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for entry in result["workloads"].values():
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[group]}
            got = entry[group]
            assert set(got) == set(declared)
            for name, cell in got.items():
                assert NAME.match(name), name
                assert cell["unit"] == declared[name]
                assert isinstance(cell["value"], float)
            outcome = entry[f"{group}_outcome"]
            assert outcome["correct"] and outcome["failed"] == 0
            assert outcome["attempted"] >= 1
        assert entry["per_layer"]["failed_share"]["value"] == 0.0
        assert all(c["value"] > 0 for c in entry["end_to_end"].values())


def test_count_metrics_repeat_exactly(two_runs):
    (_, a), (_, b) = two_runs
    for name in a["workloads"]:
        for metric in runner.COUNT_METRICS:
            va = a["workloads"][name]["per_layer"][metric]["value"]
            vb = b["workloads"][name]["per_layer"][metric]["value"]
            assert va == vb, (name, metric, va, vb)
    spill = a["workloads"]["spill_r12"]["per_layer"]
    assert spill["tiled.spills"]["value"] > 0
    assert a["workloads"]["suite_r12"]["per_layer"]["lagraph.op_calls"]["value"] > 0


def test_fingerprint_is_recorded(two_runs):
    _, result = two_runs[0]
    fp = result["fingerprint"]
    for key in ("git_commit", "python", "numpy", "nproc", "cpu_model", "engine",
                "compiled_toolchain", "default_backend", "seed",
                "graphblas_env", "env_clean"):
        assert key in fp
    assert fp["seed"] == 7


def test_compare_of_a_file_with_itself_is_all_same(two_runs):
    path, _ = two_runs[0]
    proc = _run("--compare", str(path), str(path))
    assert proc.returncode == 0, proc.stdout
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(row.split()[-1] == "same" for row in rows)


def test_compare_flags_a_regression(two_runs, tmp_path):
    path, result = two_runs[0]
    worse = json.loads(json.dumps(result))
    worse["workloads"]["suite_r12"]["end_to_end"]["wall_s"]["value"] *= 2
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(worse))
    proc = _run("--compare", str(path), str(slow))
    assert proc.returncode == 1
    assert "worse" in proc.stdout


def test_driver_line_has_exactly_the_contract_keys():
    proc = _run("--workload", "tinyops_r8", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_vectorized_checks_agree_with_the_library_validators():
    from repro import lagraph as lg
    from repro.graphblas import Vector

    g = _common.undirected_graph(8, 8, 5)
    src = int(_common.top_degree(g, 1)[0])

    def library_accepts(check, *args):
        try:
            check(*args)
        except AssertionError:
            return False
        return True

    levels, parents = lg.bfs(src, g, level=True, parent=True)
    dist = lg.sssp(src, g)
    labels = lg.connected_components(g)
    assert _checks.bfs_levels_ok(g, src, levels)
    assert library_accepts(lg.check_bfs_levels, g, src, levels)
    assert _checks.bfs_parents_ok(g, src, parents, levels)
    assert library_accepts(lg.check_bfs_parents, g, src, parents, levels)
    assert _checks.sssp_ok(g, src, dist)
    assert library_accepts(lg.check_sssp_distances, g, src, dist)
    assert _checks.component_labels_ok(g, labels)
    assert library_accepts(lg.check_component_labels, g, labels)

    def bumped(vec, by):
        """The same vector with its largest stored value moved by ``by``."""
        idx, val = vec.extract_tuples()
        val = np.array(val, dtype=np.float64)
        val[int(np.argmax(val))] += by
        return Vector.from_coo(idx, val.astype(vec.dtype.np_dtype), size=vec.size)

    bad_levels = bumped(levels, 2)
    assert not _checks.bfs_levels_ok(g, src, bad_levels)
    assert not library_accepts(lg.check_bfs_levels, g, src, bad_levels)
    bad_dist = bumped(dist, 0.5)
    assert not _checks.sssp_ok(g, src, bad_dist)
    assert not library_accepts(lg.check_sssp_distances, g, src, bad_dist)
    bad_labels = bumped(labels, 1)
    assert not _checks.component_labels_ok(g, bad_labels)
    assert not library_accepts(lg.check_component_labels, g, bad_labels)
