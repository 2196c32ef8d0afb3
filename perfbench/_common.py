"""Seeded fixtures and small helpers shared by every perfbench workload.

``rmat_edges`` / ``rmat_events`` / ``weighted_rmat`` / ``peak_rss_bytes``
are the functions ``benchmarks/bench_serve.py``, ``bench_stream_ingest.py``
and ``bench_spill_tiled.py`` each carry a copy of; the arithmetic is kept
identical, so a graph built here from seed *s* is the graph those scripts
build from seed *s*.

NumPy and the library are imported inside the functions: importing this
module must stay cheap, because set-up time (which includes those
imports) is measured by the runner.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
#: Spill files and compiled-kernel artifacts: the benchmark writes nothing
#: outside its checkout.
CACHE_DIR = BENCH_DIR / ".cache"

_RMAT_ABC = (0.57, 0.19, 0.19)  # Graph500 quadrant probabilities


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def peak_rss_bytes() -> int:
    """VmHWM (the process peak RSS high-water mark) in bytes."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) << 10
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _rmat_coords(scale: int, edge_factor: int, rng):
    import numpy as np

    a, b, c = _RMAT_ABC
    m = edge_factor * (1 << scale)
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        right = (r >= a) & (r < a + b)
        lower = (r >= a + b) & (r < a + b + c)
        both = r >= a + b + c
        bit = np.int64(1 << level)
        rows += bit * (lower | both)
        cols += bit * (right | both)
    off = rows != cols
    return rows[off], cols[off]


def rmat_edges(scale: int, edge_factor: int, seed: int):
    """Graph500 RMAT samples, self-loops dropped, duplicates kept."""
    import numpy as np

    rows, cols = _rmat_coords(scale, edge_factor, np.random.default_rng(seed))
    return 1 << scale, rows, cols


def rmat_events(scale: int, edge_factor: int, windows: int, seed: int):
    """``rmat_edges`` plus sorted uniform timestamps over ``windows`` unit
    windows (a real stream re-asserts hot edges, so duplicates stay)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows, cols = _rmat_coords(scale, edge_factor, rng)
    ts = np.sort(rng.uniform(0.0, float(windows), rows.size))
    return 1 << scale, rows, cols, ts


def weighted_rmat(scale: int, edge_factor: int, seed: int):
    """Directed deduplicated RMAT matrix with FP64 weights in [-1, 1)."""
    import numpy as np

    from repro.generators import rmat_graph
    from repro.graphblas import Matrix

    A0 = rmat_graph(scale, edge_factor, seed=seed).A
    r, c, _ = A0.extract_tuples()
    rng = np.random.default_rng(seed + 1)
    return Matrix.from_coo(r, c, rng.uniform(-1.0, 1.0, r.size),
                           nrows=A0.nrows, ncols=A0.ncols, dtype="FP64")


def undirected_graph(scale: int, edge_factor: int, seed: int):
    """Undirected weighted graph on ``rmat_edges(seed)``, weights in
    [1, 10) (positive, so SSSP is well defined), dual storage on."""
    import numpy as np

    from repro.lagraph import Graph

    n, rows, cols = rmat_edges(scale, edge_factor, seed)
    w = np.random.default_rng(seed + 1).uniform(1.0, 10.0, rows.size)
    g = Graph.from_edges(rows, cols, w, n=n, kind="undirected",
                         dtype=np.float64, dup="FIRST")
    return g.enable_dual_storage()


def top_degree(graph, k: int):
    """The ``k`` highest-degree vertices (ties by vertex id)."""
    import numpy as np

    deg = graph.out_degree.to_dense(0)
    return np.argsort(-deg, kind="stable")[:k].astype(np.int64)


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


# -- environment fingerprint --------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


#: Every ``GRAPHBLAS_*`` knob the caller set, read before the benchmark
#: itself points ``GRAPHBLAS_COMPILED_DIR`` into its checkout.
GRAPHBLAS_ENV = {k: v for k, v in sorted(os.environ.items())
                 if k.startswith("GRAPHBLAS_")}


def warn_if_env_set() -> None:
    if GRAPHBLAS_ENV:
        print(f"perfbench: WARNING: {', '.join(GRAPHBLAS_ENV)} set in the "
              "environment; library defaults are not what is being measured",
              file=sys.stderr)


def fingerprint(seed: int) -> dict:
    """What was measured, on what: written into every result file."""
    import dataclasses

    import numpy as np

    from repro.graphblas import backends, compiled, engine

    env = GRAPHBLAS_ENV
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "engine": dataclasses.asdict(engine.get_config()),
        "compiled_toolchain": compiled.toolchain_name(),
        "default_backend": backends.current_backend_name(),
        "seed": seed,
        "graphblas_env": env,
        "env_clean": not env,
    }
