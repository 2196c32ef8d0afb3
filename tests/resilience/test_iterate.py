"""The iteration driver behind the checkpointable LAGraph loops.

``governor.iterate`` owns checkpoint, resume and per-iteration records for
every iterative algorithm, so the properties below are pinned once for all
of them: cancellation lands between iterations with valid containers, and
``Checkpoint(every=k)`` counts completed steps the same way everywhere.
"""

import numpy as np
import pytest

from repro.graphblas import Cancelled, Info, InvalidValue, Matrix, governor, validate
from repro.lagraph import Graph
from repro.lagraph.bfs import bfs
from repro.lagraph.centrality import betweenness_centrality, pagerank
from repro.lagraph.components import connected_components
from repro.lagraph.dnn import dnn_inference
from repro.lagraph.sssp import bellman_ford_sssp


@pytest.fixture
def graph():
    rng = np.random.default_rng(17)
    n = 60
    r = rng.integers(0, n, 300)
    c = rng.integers(0, n, 300)
    keep = r != c
    w = rng.random(keep.sum()) + 0.1
    A = Matrix.from_coo(r[keep], c[keep], w, nrows=n, ncols=n,
                        dtype="FP64", dup="FIRST")
    return Graph(A)


def _dnn(checkpoint=None, resume=None, layers=4):
    rng = np.random.default_rng(23)
    Y0 = Matrix.from_coo(rng.integers(0, 6, 25), rng.integers(0, 12, 25),
                         rng.random(25), nrows=6, ncols=12,
                         dtype="FP64", dup="PLUS")
    Ws = [
        Matrix.from_coo(rng.integers(0, 12, 30), rng.integers(0, 12, 30),
                        rng.random(30) - 0.3, nrows=12, ncols=12,
                        dtype="FP64", dup="PLUS")
        for _ in range(layers)
    ]
    return dnn_inference(Y0, Ws, [0.05] * layers,
                         checkpoint=checkpoint, resume=resume)


RUNS = {
    "bfs": lambda g, cp: bfs(0, g, parent=True, checkpoint=cp),
    "sssp": lambda g, cp: bellman_ford_sssp(0, g, checkpoint=cp),
    "pagerank": lambda g, cp: pagerank(g, checkpoint=cp),
    "components": lambda g, cp: connected_components(g, checkpoint=cp),
    "betweenness": lambda g, cp: betweenness_centrality(
        g, np.arange(8), checkpoint=cp),
    "dnn": lambda g, cp: _dnn(checkpoint=cp),
}


@pytest.mark.parametrize("algorithm", list(RUNS))
def test_cancel_lands_between_iterations(graph, algorithm):
    ctx = governor.ExecutionContext()
    hooks = []

    def hook(alg, it, state):
        assert alg == algorithm
        hooks.append((it, state))
        if it == 1:
            ctx.cancel("stop after one step")

    with ctx:
        with pytest.raises(Cancelled, match="stop after one step"):
            RUNS[algorithm](graph, hook)
    assert [it for it, _ in hooks] == [1]
    containers = [v for v in hooks[-1][1].values()
                  if not isinstance(v, (int, str))]
    assert containers
    for obj in containers:
        assert validate.check(obj) == Info.SUCCESS


class _Recorded(governor.Checkpoint):
    """A Checkpoint that records the iterations it would save at."""

    def __init__(self, every):
        super().__init__("unused.npz", every=every)
        self.saved = []

    def save(self, algorithm, iteration, state):
        self.saved.append(iteration)


@pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
def test_every_k_counts_completed_steps(graph, algorithm):
    steps = []
    RUNS[algorithm](graph, lambda alg, it, state: steps.append(it))
    assert steps == list(range(1, len(steps) + 1))
    assert len(steps) >= 4
    cp = _Recorded(every=2)
    RUNS[algorithm](graph, cp)
    assert cp.saved == list(range(2, len(steps) + 1, 2))


def test_resume_beyond_step_bound_rejected(tmp_path):
    path = str(tmp_path / "dnn.npz")
    _dnn(checkpoint=path, layers=4)
    with pytest.raises(InvalidValue):
        _dnn(resume=path, layers=3)
