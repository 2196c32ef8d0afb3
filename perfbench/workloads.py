"""The five perfbench workloads.

Each workload does *fixed work* per pass: ``setup()`` builds the seeded
fixtures and runs one short warm-up (kernel caches, format twins and lazy
imports filled), ``run_pass()`` runs the same generated inputs again and
returns a :class:`Pass`, and ``check()`` validates that pass's outputs
outside any timed section.  The runner repeats ``run_pass()`` for the
requested number of seconds and keeps the fastest readings (see run.py).

Library functions are looked up on their module at call time
(``lg.bfs_level``, ``ops.mxv``), never bound early, so the wrappers that
``_trace.Tracer.install`` puts there are the ones that run.
"""

from __future__ import annotations

import collections
from time import perf_counter

import _checks
from _common import (
    CACHE_DIR, median, percentile, rmat_edges, rmat_events, top_degree,
    undirected_graph, weighted_rmat,
)
from _trace import NullTracer

MIB = float(1 << 20)


class Pass:
    """One timed pass.

    ``parts`` are the named timed sections whose sum is the pass's wall
    time; ``units`` are the latencies (seconds) of the workload's unit
    operation, in a fixed order; ``detail`` holds workload-specific
    counters and timings; ``outputs`` is what ``check()`` validates.
    """

    __slots__ = ("parts", "units", "detail", "outputs")

    def __init__(self, parts, units, detail=None, outputs=None):
        self.parts = parts
        self.units = units
        self.detail = detail or {}
        self.outputs = outputs

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.tracer = NullTracer()
        self.oracle_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass) -> tuple[int, int]:
        """(attempted, failed) for one pass."""
        raise NotImplementedError

    def layer_metrics(self, best: Pass) -> dict:
        """Workload-specific per-layer metrics from the fastest untraced pass."""
        return {}

    def extras(self, best: Pass) -> tuple[dict, int, int]:
        """Trace-run-only measurements: (metrics, attempted, failed)."""
        return {}, 0, 0


# =============================================================================
# suite_r12 — the section-V catalogue; kernel-bound
# =============================================================================

class Suite(Workload):
    name = "suite_r12"
    #: cases that make one call per source; together they form the unit op
    PER_SOURCE = ("bfs_level", "bfs_parent", "sssp_delta", "sssp_bf")

    def setup(self) -> None:
        scale = 8 if self.smoke else 12
        self.g = undirected_graph(scale, 8, self.seed)
        self.gk = undirected_graph(scale - 2, 8, self.seed + 2)
        self.sources = top_degree(self.g, 16)
        self.cases = self._cases(self.sources)
        self._tc_oracle = None
        self._run(self._cases(self.sources[:2]))  # warm-up on two sources

    def _cases(self, src):
        g, gk = self.g, self.gk
        each = [int(s) for s in src]
        return [
            ("bfs_level", [("bfs_level", (s, g), {}) for s in each]),
            ("bfs_parent", [("bfs", (s, g), {"level": True, "parent": True})
                            for s in each]),
            ("sssp_delta", [("delta_stepping_sssp", (s, g), {}) for s in each]),
            ("sssp_bf", [("bellman_ford_sssp", (s, g), {}) for s in each]),
            ("bfs_batch", [("bfs_levels_batch", (src, g), {})]),
            ("pagerank", [("pagerank", (g,), {})]),
            ("hits", [("hits", (g,), {})]),
            ("cc", [("connected_components", (g,), {})]),
            ("tc", [("triangle_count", (g, "sandia_ll"), {})]),
            ("bc", [("betweenness_centrality", (g,), {"sources": src})]),
            ("ktruss", [("ktruss", (gk, 3), {})]),
            ("mis", [("maximal_independent_set", (g,), {"seed": 0})]),
            ("color", [("greedy_color", (g,), {"seed": 0})]),
            ("peer", [("peer_pressure_clustering", (g,), {"max_iters": 12})]),
            ("kcore", [("kcore_decomposition", (g,), {})]),
        ]

    def _run(self, cases) -> Pass:
        from repro import lagraph as lg

        parts, outputs = {}, {}
        # the unit op: all four single-source traversals from one source
        units = [0.0] * len(cases[0][1])
        for cname, calls in cases:
            outs = outputs[cname] = []
            case_s = 0.0
            with self.tracer.root("harness:case"):
                for k, (fname, args, kwargs) in enumerate(calls):
                    fn = getattr(lg, fname)
                    t0 = perf_counter()
                    try:
                        out = fn(*args, **kwargs)
                    except Exception as exc:  # a failed call is a failed op
                        out = exc
                    dt = perf_counter() - t0
                    if cname in self.PER_SOURCE:
                        units[k] += dt
                    case_s += dt
                    outs.append(out)
            parts[cname] = case_s
        return Pass(parts, units, outputs=outputs)

    def run_pass(self) -> Pass:
        return self._run(self.cases)

    def check(self, p: Pass) -> tuple[int, int]:
        import numpy as np

        from repro import lagraph as lg

        g, gk, out = self.g, self.gk, p.outputs
        src = [int(s) for s in self.sources]
        if self._tc_oracle is None:
            t0 = perf_counter()
            self._tc_oracle = lg.triangle_count(g, "burkhardt")
            self.oracle_s += perf_counter() - t0
        deg = g.out_degree.to_dense(0)

        def batch_row(k, batch):
            return batch[1][batch[0] == k], batch[2][batch[0] == k]

        def same_as_level(k, levels):
            li, lv = out["bfs_level"][k].extract_tuples()
            ci, cv = levels
            return np.array_equal(li, ci) and np.array_equal(lv, cv)

        def kcore_ok(core):
            idx, val = core.extract_tuples()
            return idx.size == g.n and bool(np.all(val <= deg[idx]))

        def ktruss_ok(T):
            r, c, _ = T.extract_tuples()
            gr, gc, _ = gk.A.extract_tuples()
            return bool(np.all(np.isin(r * gk.n + c, gr * gk.n + gc)))

        def bc_ok(v):
            d = v.to_dense(0.0)
            return d.size == g.n and bool(np.all(np.isfinite(d)) and np.all(d >= 0))

        checks = {
            "bfs_level": lambda k, o: _checks.bfs_levels_ok(g, src[k], o),
            "bfs_parent": lambda k, o: (
                _checks.bfs_parents_ok(g, src[k], o[1], o[0])
                and same_as_level(k, o[0].extract_tuples())),
            "bfs_batch": lambda k, o: all(
                same_as_level(j, batch_row(j, o.extract_tuples()))
                for j in range(len(src))),
            "sssp_delta": lambda k, o: _checks.sssp_ok(g, src[k], o),
            "sssp_bf": lambda k, o: _checks.same_entries(
                o, out["sssp_delta"][k], tol=1e-9),
            "pagerank": lambda k, o: _checks.pagerank_ok(o[0]),
            "hits": lambda k, o: all(
                abs(float(x.to_dense(0.0).sum()) - 1.0) < 1e-6 for x in o),
            "cc": lambda k, o: _checks.component_labels_ok(g, o),
            "tc": lambda k, o: o == self._tc_oracle,
            "bc": lambda k, o: bc_ok(o),
            "ktruss": lambda k, o: ktruss_ok(o),
            "mis": lambda k, o: bool(lg.is_maximal_independent_set(g, o)),
            "color": lambda k, o: bool(lg.is_valid_coloring(g, o)),
            "peer": lambda k, o: o.nvals == g.n,
            "kcore": lambda k, o: kcore_ok(o),
        }
        attempted = failed = 0
        for cname, outs in out.items():
            for k, o in enumerate(outs):
                attempted += 1
                try:
                    ok = not isinstance(o, Exception) and checks[cname](k, o)
                except Exception:
                    ok = False
                failed += not ok
        return attempted, failed

    def layer_metrics(self, best: Pass) -> dict:
        return {f"lagraph.{c}_s": s for c, s in best.parts.items()}

    def extras(self, best: Pass) -> tuple[dict, int, int]:
        """The kernel-tier ladder, through public switches only: the same
        ``mxm`` and pull ``mxv`` with the engine off (plain NumPy
        kernels), on (specialised closures) and on the compiled backend."""
        import os

        import numpy as np

        from repro.graphblas import Matrix, Vector, compiled, engine
        from repro.graphblas import operations as ops

        # the cc toolchain writes its artifacts here instead of /tmp
        os.environ.setdefault("GRAPHBLAS_COMPILED_DIR",
                              str(CACHE_DIR / "compiled"))
        A, n = self.g.A, self.g.n
        u = Vector.from_dense(np.ones(n), dtype="FP64")

        def best_of(fn, repeat):
            best = float("inf")
            for _ in range(repeat):
                t0 = perf_counter()
                fn()
                best = min(best, perf_counter() - t0)
            return best

        def mxm(backend):
            return lambda: ops.mxm(Matrix("FP64", n, n), A, A, "PLUS_TIMES",
                                   backend=backend)

        def mxv(backend):
            return lambda: ops.mxv(Vector("FP64", n), A, u, "PLUS_TIMES",
                                   method="pull", backend=backend)

        m = {}
        tiers = [("engine", None)]
        if compiled.available():
            tiers.append(("compiled", "compiled"))
        was_on = engine.get_config().enabled
        engine.set_engine(False)
        try:
            m["kernel.mxm_numpy_s"] = best_of(mxm(None), 2)
            m["kernel.mxv_pull_numpy_us"] = best_of(mxv(None), 20) * 1e6
        finally:
            engine.set_engine(was_on)
        for tier, backend in tiers:
            mxm(backend)()  # first call builds/loads the tier's kernels
            mxv(backend)()
            m[f"kernel.mxm_{tier}_s"] = best_of(mxm(backend), 2)
            m[f"kernel.mxv_pull_{tier}_us"] = best_of(mxv(backend), 20) * 1e6
        return m, 0, 0


# =============================================================================
# tinyops_r8 — fixed-cost-bound: plan, dispatch, assembly, wait()
# =============================================================================

_TINY_KINDS = ("mxv", "vxm", "mxv_masked", "ewise_add", "ewise_mult", "apply",
               "select", "reduce_rowwise", "reduce_scalar", "assign",
               "extract", "transpose", "bfs_tiny", "build")


class TinyOps(Workload):
    name = "tinyops_r8"
    SETS, REMOVES = 64, 16
    PART_ROUNDS = 25  # rounds per timed part

    def setup(self) -> None:
        import numpy as np

        from repro.graphblas import Matrix, Vector, operations
        from repro.graphblas.descriptor import R

        self.rounds = 40 if self.smoke else 500
        rng = np.random.default_rng(self.seed + 11)
        self.A = weighted_rmat(8, 8, self.seed)
        self.B = weighted_rmat(8, 8, self.seed + 3)
        n = self.n = self.A.nrows
        self.g = undirected_graph(8, 8, self.seed)
        self.u = Vector.from_dense(rng.uniform(0.5, 1.5, n), dtype="FP64")
        on = np.flatnonzero(rng.random(n) < 0.5)
        self.mask = Vector.from_coo(on, np.ones(on.size, dtype=bool), size=n)
        self.I = np.sort(rng.choice(n, 32, replace=False))
        self.J = np.sort(rng.choice(n, 32, replace=False))
        self.ops, self.replace = operations, R
        self.S = Matrix("FP64", 32, 32)
        operations.extract(self.S, self.B, self.I, self.J)
        has_edge = np.flatnonzero(self.g.out_degree.to_dense(0) > 0)
        self.bfs_src = [int(s) for s in rng.choice(has_edge, self.rounds)]
        shape = (self.rounds, self.SETS)
        self.bi = rng.integers(0, n, shape).tolist()
        self.bj = rng.integers(0, n, shape).tolist()
        self.bv = rng.uniform(0.0, 1.0, shape).tolist()
        self._run(8)  # warm-up

    def _fresh_outputs(self) -> dict:
        from repro.graphblas import Matrix, Vector

        n = self.n
        return {
            "mxv": Vector("FP64", n), "vxm": Vector("FP64", n),
            "mxv_masked": Vector("FP64", n),
            "ewise_add": Matrix("FP64", n, n), "ewise_mult": Matrix("FP64", n, n),
            "apply": Matrix("FP64", n, n), "select": Matrix("FP64", n, n),
            "reduce_rowwise": Vector("FP64", n), "reduce_scalar": None,
            "assign": self.A.dup(), "extract": Matrix("FP64", 32, 32),
            "transpose": Matrix("FP64", n, n),
            "bfs_tiny": None, "build": Matrix("FP64", n, n),
        }

    def _table1(self, out, backend=None):
        """The twelve Table-I calls of one round, in ``_TINY_KINDS`` order;
        yields after each so the caller can take a time stamp."""
        ops, A, B, u, R = self.ops, self.A, self.B, self.u, self.replace
        yield ops.mxv(out["mxv"], A, u, backend=backend)
        yield ops.vxm(out["vxm"], u, A, backend=backend)
        yield ops.mxv(out["mxv_masked"], A, u, mask=self.mask, desc=R,
                      backend=backend)
        yield ops.ewise_add(out["ewise_add"], A, B, backend=backend)
        yield ops.ewise_mult(out["ewise_mult"], A, B, backend=backend)
        yield ops.apply(out["apply"], A, "AINV", backend=backend)
        yield ops.select(out["select"], A, "TRIL", backend=backend)
        yield ops.reduce_rowwise(out["reduce_rowwise"], A, backend=backend)
        out["reduce_scalar"] = ops.reduce_scalar(A, backend=backend)
        yield None
        yield ops.assign(out["assign"], self.S, self.I, self.J, backend=backend)
        yield ops.extract(out["extract"], A, self.I, self.J, backend=backend)
        yield ops.transpose(out["transpose"], A, backend=backend)

    def _run(self, rounds: int) -> Pass:
        from repro import lagraph as lg

        out, g = self._fresh_outputs(), self.g
        M = out["build"]
        sets, removes = self.SETS, self.REMOVES
        units, stamps, parts = [], [], {}
        t_part = perf_counter()
        for i in range(rounds):
            with self.tracer.root("harness:round"):
                row = [perf_counter()]
                for _ in self._table1(out):
                    row.append(perf_counter())
                out["bfs_tiny"] = lg.bfs_level(self.bfs_src[i], g)
                row.append(perf_counter())
                ri, rj, rv = self.bi[i], self.bj[i], self.bv[i]
                for k in range(sets):
                    M.set_element(ri[k], rj[k], rv[k])
                M.wait()
                for k in range(removes):
                    M.remove_element(ri[k], rj[k])
                M.wait()
                row.append(perf_counter())
            units.append(row[-1] - row[0])
            stamps.append(row)
            if (i + 1) % self.PART_ROUNDS == 0 or i + 1 == rounds:
                now = perf_counter()
                parts[f"rounds.{i // self.PART_ROUNDS:02d}"] = now - t_part
                t_part = now
        return Pass(parts, units,
                    detail={"stamps": stamps, "rounds": rounds},
                    outputs=dict(out, last_src=self.bfs_src[rounds - 1]))

    def run_pass(self) -> Pass:
        return self._run(self.rounds)

    def check(self, p: Pass) -> tuple[int, int]:
        """Each op kind against ``backend="reference"``, the round's BFS
        against its invariants, the built matrix against a replay."""
        got, rounds = p.outputs, p.detail["rounds"]
        t0 = perf_counter()
        ref = self._fresh_outputs()
        for _ in self._table1(ref, backend="reference"):
            pass
        expect = {}
        for i in range(rounds):
            for k in range(self.SETS):
                expect[(self.bi[i][k], self.bj[i][k])] = self.bv[i][k]
            for k in range(self.REMOVES):
                expect.pop((self.bi[i][k], self.bj[i][k]), None)
        self.oracle_s += perf_counter() - t0

        bad = 0
        for kind in _TINY_KINDS[:12]:
            if kind == "reduce_scalar":
                ok = abs(got[kind] - ref[kind]) <= 1e-9 * max(1.0, abs(ref[kind]))
            else:
                ok = _checks.same_entries(got[kind], ref[kind], tol=1e-9)
            bad += not ok
        bad += not _checks.bfs_levels_ok(self.g, got["last_src"], got["bfs_tiny"])
        r, c, v = got["build"].extract_tuples()
        bad += dict(zip(zip(r.tolist(), c.tolist()), v.tolist())) != expect
        # every round ran the same calls: one wrong kind taints them all
        return rounds, rounds if bad else 0

    def layer_metrics(self, best: Pass) -> dict:
        import numpy as np

        steps = np.diff(np.asarray(best.detail["stamps"]), axis=1)
        med = np.median(steps, axis=0) * 1e6
        m = {"rounds_per_s": best.detail["rounds"] / best.wall_s}
        for kind, us in zip(_TINY_KINDS, med):
            if kind == "build":
                continue
            m[f"ops.{kind}_us"] = float(us)
        return m


# =============================================================================
# stream_r14 — writers' view: update-log assembly + incremental maintainers
# =============================================================================

class Stream(Workload):
    name = "stream_r14"
    PR_TOL = 1e-8

    def setup(self) -> None:
        scale = 8 if self.smoke else 14
        # ~650-event tumbling windows, ~8k-event sliding windows (scale 14)
        self.n, self.src, self.dst, ts = rmat_events(scale, 8, 200, self.seed)
        self.ts_small = ts
        self.ts_large = ts * (16.0 / 200.0)
        self.k_small = 12 if self.smoke else 48
        self.k_sliding = 3 if self.smoke else 5
        self._oracle = {}
        self._phase("tumbling", self.ts_small, 4)  # warm-up
        self._phase("sliding", self.ts_large, 2)

    def _phase(self, kind: str, ts, k_windows: int) -> dict:
        """Feed ``k_windows`` unit windows, one ``ingest`` call per window;
        every closed window is followed by the three maintainers."""
        import numpy as np

        from repro import stream as st_mod
        from repro.lagraph import GraphKind

        st = st_mod.GraphStream(self.n, kind=GraphKind.UNDIRECTED,
                                window=kind, width=1.0)
        pr = st_mod.DynamicPageRank(st.graph, tol=self.PR_TOL)
        cc = st_mod.IncrementalComponents(st.graph)
        tri = st_mod.IncrementalTriangles(st.graph)
        bounds = np.searchsorted(ts, np.arange(k_windows + 1, dtype=np.float64))
        src, dst = self.src, self.dst
        steps, lat = [], []
        acc = collections.Counter()
        for k in range(k_windows + 1):
            with self.tracer.root("harness:window"):
                t0 = perf_counter()
                if k < k_windows:
                    sl = slice(bounds[k], bounds[k + 1])
                    closed = st.ingest(src[sl], dst[sl], ts[sl])
                else:
                    last = st.flush()
                    closed = [] if last is None else [last]
                for win in closed:
                    t1 = perf_counter()
                    _, sweeps = pr.update()
                    t2 = perf_counter()
                    cc.update()
                    t3 = perf_counter()
                    tri.update()
                    t4 = perf_counter()
                    acc["pagerank_s"] += t2 - t1
                    acc["components_s"] += t3 - t2
                    acc["triangles_s"] += t4 - t3
                    acc["assembly_s"] += win.seconds
                    acc["events"] += win.n_events + win.n_expired
                    acc["chunks"] += win.chunks
                    acc["sweeps"] += sweeps
                steps.append(perf_counter() - t0)
                if closed:
                    lat.append(steps[-1])
        acc["recomputes"] = pr.recomputes + cc.recomputes + tri.recomputes
        return {
            "steps": steps, "latencies": lat,
            "fed": int(bounds[-1]), "acc": dict(acc),
            "final": (st.graph, pr.ranks.copy(), cc.labels.copy(), tri.count),
        }

    def run_pass(self) -> Pass:
        small = self._phase("tumbling", self.ts_small, self.k_small)
        sliding = self._phase("sliding", self.ts_large, self.k_sliding)
        parts = {f"{phase}.{k:02d}": dt
                 for phase, res in (("small", small), ("sliding", sliding))
                 for k, dt in enumerate(res["steps"])}
        return Pass(
            parts, small["latencies"],
            detail={"small": small["acc"], "sliding": sliding["acc"],
                    "fed": small["fed"] + sliding["fed"]},
            outputs={"small": small["final"], "sliding": sliding["final"],
                     "windows": (len(small["latencies"]),
                                 len(sliding["latencies"]))},
        )

    def _from_scratch(self, phase: str, graph):
        """Every pass ends on the same graph, so one oracle per phase."""
        if phase not in self._oracle:
            from repro.lagraph import (
                Graph, connected_components, pagerank, triangle_count,
            )

            t0 = perf_counter()
            fresh = Graph(graph.A.dup(), graph.kind)
            ranks, _ = pagerank(fresh, tol=self.PR_TOL)
            self._oracle[phase] = (
                ranks.to_dense(0.0),
                connected_components(fresh).to_dense(),
                triangle_count(fresh),
                graph.A.nvals,
            )
            self.oracle_s += perf_counter() - t0
        return self._oracle[phase]

    def check(self, p: Pass) -> tuple[int, int]:
        import numpy as np

        attempted = failed = 0
        for phase, windows in zip(("small", "sliding"), p.outputs["windows"]):
            graph, ranks, labels, count = p.outputs[phase]
            o_ranks, o_labels, o_count, o_nvals = self._from_scratch(phase, graph)
            ok = (graph.A.nvals == o_nvals
                  and float(np.abs(o_ranks - ranks).sum()) < 1e-6
                  and np.array_equal(labels, o_labels)
                  and count == o_count)
            attempted += windows
            failed += 0 if ok else windows
        return attempted, failed

    def layer_metrics(self, best: Pass) -> dict:
        d = best.detail
        small, sliding = d["small"], d["sliding"]
        asm = small["assembly_s"] + sliding["assembly_s"]
        events = small["events"] + sliding["events"]
        m = {
            "edges_per_s": d["fed"] / best.wall_s,
            "window_p50_ms": percentile(best.units, 50) * 1e3,
            "window_p95_ms": percentile(best.units, 95) * 1e3,
            "stream.assembly_s": asm,
            "stream.assembly_edges_per_s": events / asm,
            "stream.chunks": small["chunks"] + sliding["chunks"],
            "incr.recomputes": small["recomputes"] + sliding["recomputes"],
            "incr.pagerank_sweeps": small["sweeps"] + sliding["sweeps"],
        }
        for phase, acc in (("small", small), ("sliding", sliding)):
            for who in ("pagerank", "components", "triangles"):
                m[f"incr.{who}_s.{phase}"] = acc[f"{who}_s"]
        return m


# =============================================================================
# spill_r12 — C = A*A streamed through the tiled spill pool
# =============================================================================

class Spill(Workload):
    name = "spill_r12"

    def setup(self) -> None:
        scale = 8 if self.smoke else 12
        self.budget = (1 << 16) if self.smoke else (4 << 20)
        self.tile_dim = 64 if self.smoke else 512
        self.spill_dir = str(CACHE_DIR / "spill")
        self.A = weighted_rmat(scale, 8, self.seed)
        self.a_rows = self.A.by_row()
        self._oracle = None
        # warm-up: the same pipeline on a sibling an eighth the size
        small = weighted_rmat(scale - 3, 8, self.seed + 1)
        self._product(small.by_row(), small.dtype, self.budget >> 3,
                      max(64, self.tile_dim >> 3))

    def _product(self, a_rows, dtype, budget: int, tile_dim: int) -> Pass:
        from repro.graphblas import tiled

        t0 = perf_counter()
        with tiled.SpillPool(budget=max(1 << 14, budget // 6),
                             directory=self.spill_dir) as pool:
            A_t = tiled.TiledMatrix.from_store(a_rows, tile_dim, pool,
                                               dtype=dtype)
            t1 = perf_counter()
            C_t = tiled.mxm_tiled(A_t, A_t, "PLUS_TIMES", pool=pool,
                                  chunk_bytes=budget // 6)
            t2 = perf_counter()
            checksum, abs_sum, out_nvals = 0.0, 0.0, 0
            units = []
            t_prev = t2
            with self.tracer.root("harness:drain"):
                for _, _, vals in C_t.iter_stripes(max_bytes=budget // 8):
                    checksum += float(vals.sum())
                    abs_sum += float(abs(vals).sum())
                    out_nvals += int(vals.size)
                    now = perf_counter()
                    units.append(now - t_prev)
                    t_prev = now
            t3 = perf_counter()
            stats = dict(pool.stats)
        return Pass(
            {"from_store": t1 - t0, "mxm": t2 - t1, "drain": t3 - t2},
            units, detail=stats,
            outputs={"checksum": checksum, "abs_sum": abs_sum,
                     "out_nvals": out_nvals},
        )

    def run_pass(self) -> Pass:
        with self.tracer.root("harness:product"):
            return self._product(self.a_rows, self.A.dtype, self.budget,
                                 self.tile_dim)

    def _in_memory(self):
        if self._oracle is None:
            from repro.graphblas import Matrix
            from repro.graphblas import operations as ops

            t0 = perf_counter()
            C = Matrix("FP64", self.A.nrows, self.A.ncols)
            ops.mxm(C, self.A, self.A, "PLUS_TIMES")
            seconds = perf_counter() - t0
            self._oracle = (C, seconds)
            self.oracle_s += seconds
        return self._oracle

    def check(self, p: Pass) -> tuple[int, int]:
        C, _ = self._in_memory()
        vals = C.extract_tuples()[2]
        o = p.outputs
        ok = (o["out_nvals"] == C.nvals
              and abs(o["checksum"] - float(vals.sum())) <= 1e-9 * o["abs_sum"]
              and p.detail["spills"] > 0)
        return 1, 0 if ok else 1

    def layer_metrics(self, best: Pass) -> dict:
        st = best.detail
        return {
            "tiled.spills": st["spills"],
            "tiled.reloads": st["reloads"],
            "tiled.spilled_mb": st["spilled_bytes"] / MIB,
            "tiled.reloaded_mb": st["reloaded_bytes"] / MIB,
            "tiled.read_amp": st["reloaded_bytes"] / max(1, st["spilled_bytes"]),
            "tiled.from_store_s": best.parts["from_store"],
            "tiled.mxm_s": best.parts["mxm"],
            "tiled.drain_s": best.parts["drain"],
        }

    def extras(self, best: Pass) -> tuple[dict, int, int]:
        """The transparent route: the same product through ``ops.mxm``
        under a governor budget; must be bit-identical to in-memory."""
        from repro.graphblas import Matrix, governor
        from repro.graphblas import operations as ops

        expected, in_memory_s = self._in_memory()
        C = Matrix("FP64", self.A.nrows, self.A.ncols)
        t0 = perf_counter()
        with governor.ExecutionContext(
            memory_budget=self.budget, spill_budget=self.budget >> 2,
            spill_dir=self.spill_dir,
        ) as ctx:
            ops.mxm(C, self.A, self.A, "PLUS_TIMES")
        governed_s = perf_counter() - t0
        er, ec, ev = expected.extract_tuples()
        cr, cc, cv = C.extract_tuples()
        ok = (ctx.stats["tiled"] == 1 and (er == cr).all() and (ec == cc).all()
              and ev.tobytes() == cv.tobytes())
        m = {"tiled.governed_mxm_s": governed_s,
             "tiled.slowdown_x": governed_s / in_memory_s}
        return m, 1, 0 if ok else 1


# =============================================================================
# serve_rw_r12 — served queries beside snapshot publication
# =============================================================================

#: Query mix in percent.
_MIX = (("bfs", 60), ("sssp", 30), ("components", 5), ("pagerank", 4),
        ("triangles", 1))


def _interleaved_mix(count: int) -> list[str]:
    """``count`` algorithm names in the ``_MIX`` proportions, spread evenly
    (smooth weighted round-robin).  The order does not depend on the seed:
    a random draw gives one seed five 0.6 s triangle counts and another
    none, which moved wall time by 2x between seeds."""
    credit = {algo: 0 for algo, _ in _MIX}
    order = []
    for _ in range(count):
        for algo, weight in _MIX:
            credit[algo] += weight
        algo = max(credit, key=credit.get)
        credit[algo] -= 100
        order.append(algo)
    return order


class ServeRW(Workload):
    name = "serve_rw_r12"
    IN_FLIGHT, PUBLISH_EVERY, TENANTS = 4, 25, 4

    def setup(self) -> None:
        import numpy as np

        scale = 8 if self.smoke else 12
        self.queries = 50 if self.smoke else 250
        self.n, self.src, self.dst = rmat_edges(scale, 8, self.seed)
        m = self.src.size
        self.cut = (m * 3) // 4
        n_batches = max(1, self.queries // self.PUBLISH_EVERY)
        self.batches = np.array_split(np.arange(self.cut, m), n_batches)
        deg = np.bincount(np.concatenate([self.src, self.dst]), minlength=self.n)
        sources = np.argsort(-deg, kind="stable")[:64]
        rng = np.random.default_rng(self.seed + 5)
        pick = sources[rng.integers(0, sources.size, self.queries)]
        self.plan = [
            (algo, {"source": int(s)} if algo in ("bfs", "sssp") else {})
            for algo, s in zip(_interleaved_mix(self.queries), pick)
        ]
        self._triangles = {}
        # warm-up: one query of each kind on the initial snapshot
        srv = self._server()
        try:
            for algo, _ in _MIX:
                params = {"source": int(sources[0])} if algo in ("bfs", "sssp") else {}
                srv.query(algo, graph="g", timeout=120, **params)
        finally:
            srv.close()

    def _server(self):
        from repro import serve

        srv = serve.GraphServer(workers=2)
        srv.add_graph("g", n=self.n)
        srv.ingest("g", self.src[:self.cut], self.dst[:self.cut])
        srv.publish("g")
        return srv

    def run_pass(self) -> Pass:
        """One generator thread keeps IN_FLIGHT tickets outstanding and
        waits FIFO on the oldest; the same thread publishes the next
        held-out batch after every PUBLISH_EVERY-th completion."""
        srv = self._server()
        pending = collections.deque()
        done, refused = [], 0
        publishes, ingest_s, publish_s, submit_s = [], 0.0, 0.0, 0.0
        nxt = batch = 0
        parts = {}
        try:
            t_part = perf_counter()
            while len(done) + refused < self.queries:
                while nxt < self.queries and len(pending) < self.IN_FLIGHT:
                    algo, params = self.plan[nxt]
                    t0 = perf_counter()
                    try:
                        pending.append(srv.submit(
                            algo, graph="g",
                            tenant=f"tenant{nxt % self.TENANTS}", **params))
                    except Exception:  # shed at admission
                        refused += 1
                    submit_s += perf_counter() - t0
                    nxt += 1
                if not pending:
                    continue
                ticket = pending.popleft()
                ticket.wait(120)
                done.append(ticket)
                if len(done) % self.PUBLISH_EVERY == 0 and batch < len(self.batches):
                    idx = self.batches[batch]
                    batch += 1
                    t0 = perf_counter()
                    srv.ingest("g", self.src[idx], self.dst[idx])
                    t1 = perf_counter()
                    srv.publish("g")
                    t2 = perf_counter()
                    ingest_s += t1 - t0
                    publish_s += t2 - t1
                    publishes.append(t2 - t0)
                    # one timed part per stretch of queries + its publish
                    parts[f"segment.{batch:02d}"] = t2 - t_part
                    t_part = t2
            parts["tail"] = perf_counter() - t_part
            stats = srv.stats()
        finally:
            srv.close()
        units = [t.t_done - t.t_submit for t in done if t.t_done is not None]
        return Pass(
            parts, units,
            detail={"publishes": publishes, "ingest_s": ingest_s,
                    "publish_s": publish_s, "submit_s": submit_s,
                    "refused": refused, "shed": stats["shed"]},
            outputs=done,
        )

    def _ticket_ok(self, t) -> bool:
        from repro.lagraph import triangle_count

        if t.outcome != "ok":
            return False
        snap = t.snapshot
        if t.algo == "bfs":
            return _checks.bfs_levels_ok(snap, t.params["source"], t.value)
        if t.algo == "sssp":
            return _checks.sssp_ok(snap, t.params["source"], t.value)
        if t.algo == "components":
            return _checks.component_labels_ok(snap, t.value)
        if t.algo == "pagerank":
            return _checks.pagerank_ok(t.value)
        # every pass publishes the same edges at the same epochs
        epoch = snap.published_epoch
        if epoch not in self._triangles:
            t0 = perf_counter()
            self._triangles[epoch] = triangle_count(snap, "burkhardt")
            self.oracle_s += perf_counter() - t0
        return t.value == self._triangles[epoch]

    def check(self, p: Pass) -> tuple[int, int]:
        failed = p.detail["refused"]
        for t in p.outputs:
            try:
                ok = self._ticket_ok(t)
            except Exception:
                ok = False
            failed += not ok
        return self.queries, failed

    def layer_metrics(self, best: Pass) -> dict:
        d, done = best.detail, best.outputs
        ms = 1e3
        ran = [t for t in done if t.exec_s is not None]
        execs = [t.exec_s * ms for t in ran]
        waits = [t.queue_wait_s * ms for t in ran]
        e2e = [u * ms for u in best.units]
        n_pub = max(1, len(d["publishes"]))
        m = {
            "qps": len(done) / best.wall_s,
            "query_p50_ms": percentile(e2e, 50),
            "query_p95_ms": percentile(e2e, 95),
            "publish_p50_ms": median(d["publishes"]) * ms,
            "serve.submit_us": d["submit_s"] / self.queries * 1e6,
            "serve.queue_wait_p50_ms": percentile(waits, 50),
            "serve.queue_wait_p95_ms": percentile(waits, 95),
            "serve.exec_p50_ms": percentile(execs, 50),
            "serve.exec_p95_ms": percentile(execs, 95),
            "serve.e2e_p99_ms": percentile(e2e, 99),
            "serve.worker_busy_share": sum(t.exec_s for t in ran) / (2 * best.wall_s),
            "serve.retries": sum(t.retries for t in done),
            "serve.failovers": sum(t.failovers for t in done),
            "serve.shed": d["shed"],
            "serve.degraded": sum(t.tier not in (None, "full") for t in done),
            "serve.ingest_ms": d["ingest_s"] / n_pub * ms,
            "serve.publish_ms": d["publish_s"] / n_pub * ms,
        }
        for algo, _ in _MIX:
            xs = [t.exec_s * ms for t in ran if t.algo == algo]
            m[f"serve.exec_{algo}_p50_ms"] = median(xs) if xs else 0.0
        return m

    def extras(self, best: Pass) -> tuple[dict, int, int]:
        """Served execution time over a direct ``lagraph`` call on the
        same pinned snapshot, for up to 32 BFS/SSSP tickets."""
        from repro import lagraph as lg

        served = direct = 0.0
        sample = [t for t in best.outputs if t.exec_s is not None
                  and t.algo in ("bfs", "sssp")][:32]
        for t in sample:
            s = t.params["source"]
            t0 = perf_counter()
            if t.algo == "bfs":
                lg.bfs(s, t.snapshot, level=True, parent=False)
            else:
                lg.sssp(s, t.snapshot)
            direct += perf_counter() - t0
            served += t.exec_s
        ratio = served / direct if direct else 0.0
        return {"serve.direct_ratio": ratio}, 0, 0


WORKLOADS = {w.name: w for w in (Suite, TinyOps, Stream, Spill, ServeRW)}
