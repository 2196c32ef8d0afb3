"""Engine instrumentation: per-op counters, decisions, assembly, io, capi."""

import numpy as np
import pytest

from repro.generators import random_matrix, random_vector
from repro.graphblas import Matrix, Vector, capi, telemetry
from repro.graphblas import operations as ops
from repro.graphblas.io_move import (
    export_matrix,
    export_vector,
    import_matrix,
    import_vector,
)


@pytest.fixture
def small():
    A = random_matrix(60, 60, 0.08, seed=1)
    B = random_matrix(60, 60, 0.08, seed=2)
    u = random_vector(60, 0.2, seed=3)
    return A, B, u


class TestTableOneCounters:
    def test_mxm_counts_calls_time_nvals_flops(self, small):
        A, B, _ = small
        with telemetry.collect() as col:
            C = ops.mxm(Matrix("FP64", 60, 60), A, B, "PLUS_TIMES")
        st = col.snapshot()["ops"]["mxm"]
        assert st["calls"] == 1
        assert st["seconds"] > 0
        assert st["out_nvals"] == C.nvals
        assert st["flops"] > 0

    def test_mxv_counts_flops(self, small):
        A, _, u = small
        with telemetry.collect() as col:
            ops.mxv(Vector("FP64", 60), A, u)
        st = col.snapshot()["ops"]["mxv"]
        assert st["calls"] == 1 and st["flops"] > 0

    def test_vxm_recorded_under_own_name(self, small):
        A, _, u = small
        with telemetry.collect() as col:
            ops.vxm(Vector("FP64", 60), u, A)
        assert col.snapshot()["ops"]["vxm"]["calls"] == 1

    @pytest.mark.parametrize(
        "opname",
        ["ewise_add", "ewise_mult", "apply", "select", "reduce_rowwise",
         "transpose"],
    )
    def test_elementwise_family_counted(self, small, opname):
        A, B, _ = small
        run = {
            "ewise_add": lambda: ops.ewise_add(Matrix("FP64", 60, 60), A, B, "PLUS"),
            "ewise_mult": lambda: ops.ewise_mult(Matrix("FP64", 60, 60), A, B, "TIMES"),
            "apply": lambda: ops.apply(Matrix("FP64", 60, 60), A, "AINV"),
            "select": lambda: ops.select(Matrix("FP64", 60, 60), A, "TRIL", 0),
            "reduce_rowwise": lambda: ops.reduce_rowwise(Vector("FP64", 60), A, "PLUS"),
            "transpose": lambda: ops.transpose(Matrix("FP64", 60, 60), A),
        }[opname]
        with telemetry.collect() as col:
            run()
        assert col.snapshot()["ops"][opname]["calls"] == 1

    def test_extract_assign_counted(self, small):
        A, _, _ = small
        with telemetry.collect() as col:
            ops.extract(Matrix("FP64", 10, 10), A, np.arange(10), np.arange(10))
            ops.assign(Matrix("FP64", 60, 60), A, ops.ALL, ops.ALL)
        snap = col.snapshot()["ops"]
        assert snap["extract"]["calls"] == 1
        assert snap["assign"]["calls"] == 1

    def test_results_identical_with_telemetry(self, small):
        A, B, u = small
        plain = ops.mxv(Vector("FP64", 60), A, u)
        with telemetry.collect():
            instrumented = ops.mxv(Vector("FP64", 60), A, u)
        assert instrumented.isequal(plain)


def _op_record(col, name):
    """The one op record of ``name`` the block left."""
    (rec,) = [e["args"] for e in col.events
              if e["type"] == "op" and e["name"] == name]
    return rec


class TestDirectionDecisions:
    """The direction that ran, and the numbers behind an ``auto`` choice,
    ride on the mxv/vxm op record."""

    def test_auto_push_below_threshold(self):
        A = random_matrix(200, 200, 0.05, seed=4)
        u = Vector.from_coo([0], [1.0], size=200)  # density 1/200 << 0.03
        with telemetry.collect() as col:
            ops.mxv(Vector("FP64", 200), A, u)
        rec = _op_record(col, "mxv")
        assert rec["method"] == "push"
        assert rec["density"] == pytest.approx(1 / 200)  # one frontier entry
        assert rec["threshold"] == pytest.approx(0.03)

    def test_auto_pull_above_threshold(self, small):
        A, _, u = small  # density 0.2 > 0.03
        with telemetry.collect() as col:
            ops.mxv(Vector("FP64", 60), A, u)
        rec = _op_record(col, "mxv")
        assert rec["method"] == "pull"
        assert rec["density"] == pytest.approx(u.nvals / 60)

    def test_forced_method_flagged(self, small):
        A, _, u = small
        with telemetry.collect() as col:
            ops.mxv(Vector("FP64", 60), A, u, method="push")
        rec = _op_record(col, "mxv")
        # forced: the requested direction ran, no density rule behind it
        assert rec["method"] == "push"
        assert "density" not in rec and "threshold" not in rec

    def test_optimizer_hysteresis_flagged(self, small):
        from repro.graphblas.mxv import DirectionOptimizer

        A, _, u = small
        opt = DirectionOptimizer(0.1)
        with telemetry.collect() as col:
            ops.mxv(Vector("FP64", 60), A, u, optimizer=opt)
        rec = _op_record(col, "mxv")
        # the optimizer's threshold, not the module's, drove the choice
        assert rec["threshold"] == pytest.approx(0.1)
        assert opt.history == [rec["method"]] == ["pull"]


class TestSpGEMMDecisions:
    """The SpGEMM method that ran rides on the mxm op record."""

    def test_method_resolution_recorded(self, small):
        A, B, _ = small
        with telemetry.collect() as col:
            ops.mxm(Matrix("FP64", 60, 60), A, B, "PLUS_TIMES")
        # auto, unmasked: Gustavson
        assert _op_record(col, "mxm")["method"] == "gustavson"

    def test_masked_dot_recorded(self, small):
        A, B, _ = small
        from repro.graphblas.descriptor import Descriptor

        with telemetry.collect() as col:
            ops.mxm(
                Matrix("FP64", 60, 60),
                A,
                B,
                "PLUS_TIMES",
                mask=A,
                desc=Descriptor(replace=True, structural_mask=True),
                method="dot",
            )
        assert _op_record(col, "mxm")["method"] == "dot"

    def test_masked_auto_picks_dot(self, small):
        A, B, _ = small
        with telemetry.collect() as col:
            ops.mxm(Matrix("FP64", 60, 60), A, B, "PLUS_TIMES", mask=A,
                    desc="RS")
        assert _op_record(col, "mxm")["method"] == "dot"

    def test_heap_recorded(self, small):
        A, B, _ = small
        with telemetry.collect() as col:
            ops.mxm(Matrix("FP64", 60, 60), A, B, "PLUS_TIMES", method="heap")
        rec = _op_record(col, "mxm")
        assert rec["method"] == "heap" and rec["kernel"] == "numpy"

    def test_early_exit_decision_with_terminal_monoid(self):
        # LOR is terminal at True: dense boolean inputs guarantee early
        # exits once the dot intersections exceed the 64-entry scan block
        n = 80
        A = Matrix.from_dense(np.ones((n, n), dtype=bool))
        with telemetry.collect() as col:
            ops.mxm(
                Matrix("BOOL", n, n),
                A,
                A,
                "LOR_LAND",
                mask=A,
                desc="RS",
                method="dot",
            )
        evs = [e for e in col.events if e["name"] == "mxm.early_exit"]
        assert evs, "terminal-monoid dot product must report early exits"
        args = evs[0]["args"]
        assert args["eligible"] > 0
        assert args["terminated"] > 0
        assert args["terminated"] <= args["eligible"]


class TestAssemblyEvents:
    def test_pending_tuple_assembly_counted(self):
        A = Matrix("FP64", 10, 10)
        with telemetry.collect() as col:
            for i in range(6):
                A.set_element(i, i, float(i))
            A.wait()
        evs = [e for e in col.events if e["name"] == "assembly"]
        assert len(evs) == 1
        assert evs[0]["args"]["object"] == "matrix"
        assert evs[0]["args"]["pending"] == 6
        assert evs[0]["args"]["zombies"] == 0
        assert evs[0]["args"]["nvals"] == 6
        assert col.snapshot()["ops"]["wait"]["calls"] == 1

    def test_zombie_counts_reported(self):
        A = Matrix.from_coo([0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        with telemetry.collect() as col:
            A.remove_element(1, 1)
            A.set_element(0, 1, 9.0)
            A.wait()
        ev = [e for e in col.events if e["name"] == "assembly"][0]
        assert ev["args"]["pending"] == 2
        assert ev["args"]["zombies"] == 1
        assert ev["args"]["nvals"] == 3  # 3 - 1 deleted + 1 inserted

    def test_vector_assembly(self):
        v = Vector("FP64", 8)
        with telemetry.collect() as col:
            v.set_element(3, 1.0)
            v.wait()
        ev = [e for e in col.events if e["name"] == "assembly"][0]
        assert ev["args"]["object"] == "vector"
        assert ev["args"]["pending"] == 1

    def test_no_event_when_nothing_pending(self):
        A = Matrix.from_coo([0], [0], [1.0])
        A.wait()
        with telemetry.collect() as col:
            A.wait()
        assert [e for e in col.events if e["name"] == "assembly"] == []


class TestFormatEvents:
    def test_set_format_decision(self):
        A = Matrix.from_coo([0, 5], [3, 1], [1.0, 2.0], nrows=8, ncols=8)
        with telemetry.collect() as col:
            A.set_format("hypercsc")
        ev = [e for e in col.events if e["name"] == "format"][0]
        assert ev["args"]["format"] == "hypercsc"
        assert ev["args"]["forced"] is True

    def test_auto_format_decision(self):
        # 2 non-empty rows out of 64: auto_format must pick hypersparse
        A = Matrix.from_coo([0, 63], [0, 63], [1.0, 1.0], nrows=64, ncols=64)
        A.set_format("csr")
        with telemetry.collect() as col:
            A.auto_format()
        ev = [e for e in col.events if e["name"] == "format"][0]
        assert ev["args"]["forced"] is False
        assert ev["args"]["format"] == "hypercsr"
        assert ev["args"]["nonempty"] == 2


class TestBytesMoved:
    def test_matrix_export_import_tallies(self):
        A = random_matrix(40, 40, 0.1, seed=5)
        with telemetry.collect() as col:
            ex = export_matrix(A)
            expected = ex.Ap.nbytes + ex.Ai.nbytes + ex.Ax.nbytes
            import_matrix(ex)
        snap = col.snapshot()["ops"]
        assert snap["export"]["calls"] == 1
        assert snap["export"]["bytes_moved"] == expected
        assert snap["import"]["calls"] == 1
        assert snap["import"]["bytes_moved"] == expected

    def test_vector_export_import_tallies(self):
        v = Vector.from_coo([1, 3], [1.0, 2.0], size=6)
        with telemetry.collect() as col:
            size, idx, vals = export_vector(v)
            import_vector(size, idx, vals)
        snap = col.snapshot()["ops"]
        assert snap["export"]["bytes_moved"] == idx.nbytes + vals.nbytes
        assert snap["import"]["bytes_moved"] == idx.nbytes + vals.nbytes

    def test_mmio_read_write_tallies(self, tmp_path):
        from repro.io import mmread, mmwrite

        A = random_matrix(20, 20, 0.15, seed=6)
        path = tmp_path / "m.mtx"
        with telemetry.collect() as col:
            mmwrite(str(path), A)
            mmread(str(path))
        snap = col.snapshot()["ops"]
        assert snap["io.write"]["calls"] == 1
        assert snap["io.write"]["bytes_moved"] == path.stat().st_size
        assert snap["io.read"]["calls"] == 1
        assert snap["io.read"]["bytes_moved"] > 0

    def test_npz_round_trip_tallies(self, tmp_path):
        from repro.io import load_matrix_npz, save_matrix_npz

        A = random_matrix(25, 25, 0.1, seed=7)
        path = tmp_path / "m.npz"
        with telemetry.collect() as col:
            save_matrix_npz(path, A)
            load_matrix_npz(path)
        snap = col.snapshot()["ops"]
        assert snap["io.write"]["bytes_moved"] > 0
        assert snap["io.read"]["bytes_moved"] > 0

    def test_edgelist_round_trip_tallies(self, tmp_path):
        from repro.io import read_edgelist, write_edgelist
        from repro.lagraph import Graph

        g = Graph.from_edges([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], n=3)
        path = tmp_path / "g.el"
        with telemetry.collect() as col:
            write_edgelist(str(path), g)
            read_edgelist(str(path))
        snap = col.snapshot()["ops"]
        assert snap["io.write"]["bytes_moved"] == path.stat().st_size
        assert snap["io.read"]["bytes_moved"] == path.stat().st_size


class TestCapiGlobals:
    def test_global_stats_empty_when_off(self):
        assert capi.global_stats() == {}

    def test_global_stats_reflects_collector(self, small):
        A, _, u = small
        with telemetry.collect():
            ops.mxv(Vector("FP64", 60), A, u)
            stats = capi.global_stats()
        assert stats["ops"]["mxv"]["calls"] == 1

    def test_burble_set_starts_collector(self):
        assert capi.GxB_Burble_get() is False
        capi.GxB_Burble_set(True)
        try:
            assert telemetry.ENABLED
            assert capi.GxB_Burble_get() is True
        finally:
            telemetry.disable()

    def test_burble_set_false_keeps_collecting(self):
        import io as _io

        buf = _io.StringIO()
        with telemetry.collect(burble=True, stream=buf):
            capi.GxB_Burble_set(False)
            assert capi.GxB_Burble_get() is False
            telemetry.record_op("mxv", 0.01, 1)  # still counted, not burbled
            assert telemetry.snapshot()["ops"]["mxv"]["calls"] == 1
        assert buf.getvalue() == ""
