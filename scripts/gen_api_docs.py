#!/usr/bin/env python3
"""Generate docs/API.md from the public API's docstrings.

The paper promises "documentation [and] a programmer's reference guide"
(section III).  This script walks the exported surface of every package and
renders first-docstring-paragraph reference tables, so the guide can never
drift silently from the code.

Run:  python scripts/gen_api_docs.py
"""

from __future__ import annotations

import inspect
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro
import repro.generators
import repro.graphblas
import repro.graphblas.backends
import repro.graphblas.capi
import repro.graphblas.compiled
import repro.graphblas.faults
import repro.graphblas.telemetry
import repro.graphblas.validate
import repro.harness
import repro.io
import repro.lagraph
import repro.obs
import repro.pygb
import repro.serve
import repro.stream

OUT = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    para = doc.split("\n\n")[0].replace("\n", " ").strip()
    return para or "(undocumented)"


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe(module, name):
    obj = getattr(module, name)
    if inspect.isclass(obj):
        kind = "class"
    elif callable(obj):
        kind = "function"
    else:
        kind = "constant"
    return kind, obj


def render_module(f, module, title) -> None:
    f.write(f"\n## `{title}`\n\n")
    mod_doc = first_paragraph(module)
    f.write(f"{mod_doc}\n\n")
    names = list(getattr(module, "__all__", []))
    if not names:
        return
    f.write("| name | kind | summary |\n|---|---|---|\n")
    for name in names:
        try:
            kind, obj = describe(module, name)
        except AttributeError:
            continue
        summary = first_paragraph(obj) if kind != "constant" else "value"
        sig = signature_of(obj) if kind == "function" else ""
        cell = f"`{name}{sig}`" if sig and len(sig) < 60 else f"`{name}`"
        cell = cell.replace("|", "\\|")
        summary = summary.replace("|", "\\|")
        if len(summary) > 160:
            summary = summary[:157] + "..."
        f.write(f"| {cell} | {kind} | {summary} |\n")


RESILIENCE_SECTION = """
## Error model & resilience

The engine follows the GraphBLAS C API's two-tier error model
(`repro.graphblas.errors`): *API errors* (bad dimensions, bad indices,
uninitialized objects) are detected in the front-end, while *execution
errors* (out of memory, corrupt objects) surface from the back-end.
Internally everything is an exception; the `repro.graphblas.capi` facade
converts exceptions to `GrB_Info` codes at the boundary, exactly like the
IBM implementation's try/catch contract (paper section II.B).

The C-API boundary is **transactional**: every `GrB_*` call snapshots its
Matrix/Vector/Scalar arguments before running and rolls all of them back
bit-identically if the back-end raises — including `MemoryError`, which is
uniformly mapped to `GrB_OUT_OF_MEMORY`.  A failed call therefore leaves
no partial update behind (pending logs included), and retrying it after
the failure clears produces exactly the result of an undisturbed call.
The message of the last failed call is available per-thread via
`GrB_error()`.

Two supporting subsystems make this testable:

* `repro.graphblas.faults` — a named-injection-point fault harness.
  `faults.inject("spgemm.flop")` arms a deterministic (nth-call) or
  seeded-probabilistic fault at any of the registered points (`alloc`,
  `build`, `assemble`, `setElement`, `removeElement`, kernel points such
  as `spgemm.flop` / `mxv.push` / `mxv.pull` / `ewise` / `apply` /
  `select` / `reduce` / `transpose` / `extract` / `assign` /
  `kronecker`, `io.read` / `io.write`, and the serving-layer point
  `serve.exec`).  When no fault is armed the hooks cost one
  module-attribute read per operation (`faults.ENABLED` is `False`),
  keeping the disabled overhead below the noise floor.
* `repro.graphblas.validate` — a deep structural checker in the spirit of
  SuiteSparse's `GxB_check` (sorted duplicate-free indices, monotone
  `indptr`, pending-log consistency, dual CSR/CSC agreement), exposed
  through the C API as `GrB_Matrix_check` / `GrB_Vector_check` and used
  by `tests/resilience/` to prove operands survive injected faults
  uncorrupted.

Above the C-API boundary, the serving layer (`repro.serve`) extends the
same taxonomy to multi-tenant operation: admission **shedding** raises
`Overloaded` (a typed rejection with a machine-readable `reason`, never
an unbounded queue), and a query that fails while it runs surfaces as
`QueryFailed` with the execution error as `__cause__`.  Nothing replays
a failed call or query: it raises once and leaves its operands (and the
served snapshot) unchanged.  Caller errors (`InvalidValue`,
`DeadlineExceeded`, `Cancelled`) pass through unwrapped.  See the
"Serving" section below.

Run the fault-injection suite with `scripts/run_resilience.sh`
(equivalently `pytest -m resilience`).
"""


BACKENDS_SECTION = """
## Kernel backends & the op pipeline

Every Table-I operation runs through a two-stage pipeline
(`repro.graphblas.plan` → `repro.graphblas.backends`): the *planner*
resolves string specs to operator objects, applies descriptor flags, and
validates shapes/domains up front, producing a typed `OpPlan`; the
*dispatcher* hands that plan to the selected `KernelBackend`.  All
backends funnel results through the same accum-then-mask write step, so
they are interchangeable per call, per block, or process-wide:

```python
import repro.graphblas as gb

gb.mxm(C, A, B, "PLUS_TIMES", backend="optimized")  # per call
with gb.backend("reference"):                       # per block (thread-local)
    bfs_level(0, graph)
gb.set_default_backend("differential")              # process-wide
# or: GRAPHBLAS_BACKEND=reference pytest tests/graphblas
```

Built-in engines:

* **`optimized`** (default) — the production engine: SpGEMM method
  selection, push/pull mxv direction switching, masked kernels.  Its
  mxm/mxv/vxm run the compiled kernels (below) whenever a toolchain
  resolved and the plan's class has a template, and vectorized NumPy
  kernels otherwise; `plan.done` records which (`kernel`).  The name
  `compiled` resolves to this same engine (it warns once when no
  toolchain is usable); it is kept for callers that select the tier by
  name.
* **`reference`** — the dense spec-literal mimic promoted to a full
  engine; every op is a loop written line-by-line from the spec.  Slow,
  but an oracle: the whole `tests/graphblas` suite passes under it.
* **`differential`** — runs `optimized`, so the kernel tier production
  runs (compiled or NumPy, the same `plan.kernel`), then re-executes
  every operation whose dense replay fits the verification budget on
  `reference` (the `diff.*` rows of [Configuration](#configuration)) and
  compares pattern + values, raising `BackendDivergence` on mismatch;
  over-budget ops are counted as skipped
  (`get_backend("differential").stats`).  CLI:
  `scripts/run_differential_check.py --scale 14`.

Dispatch is one call: the selected backend runs the plan or raises.
No backend declines a plan and nothing walks to another engine; which
kernel tier ran is `plan.kernel`.  Selection is observable (the
`backend.dispatch` telemetry decision), settable at the C-API level
(`capi.GxB_Backend_set/get`), and extensible: `register_backend(name,
factory)` adds an engine, which must serve every op it is asked to run
(a missing one raises `NotImplementedError`).  `Matrix.to_scipy/from_scipy` and
`Vector.to_scipy/from_scipy` convert at the boundary.
"""


COMPILED_SECTION = """
## Compiled kernels

`repro.graphblas.compiled` is the code-generation analogue of
SuiteSparse's ~960 pre-compiled semiring built-ins, and the kernel tier
the default backend runs for mxm/mxv/vxm.  Where the NumPy kernels
apply a semiring's operators to whole arrays (vectorized, but
structurally unable to stop mid-row), this tier renders one monomorphic scalar kernel set per
`(add, mult, A type, B type, output type)` from a template library —
Gustavson SpGEMM (two-phase count/fill with a sparse accumulator),
sorted-intersection dot products for fused-mask mxm and push/pull
mxv/vxm — and compiles it with the
first usable toolchain:

1. **numba** — `@njit(nogil=True)` over the generated Python source
   (`pip install .[compiled]`);
2. **cc** — the same kernels as generated C (`-O3 -fwrapv
   -ffp-contract=off`), built with the system compiler, loaded via
   `ctypes` (which releases the GIL for the PR-5 row-parallel pool),
   and content-addressed under `GRAPHBLAS_COMPILED_DIR` so warm
   artifacts survive across processes;
3. **python** — the generated source interpreted as-is: far too slow to
   auto-select, but an oracle for parity-testing the template logic
   (`GRAPHBLAS_COMPILED_TOOLCHAIN=python`).

**Selection.** `compiled.select(plan)` is the one kernel choice: a
memoised function of the plan *class* — add, mult, A, B and output
types, heap method, resolved toolchain — not of a backend name or a
size; `compiled.select_class` is the same function for direct
`mxm_tiled`/`mxv_tiled` calls, which have operands but no plan (the
tiled route itself runs on its plan's `select`).  It returns a kernel set
(compiled runs) or None (NumPy runs), caches declines as well as
kernels in one 128-class LRU (`compiled.CACHE_SIZE`, counters in
`compiled.cache_stats()`) — the only kernel cache — builds each class's kernels once however
many threads race to first use, and costs a dictionary hit per call.
The templates cover the semirings the section-V algorithms issue:
add monoids PLUS/TIMES/MIN/MAX/LOR/LAND/ANY; multiplies FIRST, SECOND,
PLUS, MINUS, TIMES, MIN, MAX, LAND, LOR, ONEB and the positional
FIRSTI/FIRSTI1/FIRSTJ/SECONDI/SECONDJ/SECONDJ1, which write the loop's
i, k or j as the product.  **Typed operand slots**: each operand is
loaded in its own type and cast to the domain NumPy's multiply computes
in (*Mathematical Foundations of the GraphBLAS*' domain rules); the
product is cast to the output type and folded there, so `LOR_LAND` on
FP64 x BOOL (BFS over a weighted graph) yields FP64 0/1.  **`ANY`** is a
keep-first fold that stops at its first term, byte-equal to
`Monoid.reduce_segments`' first-of-segment rule.  It declines:
user-defined ops or types, multiplies without a template (DIV, the
comparisons, ...), LOR/LAND folds into a non-BOOL output over products
that are not 0/1, a float product cast into an integer output, the heap
method, any dimension above `1<<24`, and everything when no toolchain
resolved — silently: only selecting the `compiled` name
(`GRAPHBLAS_BACKEND=compiled`, `backend="compiled"`) warns, once.  A kernel build that fails
(an unwritable artifact directory, a broken compiler) warns once and
declines its class, so NumPy runs.  `with compiled.toolchain_off():`
runs a block on the NumPy kernels.
Accumulators and masks are applied by the shared write step either way.
The compiled kernels trip the same fault points (`spgemm.flop`,
`mxv.push`, `mxv.pull`) and governor polls as the NumPy ones.

The headline semantic upgrade is **true terminal early exit**: for
monoids with an annihilator (LOR's `true`, LAND's `false`, MIN/MAX
extrema, TIMES' 0) the dot and pull loops break on the exact term that
reaches it, and an `ANY` fold on its first term — the NumPy dot kernel
can only skip 64-wide blocks.  A pull under a complemented mask visits
only the rows the mask admits (BFS's pull skips the visited set), on
both tiers; the write step still applies the mask.  Exit
behavior is reported in `mxm.early_exit` / `mxv.early_exit` telemetry
(terminated/eligible counts, scanned terms, summed hit depth) and the
`graphblas_early_exit_total` counter.

Cache traffic shows up as `compiled.kernel` telemetry
(`event="compile"` with wall seconds, `event="hit"`), the
`graphblas_compile_seconds` histogram and
`graphblas_compiled_kernel_cache` gauges in the obs registry.  Each
`plan.done` record carries the tier that ran (`kernel`: `compiled` or
`numpy`) and that plan's own memo outcome (`kernel_cache`: `hit` or
`built`) — read off the plan, so concurrent plans never absorb each
other's compiles — shown in the `kernel` and `cmp` columns of
`obs.explain` reports.

**Numerics.** Float PLUS/TIMES reductions are a strict ascending-k left
fold on every default path: the Gustavson SPA, push, pull and dot
kernels.  A governed tiled product runs its chunks on those same
kernels, chosen by the same `select`, so it is byte-for-byte its
in-memory twin.  Integer and order-insensitive
(MIN/MAX/logical) results are bit-identical to the NumPy kernels; boxes
with the toolchain off run NumPy, whose `reduceat` unrolls long float
segments and may differ from the strict fold in the last ulp (tiled and
in-memory still agree with each other there).

Tunables are the `compiled.*` rows of [Configuration](#configuration)
(`capi.GxB_Compiled_set` / `GxB_Compiled_get`; the getter adds the
resolved toolchain and the memo counters).

`benchmarks/bench_compiled_kernels.py --scale 14` checks the tier's
margins against the same backend with the toolchain off (warm compiled
Gustavson >= 1.5x, early-exit LOR_LAND pull >= 3x on selective masks,
zero differential divergences, tier-off bit-identity); the committed
trajectory is `perfbench/results/baseline.json` (`kernel.mxm_compiled_s`
against `kernel.mxm_engine_s`).
"""


TELEMETRY_SECTION = """
## Telemetry & diagnostics

`repro.graphblas.telemetry` instruments the whole engine — every Table-I
operation, the kernel decision points, and the LAGraph algorithms — with
a thread-local collector that costs one module-attribute read
(`telemetry.ENABLED`, ~20 ns) when nothing is listening.  Attach a
collector with `telemetry.collect()` (context manager) or
`telemetry.enable()` / `telemetry.disable()`, then read results three
ways:

* **Burble** — a SuiteSparse-`GxB_BURBLE`-style live diagnostic stream.
  `telemetry.collect(burble=True)` (or `capi.GxB_Burble_set(True)`)
  prints one line per operation with wall time and output `nvals`, plus
  kernel decisions as they happen: SpGEMM method selection, push/pull
  direction with the frontier density that drove it, dot-product early
  exits, format switches, and zombie/pending-tuple assembly.
* **Snapshot** — `telemetry.snapshot()` returns a JSON-serializable dict
  of per-op counters (`calls`, `seconds`, `out_nvals`, `flops` for
  mxm/mxv/vxm, `bytes_moved` for import/export and file I/O), decision
  counts, and span timings.  The same dict is available at the C-API
  level as `capi.global_stats()`.
* **Chrome trace** — `Collector.write_chrome_trace(path)` (or
  `scripts/export_trace.py`) emits Chrome `trace_event` JSON: ops and
  algorithm spans as complete events, decisions as instants.  Load the
  file in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

Algorithm spans cover `bfs`, `sssp.bellman_ford` / `sssp.delta_stepping`,
`triangles`, `components.fastsv`, `pagerank`, and betweenness, each with
per-iteration instant records (frontier sizes, residuals, buckets,
rounds).  The direction-optimization threshold is tunable at runtime via
`repro.graphblas.set_switch_threshold()`.

The benchmark harness grows a `--telemetry` flag that wraps every bench
in a collector and writes `<name>.telemetry.json` next to the results;
`benchmarks/bench_telemetry_overhead.py` pins the disabled-path overhead
(see `benchmarks/results/telemetry_overhead.txt`).  Demo:
`scripts/run_telemetry_demo.sh` runs BFS + PageRank on an RMAT graph
with burble on and exports a trace.
"""

GOVERNOR_SECTION = """
## Resource governance & recovery

`repro.graphblas.governor` puts long-running graph work under an
**execution governor**: a thread-local `ExecutionContext` that enforces a
memory budget and a wall-clock deadline, carries a cooperative
`CancellationToken`, and drives checkpoint/resume for the iterative LAGraph algorithms.  Like
faults and telemetry, the disabled path costs one module-attribute read
(`governor.ACTIVE`); with no context entered nothing changes.

```python
from repro.graphblas import governor

ctx = governor.ExecutionContext(
    memory_budget=64 << 20,            # bytes, estimated per operation
    deadline=60.0,                     # seconds from __enter__
)
with ctx:
    pagerank(graph, checkpoint="/tmp/pr.npz")
```

* **Admission control** — every planner submits its `OpPlan` to the
  governing context *before any output is allocated*.  The estimated
  result footprint (an nnz-based bound per op; flops-based for `mxm`)
  is compared against the budget: within budget → admitted; over budget
  → `mxm`/`mxv`/`vxm` are **re-planned as tiled spill execution** (see
  "Bounded-memory execution" below) when spilling is enabled (the
  context's `spill=`, else the `GRAPHBLAS_SPILL` switch); every other
  op, and any op with spilling off, raises `BudgetExceeded`, whose
  message reports the estimated vs available bytes and why tiling was
  unavailable (`not tileable` / `tiled spill disabled`).  Over budget
  has exactly these two answers.  Because rejection happens at plan
  time, the inputs are untouched and still pass `graphblas.validate`.
  Earlier revisions had a third, routing the plan to the dense
  `reference` backend — the §II.A test oracle, which allocates an m×n
  value and pattern array per operand.  Measured on RMAT-12 (n = 4096,
  53k entries per operand; 2-core machine, cc toolchain, `tracemalloc`),
  an `ewise_add` one byte over its 2.44 MiB estimate took 64.9 s and
  864 MiB there (44 ms and 10.2 MiB unbudgeted), and an `apply` at half
  its estimate 60.9 s and 720 MiB; refused, each takes under 1 ms and
  0.04 MiB.  The route was deleted.
* **Deadline & cancellation** — `ctx.cancel()` (any thread) or an
  expired deadline makes the next *poll* raise `Cancelled` /
  `DeadlineExceeded`.  Every op polls at admission, so an iterative
  algorithm stops at its next op; kernels also poll at SpGEMM method
  boundaries, at mxv direction switches, per concat/split tile, and at
  the top of `wait()` — all positions where every object is fully
  consistent, so a cancelled computation leaves valid operands.
* **A failed op fails once** — an op whose kernel raises (an injected
  fault, a real `MemoryError`) is not replayed: the error propagates at
  once and, as the LAGraph follow-up's error-handling rule asks, leaves
  every operand unchanged and valid.  Re-running a deterministic kernel
  after a simulated out-of-memory cannot help, so no layer does it.  The
  one retry in the library is the spill pool's re-run of an `OSError` on
  its own tile I/O ("Bounded-memory execution" below): each re-run polls
  the context's deadline/cancellation first, counts in
  `ctx.stats["retries"]` and emits `governor.retry`.
* **Checkpoint/resume** — `bfs`, `bellman_ford_sssp`, `pagerank`,
  `connected_components`, `betweenness_centrality`, and `dnn_inference`
  accept `checkpoint=` (a path, a `governor.Checkpoint(path, every=k)`,
  or a callable) and `resume=`.  All of them run their loops through
  `governor.iterate(algorithm, state, step)`, the one iteration driver:
  it opens the algorithm's span, emits the record each `step` returns,
  saves a checkpoint after each completed step (so `every=k` fires
  after steps k, 2k, … for every algorithm) and restores `resume=` with
  one check that the snapshot fits the run.  Snapshots serialize the
  loop-carried state through `repro.io.checkpoint.save_state` — a
  single `.npz` written to a temp file, `fsync`-ed and atomically
  renamed, so a crash or power loss mid-save
  preserves the previous snapshot.  Resume restores containers
  bit-identically (`load_checkpoint` rejects a snapshot written by a
  different algorithm), and because each loop body depends only on the
  loop-carried state, a killed-and-resumed run produces exactly the
  bytes of an uninterrupted one.

New `GrB_Info` codes cross the C-API boundary: `GxB_BUDGET_EXCEEDED`,
`GxB_DEADLINE_EXCEEDED`, `GxB_CANCELLED`; `capi.GxB_Context_new()`
constructs a context from C-API code.  Every governor decision —
`governor.admit` / `governor.tiled` / `governor.reject` /
`governor.cancel` / `governor.retry` / `governor.checkpoint` /
`governor.resume` — is a telemetry decision event, aggregated under the
`"governor"` key of `telemetry.snapshot()`.

The `governor.*` rows of [Configuration](#configuration) wrap each
resilience test in a governed context (`governor.env_limits()`); the CI
governor leg runs the whole suite under `64m` / `60`.
"""


TILED_SECTION = """
## Bounded-memory execution

`repro.graphblas.tiled` turns the governor's refusal of an oversized
`mxm`/`mxv`/`vxm` into "run anyway, bounded memory".  A
`TiledMatrix` partitions a matrix into a 2D grid of hypersparse blocks;
`mxm_tiled` / `mxv_tiled` schedule work stripe by stripe; and cold tiles
are spilled as raw arrays to one arena file per pool and reloaded on
demand under an LRU resident-byte budget (`SpillPool`).  The route is transparent:
when an admitted plan's estimated footprint exceeds the context budget
and spilling is enabled, the dispatcher re-plans `mxm`/`mxv`/`vxm` as
tiled execution instead of rejecting —

```python
from repro.graphblas import governor

with governor.ExecutionContext(
    memory_budget=64 << 20, spill_budget=64 << 20
) as ctx:
    gb.mxm(C, A, A, "PLUS_TIMES")      # runs tiled, same bytes out
assert ctx.stats["tiled"] == 1
```

* **Bit-identical results** — each chunk of the tiled path *is* the
  in-memory kernel call (floats included): a row chunk of output stripe
  I runs as one `mxm_coo` Gustavson product of its A rows (every inner
  tile, global `(i, k)`) against the B rows they reference (gathered
  from every column tile, global `(k, j)`), on the kernels
  `compiled.select` picked for the plan; an `mxv`/`vxm` stripe is one
  `spmv_pull`.  The rows are whole, so each output entry folds in the
  same ascending-`k` order as in memory, and positional multiplies see
  the in-memory `(i, k, j)`.  Stripes run in row chunks sized by
  predicted flops (`TiledMatrix.major_lengths()`; `chunk_bytes`,
  default `memory_budget / 6`, floor 1 MiB), and a chunk's gathered B
  entries never outnumber its flops, so the working set stays bounded
  on RMAT hub rows.  The kernel's own fault points (`spgemm.flop`,
  `mxv.pull`), row blocks (`GxB_NTHREADS`) and `plan.kernel` /
  EXPLAIN `kernel` apply unchanged; a kernel fault fails the op once,
  operands untouched and no tile left behind.  The hypothesis suite proves parity
  across all four `(by_row/by_col) x (standard/hyper)` formats,
  including a chunked product used as an operand.
* **Spilled tiles are the arrays** — a store *is* its three or four arrays
  (the paper's §IV O(1) import/export argument), so a spilled tile is
  one fixed header of eight int64 words (magic, `n_major`, `n_minor`,
  orientation, `h`/`indptr`/entry counts with `h = -1` for a
  non-hypersparse store, value dtype) followed by `h`, `indptr`, `minor`
  and `values` exactly as they sit in memory: no container, no
  compression, no per-array header to parse.  A reload is one read into
  a preallocated buffer plus four writable views on it; the bytes read
  must be what the header implies, so a short or torn tile is an
  `OSError` for the pool's retry loop, never a garbage tile.
  Checkpoints keep compressed `.npz`: they are written once, kept, and
  read by other processes, where a self-describing compressed container
  earns its cost; a spilled tile lives for one operation and is re-read
  many times.
* **Write-behind output** — everything `mxm_tiled` produces enters the
  pool at the *eviction* end (`SpillPool.put(..., behind=True)`), so
  output streams to disk as it is made instead of flushing the operand
  tiles the very next chunk reads again: operands that fit the pool are
  never reloaded during the product.
* **Pieces per cell** — a chunked stripe's row-run pieces stay pieces: a
  grid cell of a `TiledMatrix` holds an ordered list of them.  Nothing
  is reloaded to be concatenated into a (possibly larger-than-pool) grid
  tile and spilled a second time; `tile(bi, bj)` concatenates on demand
  for operand use, `iter_stripes` loads only the pieces a row run
  overlaps, and per-row lengths and `nvals` are recorded as pieces are
  put, so `major_lengths()` and `.nvals` never touch disk.  On
  `spill_r12` (seed 7) this took tile reloads from 4 622 to 588, bytes
  re-read from 242 MiB to 23 MiB and raw bytes written from 38 MB to
  19.6 MB.  (The "12.2× read amplification" earlier revisions quoted
  divided uncompressed bytes read by *compressed* bytes written; like
  for like it was ≈ 6.6×, and is now ≈ 1.25×.)
* **Fault-hardened spill I/O** — each `SpillPool` spills into one
  anonymous arena file in the spill directory (`tempfile.TemporaryFile`,
  unlinked as it is created) with an offset table `key → (offset,
  nbytes)`: a spill is one positional write at the arena's end, recorded
  only once complete, and a reload is one read of `nbytes` at its offset,
  checked against the tile's header.  Tile writes and reads trip the
  `io.write`/`io.read` fault points, and the pool re-runs one that raised
  `OSError` — three tries, 5 ms then 10 ms apart, constants with no
  option — the library's one retry, for the one transient that really
  happens (a disk briefly full, a torn tile); a failed write is
  overwritten in place by its retry.  Anything else, `OutOfMemory`
  included, fails the op at once.  The directory holds no entry of an
  open pool, and neither `close()` nor a crash leaves anything behind, so
  there is nothing to clean up.  `tests/resilience/test_spill_faults.py`
  proves injected faults never corrupt operands or leak spill files.
* **Bounded streaming** — `TiledMatrix.iter_stripes(max_bytes=...)`
  yields sorted coordinate blocks of bounded size (per-tile row slabs
  via `major_slab`), so a result bigger than memory can be consumed
  without ever materializing a full stripe.
  `benchmarks/bench_spill_tiled.py` streams RMAT-16 `A*A` under a
  64 MiB budget this way and gates peak RSS at `budget * 1.2`; the
  committed trajectory of the spill path is the `spill_r12` workload
  of `perfbench/results/baseline.json`.

Process-wide defaults are the `spill.*` rows of
[Configuration](#configuration) (`governor.set_spill_config`, C API
`capi.GxB_Spill_set` / `GxB_Spill_get`); per-context `spill=` /
`spill_dir=` / `spill_budget=` kwargs override them.
`method="tiled"` on the descriptor forces the tiled path for
an in-budget op.  Telemetry records `governor.tile_plan`,
`governor.spill`, and `governor.reload` decisions with byte counts.
"""


ENGINE_SECTION = """
## Performance engine

`repro.graphblas.engine` is the hot-path acceleration layer: two
orthogonal mechanisms behind one switch, each bit-for-bit identical to
the serial, single-format run it replaces (`GRAPHBLAS_ENGINE=off` or
`engine.set_engine(False)` restores that baseline exactly, which is how
the differential and parity suites cross-check it).  The switch does
not pick kernels: `compiled.select_class` chooses the compiled tier or
the NumPy kernels, and its memo is the only kernel cache (see
[Compiled kernels](#compiled-kernels)).

```python
from repro.graphblas import engine

engine.set_engine(True, workers=4)      # the engine.* rows of Configuration
engine.pool_stats()                     # configured / started / live_threads
engine.set_engine(False)                # bit-identical baseline
```

* **Dual-format storage** — a Matrix lazily caches its opposite
  orientation (CSR↔CSC twin) with mutation-epoch invalidation, so
  pull-phase `mxv`/`vxm` and transposed reads after the first
  conversion are O(1); the masked dot `mxm` reads B's columns from
  that twin (or, with `transpose_b`, from B's own rows for free)
  instead of re-sorting B per call; `transpose` into a fresh matrix
  becomes a pointer swap that also hands the output a warm twin.  Every
  serve and fill is a `engine.twin` / `engine.transpose` telemetry
  decision.
* **Parallel row-blocked kernels** — big-enough SpGEMM expansions and
  pull mxv segment reductions are split at row boundaries (so
  concatenated block outputs equal the serial result bit for bit) and
  run on a shared thread pool.  `engine.admit_blocks` states when a
  call goes parallel: the `parallel` option is on, the work clears
  `MIN_PARALLEL_FLOPS` / `MIN_PARALLEL_ENTRIES`, and, for NumPy blocks,
  the semiring is a builtin non-positional multiply with a builtin
  monoid.  The requested worker count
  (`Descriptor(nthreads=...)` / `GxB_NTHREADS`, else the
  `engine.workers` option) is submitted to the execution governor,
  which clamps it to what the memory budget funds — degrading to
  serial, never rejecting.  Per-block timings appear as
  `engine.block` telemetry spans.

Supporting fast paths run whatever the switch says: `wait()` skips the
sort and merge when the pending log is already sorted, unique, and
zombie-free (`fast_path` field on the `assembly` telemetry decision);
`formats.coo_sort_fold` — the one sort-and-group step of `from_coo`
and Gustavson's expansion — detects presorted
input and otherwise sorts once on a fused `major * n_minor + minor`
key (`np.lexsort` only when that key would overflow int64);
`coords.match_coo` — the matcher behind eWise ops, mask writes and
`coords_in` — merges its two presorted operands with one stable
argsort of the same kind of key; and the planner memoizes string →
operator resolution (`plan.resolver_cache_stats()`).

The C API exposes the engine as `GxB_Engine_set` / `GxB_Engine_get`
(the getter adds the live `pool` stats); the tunables are the
`engine.*` rows of [Configuration](#configuration).
"""


OBS_SECTION = """
## Observability

`repro.obs` is the production metrics layer on top of the telemetry
stream: where a `Collector` traces *one run on one thread*, the
observability registry aggregates *every thread since process start*
into the cumulative counters and latency percentiles a scraper expects.
`obs.enable()` (or `GRAPHBLAS_OBS=on`, or `capi.GxB_Obs_set(True)`)
installs a `MetricsSink` into the telemetry module; from then on every
instrumented site — Table-I op timers, backend dispatch, governor
verdicts, spill traffic, engine events — feeds a process-wide
`MetricsRegistry` with no collector attached and no call-site changes.

* **Registry** — per-thread shards (plain dicts, no lock on the hot
  path) merged at read time; shards survive thread exit so counters
  never go backwards.  Counters, last-write/callback gauges
  (kernel-cache occupancy, pool workers, resolver cache), and
  log2-bucketed histograms with geometric-interpolation p50/p90/p99.
* **Exposition** — `obs.prometheus_text()` renders Prometheus text
  format 0.0.4 (cumulative `_bucket`/`_sum`/`_count` series,
  HELP/TYPE, escaped labels; `obs.check_prometheus_text` lints it);
  `obs.json_snapshot()` is the same data as JSON;
  `obs.start_emitter(interval_s=30)` (or the `obs.emit_s` option)
  appends periodic JSON lines to a stream.  CLI:
  `scripts/export_metrics.py --demo --check` runs a workload, writes
  both formats, and cross-validates their totals.  C API:
  `capi.GxB_Metrics_get(format="snapshot"|"json"|"prometheus")`.
* **EXPLAIN** — `obs.explain(fn, *args)` runs one call under per-plan
  event capture and returns an `ExplainReport`: one row per executed
  `OpPlan` with route (direct/tiled), backend, SpGEMM
  method / mxv direction, estimated vs actual result bytes,
  kernel-cache delta, tile/spill counts, and wall time — so "why was
  this op slow" is answerable without a trace viewer.  The same
  per-plan records feed the **slow-op log** (`obs.slow_ops()`, a
  bounded min-heap of the worst plans; threshold, capacity and the
  other `obs.*` tunables are in [Configuration](#configuration)).

```python
from repro import obs
import repro.lagraph as lg

obs.enable(slow_ms=50)
lg.pagerank(graph)
print(obs.prometheus_text())          # scrape body
report = obs.explain(lg.bfs_level, 0, graph)
print(report.text())                  # per-plan EXPLAIN table
worst = obs.slow_ops()                # slowest plans since enable()
```

Disabled cost is unchanged from plain telemetry — one module-attribute
read per site; enabled cost is a few shard-dict writes per record
(`benchmarks/bench_obs_overhead.py`; PR 7 measured the disabled guard
at ~17 ns and the metrics-on geomean at ~1.2x across the Table-I
kernels, and `harness.trace_overhead_x` in
`perfbench/results/baseline.json` tracks the traced-vs-untraced ratio).  The CI metrics-smoke leg runs the
obs + telemetry suites, the exporter round-trip, a 4-thread Chrome
trace merge (`scripts/export_trace.py --demo --threads 4`), and the
overhead budget.
"""


STREAM_SECTION = """
## Streaming & incremental maintenance

`repro.stream` turns the pending-tuple machinery into a streaming-graph
layer.  The non-blocking update log (`repro.graphblas.updatelog`) that
every `set_element`/`remove_element` already flows through is shared
between `Matrix` and `Vector`; with `A.track_deltas(True)` each
assembled `wait()` additionally emits a **`DeltaBatch`** — the window's
insertions, deletions, and the exact entries they displaced — and
`A.deltas_since(epoch)` returns the contiguous chain of batches between
two adjacency epochs (or `None` when a bulk mutation broke the chain).
A batch exposes `new_edges()` / `overwritten_edges()` /
`removed_edges()` / `touched_rows()` and renders as a hypersparse
matrix via `as_matrix()`.

* **`GraphStream(n, kind=, window=, width=)`** — timestamped edge-batch
  ingestion (`ingest(src, dst, ts, weights=None)`, timestamps must be
  non-decreasing; `flush()` closes the open window at end-of-stream).
  `window="tumbling"` accumulates the graph and uses windows as batch
  boundaries; `window="sliding"` keeps only edges with timestamps in
  the trailing `width` horizon, so window closes also *remove* expired
  edges (a coordinate expires only when no in-horizon event still
  asserts it).  Under an active governor `ExecutionContext` with a
  memory budget, over-budget windows are **chunked, not rejected**:
  the update log is applied in budget-sized slices, each settled by
  its own `wait()`, and the delta chain stays contiguous.  Every close
  records `stream_edges_total` / `stream_windows_total` /
  `stream_window_assembly_seconds` / `stream_edges_per_second` in
  `repro.obs` and wraps assembly in a `stream.window` telemetry span —
  `obs.explain` stamps plans executed inside it with a `win` column.
* **Incremental maintainers** — each caches one algorithm's result plus
  the epoch it was computed at; `update()` advances it from the delta
  chain and falls back to the from-scratch algorithm (its parity
  oracle) when the chain is broken or the delta violates its
  assumptions, counting `recomputes`:
  * `DynamicPageRank(graph, damping=, tol=)` — carries ranks *and* the
    residual across windows; a window adjusts the residual only at
    vertices whose out-links changed, then, while `‖r‖₁ > tol`, runs
    Jacobi sweeps — each one gather + `bincount` over the graph's
    edge list (built only if a sweep is needed), with dangling mass
    as one scalar — so a window costs O(delta) plus O(e) per sweep.
    Parity contract: `‖p − p*‖₁ ≤ 2·tol/(1−damping)` against a
    converged from-scratch `pagerank` (which also accepts `init=` for
    plain warm restarts).
  * `IncrementalComponents(graph)` — insertions can only merge
    components, so labels advance via a min-label union-find
    (`components.merge_labels`); windows with physical deletions
    recompute with FastSV.  **Exact** parity.
  * `IncrementalTriangles(graph)` — the count advances by
    `triangles.triangle_count_delta`: with A′ the final adjacency and
    Δ the chain's net ±1 delta (`updatelog.chain_net_edges`, loops
    dropped), ΔT = ½Σ(Δ∘A′A′ᵀ⟨Δ⟩) − ½Σ(Δ∘A′Δᵀ⟨Δ⟩) + ⅙Σ(Δ∘ΔΔᵀ⟨Δ⟩),
    three Δ-masked dot products (PLUS_PAIR, PLUS_SECOND, PLUS_TIMES)
    with A′'s self-loops subtracted at Δ's rows.  Value-only
    overwrites and edges that net out over a catch-up leave Δ empty; a
    chain whose net delta cannot be keyed (n > 2³¹) recounts.
    **Exact** parity.
* **Graph cache patching** — `lagraph.Graph` cached properties
  (`out_degree`, `in_degree`, `AT`, `nself`) are epoch-checked and
  *patched forward* through the delta chain instead of recomputed; the
  old staleness footgun (mutating `A` without `delete_cached()`) is
  gone.  `weight_summary` (min, mean, max) and `delta_split(delta)`
  (delta-stepping's light/heavy pair, one entry kept) have no patcher
  and are recomputed when stale.
* **Log-depth gauges** — with `obs.enable()`,
  `graphblas_pending_tuples` / `graphblas_zombies` report unassembled
  log depth across live matrices and vectors.

```python
from repro.stream import (GraphStream, DynamicPageRank,
                          IncrementalComponents, IncrementalTriangles)

st = GraphStream(n, window="sliding", width=60.0)
pr, cc = DynamicPageRank(st.graph), IncrementalComponents(st.graph)
for win in st.ingest(src, dst, timestamps):
    ranks, sweeps = pr.update()          # residual adjust + sweeps
    labels = cc.update()                 # union-find or FastSV fallback
    print(win.index, win.edges_per_s, len(win.deltas))
```

`benchmarks/bench_stream_ingest.py` is the acceptance harness: an
RMAT-14 tumbling stream where every window is parity-asserted against
the from-scratch algorithms while both sides are timed (PR 8 measured
a 5.8x median combined speedup and a 32 MiB peak-RSS delta under the
64 MiB governor envelope; the committed trajectory is the `stream_r14`
workload of `perfbench/results/baseline.json`); the CI
`stream-smoke` leg replays it at scale 11 plus the stream, update-log
property, and graph-cache suites.
"""


SERVE_SECTION = '''
## Serving

`repro.serve` is a long-lived, in-process, multi-tenant serving layer:
one `GraphServer` owns a set of named graphs, publishes immutable
copy-on-write snapshots of each, and answers concurrent algorithm
queries over a worker pool while staying up through faults, overload,
and misbehaving backends.

```python
from repro.serve import GraphServer

with GraphServer(workers=4) as srv:
    srv.add_graph("social", n=1 << 20)          # or graph=, or stream=
    srv.ingest("social", src, dst)
    srv.publish("social")                        # atomic snapshot swap

    ranks = srv.query("pagerank", graph="social")            # sync
    t = srv.submit("bfs", graph="social", source=0,          # async
                   tenant="alice")
    levels = t.result(timeout=30)                # ticket: outcome,
    print(t.backend, t.tier, t.exec_s)           # backend, tier, timings
```

**Snapshots.** `publish()` flushes the graph's ingest window and swaps
in a new immutable snapshot under a monotone epoch; queries pin the
epoch current at submit time (`ticket.snapshot`), so a query computes
exactly what a direct call on that snapshot computes — bit-for-bit,
regardless of concurrent ingest and republication
(`tests/serve/test_snapshot_property.py` drives random interleavings
over all four storage formats, plus real writer/reader threads).

**Tenancy and admission.** The bounded admission queue sheds instead of
queueing unboundedly: at capacity each tenant is held to its fair share
(`capacity // active_tenants`), and `register_tenant` attaches a
`TenantPolicy` (per-request `memory_budget`, `deadline_s` and a hard
`max_queue` cap).  Rejection raises `Overloaded` with
a machine-readable `reason` (`queue_full` / `tenant_quota` /
`tenant_limit` / `deadline_watermark`).  Every request executes under its own governor
`ExecutionContext` built from the tenant policy, so budgets, deadlines,
and cancellation compose with the whole engine stack (tiling, spill,
checkpoint).

**Failure taxonomy.**  Serving failures map onto the engine's two-tier
error model: *caller errors* (`InvalidValue` for an unknown algorithm
or graph, and every governor refusal — `BudgetExceeded`,
`DeadlineExceeded`, `Cancelled`) are terminal and re-raised from
`ticket.result()` as-is, with outcome `invalid` / `budget` /
`deadline` / `cancelled`.  *Execution faults* (`OutOfMemory`, backend
exceptions) surface at once, wrapped in `QueryFailed` with the original
exception as `__cause__`, outcome `failed`.  Nothing replays either
kind: a query runs once.

**Resilience**, each mechanism handling an error a call returned:

1. **one run per query** — a fault inside a query (an injected
   `serve.exec` or kernel fault, a real `MemoryError`) ends exactly
   that ticket `failed` after one run and leaves the pinned snapshot
   untouched, so the next query on it is answered exactly.  Earlier
   revisions nested three retry loops here — the serve loop, a
   dispatch-level re-run of the failing kernel, and the spill pool —
   around an `OutOfMemory` that only the fault injector ever raised
   (`serve.retries` read 0 on `serve_rw_r12`); re-running a
   deterministic kernel after a simulated out-of-memory cannot help, so
   the two outer loops, their options (`ServeConfig.seed` / `attempts` /
   `base_delay_s` / `max_delay_s`, `TenantPolicy.attempts`,
   `ExecutionContext(retry=)`) and `serve_retries_total` were deleted.
   `ticket.retries` is a constant 0.  The spill pool still re-runs an
   `OSError` on its own tile I/O.
2. **shedding** — past the queue depth, a tenant's share, or the
   deadline watermark, admission refuses with `Overloaded`.

Every query runs on one backend, `ServeConfig.backend`.  Earlier
revisions failed over down `fallbacks=("reference", "scipy")` behind
per-backend circuit breakers.  The chain could not help: one call of
each served algorithm at RMAT-12 took 600–1 500× longer on `reference`
(bfs 8.4 s against 13 ms), and the `scipy` bridge served only
PLUS_TIMES products, which it ran slower than the default (`A*A` 935
against 154 ms), declining the rest back to the backend that had just
failed.  Under a persistent `mxv.push` fault a served RMAT-12 bfs
answered from `reference` after 13.6–14.9 s; it ended `failed` after 3
kernel runs in 5–11 ms (2-core x86 box), and now after one.  With one backend left, the
breakers were measured on (threshold 5) against off, RMAT-12, 2 workers,
4 closed-loop clients, 300 mixed queries per run, three seeds:

| `serve.exec` fault rate | breakers | answered of 300 | goodput q/s | e2e p99 ms |
|---|---|---|---|---|
| 0.05 | on | 300 / 300 / 300 | 87 / 127 / 118 | 96 / 61 / 67 |
| 0.05 | off | 300 / 300 / 300 | 102 / 113 / 134 | 80 / 65 / 56 |
| 0.9 | on | 6 / 2 / 3 | 64 / 22 / 39 | 18 / 11 / 11 |
| 0.9 | off | 87 / 82 / 69 | 82 / 76 / 73 | 46 / 50 / 43 |

At 0.05 they never tripped.  At 0.9 they cut p99 only by refusing
queries that would have been answered, so they were deleted with the
`breaker_*` options, the `serve_breaker_*` metrics and the
`health()["breakers"]` field.

Queue load changes nothing about how an *admitted* query runs.  Earlier
revisions walked a load ladder — `full` → `lite` (performance engine
switched off process-wide, refcounted) → `reference` (dense backend
first) at 0.60 / 0.85 queue load.  It degraded toward *slower* engines
exactly when the queue was full, and flipped a process-global under
every concurrent query.  Measured before removal (workers 2, queue
depth 16, 16 tickets in flight closed-loop, RMAT-12 seed 7, 100 mixed
queries, every answer checked, alternating runs):

| three alternating rounds | wall s | queries/s | e2e p95 s | wrong |
|---|---|---|---|---|
| ladder on (0.60 / 0.85) | 238 / 262 / 286 | 0.42 / 0.38 / 0.35 | 39.0 / 41.6 / 42.1 | 0 |
| ladder off (both watermarks 2.0) | 1.90 / 1.75 / 1.72 | 52.5 / 57.2 / 58.2 | 0.96 / 0.92 / 0.91 | 0 |
| ladder removed | 1.22 / 1.18 / 1.70 | 81.7 / 85.1 / 58.7 | 0.23 / 0.23 / 0.90 | 0 |

(40 of the 100 queries ran `lite` or `reference`; four further off /
removed pairs read 1.9–2.2 s and 1.6–2.0 s — the two are the same
within run-to-run spread.)

It never raised goodput, so it was deleted with its watermarks, the
`serve_tier` gauge, `serve_degrade_total` and `health()["tier"]`.

**Operations.**  `health()` / `ready()` / `stats()` report liveness,
queue state and outcome counts; `drain()` finishes queued
work and refuses new submits (`ServerClosed`); serve metrics
(`serve_requests_total`, `serve_request_seconds`, `serve_shed_total`,
`serve_queue_depth`, `serve_inflight`, ...)
land in the `repro.obs` registry for Prometheus
exposition.  Defaults come from `ServeConfig`, overridable per server
(constructor) or process-wide: the `serve.*` rows of
[Configuration](#configuration) (`capi.GxB_Serve_set` / `GxB_Serve_get`).

`benchmarks/bench_serve.py` is the acceptance harness: 10k
mixed-tenant queries over an RMAT snapshot where every answer is
checked against a direct call, interleaving fault-free and
fault-injected rounds (it reports the chaos goodput ratio over the
queries no fault hit, checks that each injected fault failed exactly
its own query, p50/p99 latencies, shed counts, the persistent-fault
time to failure after one kernel run,
and the peak-RSS delta under the
governor envelope; the committed trajectory is the `serve_rw_r12`
workload of `perfbench/results/baseline.json`); the CI `serve-smoke`
leg replays it at scale 11 plus the `tests/serve` suite under a 64 MB
budget and 60 s deadline.
'''


CONFIG_INTRO = """
## Configuration

Every process-wide tunable is one row of `repro.graphblas.options.TABLE`;
this table, the environment parsing, `options.set()` validation and the
`capi.GxB_<Group>_set/get` pairs are all generated from those rows.
Precedence is `set` (an owner's setter, `GxB_*_set`, or `options.set`)
> environment variable > default.  A malformed environment value warns
once and falls back to the default; a malformed `set` raises
`InvalidValue` (`GrB_INVALID_VALUE` through the C API) and stores
nothing.  `bytes` values accept `k`/`m`/`g` binary suffixes.  The
`engine`, `compiled` and `obs` groups are snapshotted by their owners:
set them through `engine.set_engine`, `compiled.set_config`,
`obs.enable` or the `GxB_*_set` call in the last column.

| option | env var | kind | default | range / choices | C-API setter | what it controls |
|---|---|---|---|---|---|---|
"""


def render_configuration(f) -> None:
    from repro.graphblas import capi, options

    f.write(CONFIG_INTRO)
    for row in options.TABLE:
        if row.default is None:
            default = "unset"
        elif row.kind == "on_off":
            default = f"`{'on' if row.default else 'off'}`"
        else:
            default = f"`{row.default}`"
        if callable(row.choices):
            domain = "registered backends"
        elif row.choices:
            domain = " / ".join(f"`{c}`" for c in row.choices)
        elif row.minimum is not None:
            domain = f">= {row.minimum}"
        else:
            domain = "—"
        setter = f"GxB_{row.group.capitalize()}_set"
        kwarg = f"`{setter}({row.name}=)`" if hasattr(capi, setter) else "—"
        env = f"`{row.env}`" if row.env else "—"
        f.write(f"| `{row.group}.{row.name}` | {env} | {row.kind} | {default} "
                f"| {domain} | {kwarg} | {row.doc} |\n")


def main() -> None:
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as f:
        f.write("# API reference\n\n")
        f.write(
            "Generated by `scripts/gen_api_docs.py` from the public API's\n"
            "docstrings — regenerate after changing any exported surface.\n"
        )
        f.write(RESILIENCE_SECTION)
        f.write(BACKENDS_SECTION)
        f.write(COMPILED_SECTION)
        f.write(TELEMETRY_SECTION)
        f.write(GOVERNOR_SECTION)
        f.write(TILED_SECTION)
        f.write(ENGINE_SECTION)
        f.write(OBS_SECTION)
        f.write(STREAM_SECTION)
        f.write(SERVE_SECTION)
        render_configuration(f)
        render_module(f, repro.graphblas, "repro.graphblas")
        render_module(f, repro.graphblas.engine, "repro.graphblas.engine")
        render_module(f, repro.graphblas.backends, "repro.graphblas.backends")
        render_module(f, repro.graphblas.compiled, "repro.graphblas.compiled")
        render_module(f, repro.graphblas.plan, "repro.graphblas.plan")
        render_module(f, repro.graphblas.capi, "repro.graphblas.capi")
        render_module(f, repro.graphblas.governor, "repro.graphblas.governor")
        render_module(f, repro.graphblas.tiled, "repro.graphblas.tiled")
        render_module(f, repro.graphblas.options, "repro.graphblas.options")
        render_module(f, repro.graphblas.envutil, "repro.graphblas.envutil")
        render_module(f, repro.graphblas.faults, "repro.graphblas.faults")
        render_module(f, repro.graphblas.telemetry, "repro.graphblas.telemetry")
        render_module(f, repro.graphblas.validate, "repro.graphblas.validate")
        render_module(f, repro.obs, "repro.obs")
        render_module(f, repro.serve, "repro.serve")
        render_module(f, repro.stream, "repro.stream")
        render_module(f, repro.lagraph, "repro.lagraph")
        render_module(f, repro.pygb, "repro.pygb")
        render_module(f, repro.io, "repro.io")
        render_module(f, repro.generators, "repro.generators")
        render_module(f, repro.harness, "repro.harness")
    print(f"wrote {os.path.relpath(OUT)}")


if __name__ == "__main__":
    main()
