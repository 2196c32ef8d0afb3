"""Toolchains that turn kernel templates into callable kernel sets.

Three toolchains, probed in order of preference:

``numba``
    The documented optional dependency (``pip install .[compiled]``).
    The generated Python source (:func:`templates.py_source`) is
    ``njit(nogil=True)``-compiled, so row blocks run truly parallel on
    the engine worker pool.
``cc``
    Zero-dependency built-in: the generated C source is compiled with
    the system C compiler (``$CC``, ``cc``, or ``gcc``) into a shared
    library loaded through ctypes.  ctypes foreign calls release the
    GIL, so this tier parallelizes exactly like numba.  Artifacts are
    content-addressed (sha256 of the source) in the build directory, so
    a warm cache survives process restarts.
``python``
    The same generated Python source, interpreted.  Far too slow for
    production — it exists as the oracle for template parity tests in
    environments with neither numba nor a compiler.

All three expose the same :class:`KernelSet` interface over NumPy
arrays; the orchestration in :mod:`repro.graphblas.mxm` and
:mod:`repro.graphblas.mxv` is toolchain-agnostic.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

from .. import options
from . import templates

__all__ = ["KernelSet", "StoreArgs", "store_args", "build",
           "probe_toolchain", "TOOLCHAINS"]

TOOLCHAINS = ("numba", "cc", "python")

_I8 = ctypes.c_int64
_P = ctypes.c_void_p
_INT = ctypes.c_int
_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer

_lock = threading.Lock()
_cc_path: str | None | bool = None  # None = unprobed, False = absent
_numba_ok: bool | None = None


def _find_cc() -> str | None:
    global _cc_path
    with _lock:
        if _cc_path is None:
            for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
                if cand and shutil.which(cand):
                    _cc_path = shutil.which(cand)
                    break
            else:
                _cc_path = False
        return _cc_path or None


def _have_numba() -> bool:
    global _numba_ok
    with _lock:
        if _numba_ok is None:
            try:
                import numba  # noqa: F401

                _numba_ok = True
            except Exception:
                _numba_ok = False
        return _numba_ok


def probe_toolchain(preference: str = "auto") -> str | None:
    """Resolve a toolchain name, or None if nothing usable.

    ``auto`` prefers numba, then the C compiler, then nothing —
    interpreted Python is never auto-selected (it would be a silent
    100x regression); it must be requested explicitly.
    """
    if preference == "off":
        return None
    if preference in ("numba", "cc", "python"):
        if preference == "numba" and not _have_numba():
            return None
        if preference == "cc" and _find_cc() is None:
            return None
        return preference
    # auto
    if _have_numba():
        return "numba"
    if _find_cc() is not None:
        return "cc"
    return None


def _buf(arr: np.ndarray) -> int:
    """Data address of a C-contiguous array.  Writable arrays (every
    scratch and input buffer) go through the buffer protocol, about a
    third of the cost of numpy's ``arr.ctypes`` adapter, which read-only
    and empty arrays still take."""
    try:
        return _addressof(_from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


class StoreArgs:
    """A sparse store's arrays as every kernel takes them.

    ``indptr`` spans all ``n_major`` vectors (a hypersparse pointer is
    expanded), indices are int64 and values the operand's type, all
    C-contiguous; ``addrs`` holds their data addresses for the cc
    toolchain.  Stores are immutable, so :func:`store_args` builds this
    once per store and a call pays no per-array conversion for it.
    """

    __slots__ = ("indptr", "minor", "values", "addrs", "_rows")

    def __init__(self, indptr, minor, values):
        self.indptr, self.minor, self.values = indptr, minor, values
        self.addrs = (_buf(indptr), _buf(minor), _buf(values))
        self._rows = None

    def rows(self) -> np.ndarray:
        """``arange(n_major)``: the pull kernel's every-row list."""
        if self._rows is None:
            self._rows = np.arange(self.indptr.size - 1, dtype=np.int64)
        return self._rows


def store_args(store, dtype) -> StoreArgs:
    """``store`` in kernel form with values of ``dtype``, cached on the
    store (shared with its transposed views, which hold the same
    arrays).  A hypersparse store is not cached: its expanded pointer is
    O(n_major), which a long-lived store should not keep."""
    cache = store.kernel_args
    if cache and cache[0].values.dtype == dtype:
        return cache[0]
    full = store.to_full_pointer()
    args = StoreArgs(
        np.ascontiguousarray(full.indptr, dtype=np.int64),
        np.ascontiguousarray(full.minor, dtype=np.int64),
        np.ascontiguousarray(full.values, dtype=dtype),
    )
    if not store.hyper:
        cache[:] = [args]
    return args


class KernelSet:
    """Uniform interface to one compiled (add, mult, A type, B type,
    output type) kernel set.

    Matrix operands arrive as :class:`StoreArgs`; every other array must
    be C-contiguous with the right dtype (int64 indices, each operand's
    own value type, the output type for outputs) — the caller
    normalizes.
    """

    toolchain = "abstract"

    def __init__(self, spec: templates.KernelSpec):
        self.spec = spec
        term = spec.terminal()
        #: folds can stop early: a terminal monoid, or ANY's first term
        self.has_terminal = spec.stops_early
        dt = spec.np_dtype
        # the python/numba kernels need a typed scalar even when no
        # terminal exists; zero is never compared in that case
        self._term = dt.type(term) if term is not None else dt.type(0)

    def spgemm_count(self, row_lo, row_hi, a, b, mark) -> int:
        raise NotImplementedError

    def spgemm_fill(self, row_lo, row_hi, a, b, mark, slot, ci, cj,
                    cx) -> int:
        raise NotImplementedError

    def dot(self, a_s, ae, bs, be, ci, cj, aj, ax, bj, bx, keep, out,
            stats) -> None:
        raise NotImplementedError

    def push(self, ui, ux, a, matrix_first, mark, oi, ov) -> int:
        raise NotImplementedError

    def pull(self, rows, a, ud, up, matrix_first, oi, ov, stats) -> int:
        raise NotImplementedError


class _CKernelSet(KernelSet):
    toolchain = "cc"

    def __init__(self, spec, lib: ctypes.CDLL):
        super().__init__(spec)
        self._lib = lib

        def proto(name, restype, *argtypes):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = list(argtypes)
            return fn

        self._count = proto("gb_spgemm_count", _I8,
                            _I8, _I8, _P, _P, _P, _P, _P)
        self._fill = proto("gb_spgemm_fill", _I8,
                           _I8, _I8, _P, _P, _P, _P, _P, _P,
                           _P, _P, _P, _P, _P)
        self._dot = proto("gb_dot", None,
                          _I8, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P,
                          _P, _P, _P)
        self._push = proto("gb_push", _I8,
                           _I8, _P, _P, _P, _P, _P, _INT, _P, _P, _P)
        self._pull = proto("gb_pull", _I8,
                           _I8, _P, _P, _P, _P, _P, _P, _INT,
                           _P, _P, _P)

    def spgemm_count(self, row_lo, row_hi, a, b, mark):
        ap, aj, _ = a.addrs
        bp, bj, _ = b.addrs
        return self._count(row_lo, row_hi, ap, aj, bp, bj, _buf(mark))

    def spgemm_fill(self, row_lo, row_hi, a, b, mark, slot, ci, cj, cx):
        return self._fill(row_lo, row_hi, *a.addrs, *b.addrs,
                          _buf(mark), _buf(slot),
                          _buf(ci), _buf(cj), _buf(cx))

    def dot(self, a_s, ae, bs, be, ci, cj, aj, ax, bj, bx, keep, out, stats):
        self._dot(a_s.size, _buf(a_s), _buf(ae), _buf(bs), _buf(be),
                  _buf(ci), _buf(cj), _buf(aj), _buf(ax), _buf(bj), _buf(bx),
                  _buf(keep), _buf(out), _buf(stats))

    def push(self, ui, ux, a, matrix_first, mark, oi, ov):
        return self._push(ui.size, _buf(ui), _buf(ux), *a.addrs,
                          1 if matrix_first else 0,
                          _buf(mark), _buf(oi), _buf(ov))

    def pull(self, rows, a, ud, up, matrix_first, oi, ov, stats):
        return self._pull(rows.size, _buf(rows), *a.addrs,
                          _buf(ud), _buf(up),
                          1 if matrix_first else 0,
                          _buf(oi), _buf(ov), _buf(stats))


class _PyKernelSet(KernelSet):
    toolchain = "python"

    def __init__(self, spec, ns: dict):
        super().__init__(spec)
        self._count = ns["gb_spgemm_count"]
        self._fill = ns["gb_spgemm_fill"]
        self._dot = ns["gb_dot"]
        self._push = ns["gb_push"]
        self._pull = ns["gb_pull"]

    def spgemm_count(self, row_lo, row_hi, a, b, mark):
        return int(self._count(row_lo, row_hi, a.indptr, a.minor,
                               b.indptr, b.minor, mark))

    def spgemm_fill(self, row_lo, row_hi, a, b, mark, slot, ci, cj, cx):
        return int(self._fill(row_lo, row_hi, a.indptr, a.minor, a.values,
                              b.indptr, b.minor, b.values,
                              mark, slot, ci, cj, cx))

    def dot(self, a_s, ae, bs, be, ci, cj, aj, ax, bj, bx, keep, out, stats):
        self._dot(a_s.size, a_s, ae, bs, be, ci, cj, aj, ax, bj, bx, keep,
                  out, self._term, stats)

    def push(self, ui, ux, a, matrix_first, mark, oi, ov):
        return int(self._push(ui.size, ui, ux, a.indptr, a.minor, a.values,
                              matrix_first, mark, oi, ov))

    def pull(self, rows, a, ud, up, matrix_first, oi, ov, stats):
        return int(self._pull(rows.size, rows, a.indptr, a.minor, a.values,
                              ud, up, matrix_first, oi, ov,
                              self._term, stats))


class _NumbaKernelSet(_PyKernelSet):
    toolchain = "numba"


def _exec_py(spec) -> dict:
    src = templates.py_source(spec)
    ns: dict = {}
    exec(compile(src, f"<gbk:{spec}>", "exec"), ns)
    return ns


def _build_python(spec) -> KernelSet:
    return _PyKernelSet(spec, _exec_py(spec))


def _build_numba(spec) -> KernelSet:
    import numba

    ns = _exec_py(spec)
    jit = numba.njit(nogil=True, cache=False)
    ns["sortpairs"] = sortpairs = jit(ns["sortpairs"])
    out: dict = {}
    for name in ("gb_spgemm_count", "gb_spgemm_fill", "gb_dot",
                 "gb_push", "gb_pull"):
        fn = ns[name]
        fn.__globals__["sortpairs"] = sortpairs
        out[name] = jit(fn)
    return _NumbaKernelSet(spec, out)


def build_dir() -> str:
    """Directory for cc artifacts (content-addressed .so files)."""
    root = options.get("compiled")["directory"]
    if root is None:
        root = os.path.join(tempfile.gettempdir(),
                            f"graphblas-compiled-{os.getuid()}")
    os.makedirs(root, exist_ok=True)
    return root

# -fwrapv: signed overflow must wrap like NumPy; -ffp-contract=off: no
# FMA fusion, so float results match NumPy's separate multiply/add.
_CFLAGS = ["-O3", "-shared", "-fPIC", "-fwrapv", "-ffp-contract=off"]


def _build_cc(spec) -> KernelSet:
    cc = _find_cc()
    if cc is None:  # pragma: no cover - probed before build
        raise RuntimeError("no C compiler found")
    src = templates.c_source(spec)
    digest = hashlib.sha256(src.encode()).hexdigest()[:24]
    root = build_dir()
    lib_path = os.path.join(root, f"gbk_{digest}.so")
    if not os.path.exists(lib_path):
        src_path = os.path.join(root, f"gbk_{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(src)
        tmp = lib_path + f".tmp.{os.getpid()}"
        cmd = [cc, *_CFLAGS, src_path, "-o", tmp, "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}")
        os.replace(tmp, lib_path)  # atomic: racing builders converge
    return _CKernelSet(spec, ctypes.CDLL(lib_path))


_BUILDERS = {
    "numba": _build_numba,
    "cc": _build_cc,
    "python": _build_python,
}


def build(spec: templates.KernelSpec, toolchain: str) -> KernelSet:
    """Compile one kernel set with the named toolchain."""
    return _BUILDERS[toolchain](spec)
