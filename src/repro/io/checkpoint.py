"""Atomic serialization of iterative-algorithm loop state.

The governor's checkpoint/resume path (:class:`repro.graphblas.governor.
Checkpoint`) snapshots an algorithm's loop-carried state — frontier /
parent / rank containers plus scalar counters — into a single ``.npz``
file.  The file holds one JSON ``__manifest__`` describing every entry
(kind, shape, dtype) next to the raw index/value arrays, written in the
same ``Ap``/``Ai``/``Ax`` layout as :mod:`repro.io.binary` so a resumed
matrix reconstructs the identical storage structure.

Writes are atomic and durable: the payload goes to a temp file in the
same directory, is flushed to disk with ``os.fsync`` and only then moved
into place with ``os.replace``, so a crash, a power loss or an injected
``io.write`` fault mid-save leaves the previous snapshot intact —
verified by the resilience suite.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..graphblas import Matrix, Vector, faults, telemetry
from ..graphblas.errors import InvalidValue
from ..graphblas.io_move import export_matrix, import_matrix
from ..graphblas.types import lookup_type

__all__ = ["save_state", "load_state", "atomic_write", "FORMAT_VERSION"]

FORMAT_VERSION = 1

#: separator between a state key and its array field inside the npz
_SEP = "::"


def atomic_write(path, write_payload) -> int:
    """Write a file atomically; ``write_payload(f)`` produces its bytes.

    The payload goes to a temp file in the same directory, is flushed
    and ``os.fsync``-ed, and only then is moved into place with
    ``os.replace``, so a crash, a power loss or an injected ``io.write``
    fault (tripped here) mid-save leaves either the previous file or
    nothing — never a torn write.  The writer behind checkpoints
    (compressed ``.npz`` payload); spilled tiles go to an anonymous arena
    (:class:`repro.graphblas.tiled.SpillPool`) instead.  Returns the
    final file size in bytes.
    """
    if faults.ENABLED:
        faults.trip("io.write")
    path = str(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            write_payload(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - only on write failure
            os.unlink(tmp)
    return int(os.path.getsize(path))


def _check_key(key) -> str:
    if not isinstance(key, str) or not key:
        raise InvalidValue(f"state keys must be non-empty strings, got {key!r}")
    if _SEP in key:
        raise InvalidValue(f"state key {key!r} may not contain {_SEP!r}")
    return key


def save_state(path, state: dict) -> None:
    """Atomically serialize a state dict to ``path``.

    Values may be :class:`~repro.graphblas.matrix.Matrix`,
    :class:`~repro.graphblas.vector.Vector`, or JSON-native scalars
    (bool/int/float/str, including their NumPy forms).  Containers are
    copied out non-destructively.
    """
    manifest: dict = {"version": FORMAT_VERSION, "entries": {}}
    payload: dict = {}
    for key, val in state.items():
        _check_key(key)
        if isinstance(val, Matrix):
            ex = export_matrix(val.dup())
            manifest["entries"][key] = {
                "kind": "matrix", "format": ex.format, "nrows": ex.nrows,
                "ncols": ex.ncols, "dtype": ex.dtype.name,
            }
            payload[f"{key}{_SEP}Ap"] = ex.Ap
            payload[f"{key}{_SEP}Ai"] = ex.Ai
            payload[f"{key}{_SEP}Ax"] = ex.Ax
            if ex.Ah is not None:
                payload[f"{key}{_SEP}Ah"] = ex.Ah
        elif isinstance(val, Vector):
            idx, vals = val.extract_tuples()
            manifest["entries"][key] = {
                "kind": "vector", "size": int(val.size),
                "dtype": val.dtype.name,
            }
            payload[f"{key}{_SEP}i"] = idx
            payload[f"{key}{_SEP}v"] = vals
        else:
            if isinstance(val, np.generic):
                val = val.item()
            if not isinstance(val, (bool, int, float, str)):
                raise InvalidValue(
                    f"cannot checkpoint {key!r}: unsupported type "
                    f"{type(val).__name__}"
                )
            manifest["entries"][key] = {"kind": "scalar", "value": val}
    payload["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    ).copy()

    nbytes = atomic_write(path, lambda f: np.savez_compressed(f, **payload))
    if telemetry.ENABLED:
        telemetry.tally("io.write", calls=1, bytes_moved=nbytes)


def load_state(path) -> dict:
    """Reconstruct a state dict saved by :func:`save_state`."""
    if faults.ENABLED:
        faults.trip("io.read")
    state: dict = {}
    nbytes = 0
    with np.load(str(path), allow_pickle=False) as z:
        if "__manifest__" not in z.files:
            raise InvalidValue(f"{path!r} is not a checkpoint file")
        manifest = json.loads(bytes(z["__manifest__"]).decode("utf-8"))
        if manifest.get("version") != FORMAT_VERSION:
            raise InvalidValue(
                f"checkpoint {path!r} has version {manifest.get('version')}, "
                f"expected {FORMAT_VERSION}"
            )
        for key, ent in manifest["entries"].items():
            kind = ent["kind"]
            if kind == "matrix":
                Ah_key = f"{key}{_SEP}Ah"
                A = import_matrix(
                    format=ent["format"],
                    nrows=int(ent["nrows"]),
                    ncols=int(ent["ncols"]),
                    dtype=ent["dtype"],
                    Ap=z[f"{key}{_SEP}Ap"],
                    Ai=z[f"{key}{_SEP}Ai"],
                    Ax=z[f"{key}{_SEP}Ax"],
                    Ah=z[Ah_key] if Ah_key in z.files else None,
                    copy=True,
                    check=True,
                )
                nbytes += int(A.nbytes)
                state[key] = A
            elif kind == "vector":
                idx = z[f"{key}{_SEP}i"]
                vals = z[f"{key}{_SEP}v"]
                dt = lookup_type(ent["dtype"])
                # dup=None: indices are already unique; avoids any
                # dup-reduction reordering so resume is bit-identical.
                v = Vector.from_coo(idx, vals, size=int(ent["size"]),
                                    dtype=dt, dup=None)
                nbytes += int(idx.nbytes + vals.nbytes)
                state[key] = v
            elif kind == "scalar":
                state[key] = ent["value"]
            else:
                raise InvalidValue(
                    f"checkpoint entry {key!r} has unknown kind {kind!r}"
                )
    if telemetry.ENABLED:
        telemetry.tally("io.read", calls=1, bytes_moved=int(nbytes))
    return state
