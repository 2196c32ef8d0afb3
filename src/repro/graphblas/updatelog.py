"""The shared deferred-update log and its settled delta batches.

The paper's section II.A machinery — *pending tuples* (fast unordered
insertions) and *zombies* (entries tagged for deferred deletion) — used to
be a private implementation detail of :class:`Matrix` and :class:`Vector`,
interleaved with their assembly code and discarded at ``wait()``.  This
module makes it a first-class layer:

* :class:`UpdateLog` — one ordered log of insert/delete actions shared by
  matrices and vectors.  Ordering matters when both action kinds touch the
  same coordinate: the *last* action wins, exactly as if each had been
  applied eagerly.
* :class:`ResolvedLog` — the log reduced to one surviving action per
  coordinate (the sort/dedup pass both containers previously inlined),
  including the sortedness fast path exploited by bulk loads.
* :class:`DeltaBatch` — what an assembled window *was*: the surviving
  insertions, the entries they displaced, and the deletions that landed,
  exposed as a hypersparse delta (rows/cols touched + values) instead of
  being forgotten.  This is the unit consumed by incremental maintenance
  (``repro.lagraph.Graph`` cached-property patching, ``repro.stream``
  algorithm maintainers) — the hypersparse update block of
  arXiv 2509.18984.

The module also hosts the pending-work depth registry behind the
``graphblas_pending_tuples`` / ``graphblas_zombies`` observability gauges:
containers register themselves (weakly) on their first deferred action
while tracking is enabled, so a metrics scrape can report how much
unassembled work the process is carrying.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "UpdateLog",
    "ResolvedLog",
    "DeltaBatch",
    "chain_net_edges",
    "coords_isin",
    "enable_depth_tracking",
    "depth_tracking_enabled",
    "register_for_depth",
    "pending_depth",
    "zombie_depth",
]

_INDEX = np.int64


def coords_isin(
    rows: np.ndarray,
    cols: np.ndarray,
    qi: np.ndarray,
    qj: np.ndarray,
    ncols: int,
) -> np.ndarray:
    """Boolean mask of which (rows, cols) pairs appear in (qi, qj)."""
    if rows.size == 0 or qi.size == 0:
        return np.zeros(rows.size, dtype=bool)
    if ncols <= 2**31:  # composite key fits comfortably in int64
        key = rows * np.int64(ncols) + cols
        qkey = qi * np.int64(ncols) + qj
        return np.isin(key, qkey)
    # huge dimensions: sort query pairs and binary-search both coordinates
    order = np.lexsort((qj, qi))
    qi, qj = qi[order], qj[order]
    lo = np.searchsorted(qi, rows, side="left")
    hi = np.searchsorted(qi, rows, side="right")
    out = np.zeros(rows.size, dtype=bool)
    for k in np.flatnonzero(hi > lo):
        seg = qj[lo[k] : hi[k]]
        p = np.searchsorted(seg, cols[k])
        out[k] = p < seg.size and seg[p] == cols[k]
    return out


class ResolvedLog:
    """One surviving action per coordinate, in assembly-ready form.

    ``i``/``j`` are the surviving coordinates (``j`` is None for vectors),
    ``ins`` masks which of them are insertions (the rest are deletions),
    ``values`` holds the cast insertion values (aligned with ``i[ins]``),
    and ``fast`` records that the raw log was already strictly sorted,
    duplicate-free, and zombie-free — the bulk-load fast path where the
    append order *is* the assembly order.
    """

    __slots__ = ("i", "j", "ins", "values", "fast")

    def __init__(self, i, j, ins, values, fast):
        self.i = i
        self.j = j
        self.ins = ins
        self.values = values
        self.fast = fast


class UpdateLog:
    """Ordered log of deferred updates: pending tuples and zombies.

    One list quartet (``i``, ``j``, ``v``, ``deleted``) in append order;
    ``j`` is None for vector logs.  ``from_epoch`` remembers the owner's
    settled mutation epoch when the current run of appends began, so the
    :class:`DeltaBatch` assembled from this log can be chained onto the
    previous one.
    """

    __slots__ = ("i", "j", "v", "deleted", "from_epoch")

    def __init__(self, *, matrix: bool = True):
        self.i: list[int] = []
        self.j: list[int] | None = [] if matrix else None
        self.v: list = []
        self.deleted: list[bool] = []
        self.from_epoch: int = 0

    # -- mutation ----------------------------------------------------------

    def append(self, i: int, j: int | None, value, is_delete: bool) -> None:
        self.i.append(i)
        if self.j is not None:
            self.j.append(j)
        self.v.append(value)
        self.deleted.append(is_delete)

    def extend(self, i, j, values, deleted) -> None:
        """Append a batch of actions (vectorized setElement/removeElement)."""
        self.i.extend(i)
        if self.j is not None:
            self.j.extend(j)
        self.v.extend(values)
        self.deleted.extend(deleted)

    def pop(self) -> None:
        """Un-append the newest action (blocking-mode rollback)."""
        del self.i[-1]
        if self.j is not None:
            del self.j[-1]
        del self.v[-1]
        del self.deleted[-1]

    def truncate(self, length: int) -> None:
        """Drop every action past ``length`` (batch rollback)."""
        del self.i[length:]
        if self.j is not None:
            del self.j[length:]
        del self.v[length:]
        del self.deleted[length:]

    def clear(self) -> None:
        self.i, self.v, self.deleted = [], [], []
        if self.j is not None:
            self.j = []

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.i)

    def __bool__(self) -> bool:
        return bool(self.i)

    @property
    def npending(self) -> int:
        """Logged insertions (the paper's *pending tuples*)."""
        return sum(1 for d in self.deleted if not d)

    @property
    def nzombies(self) -> int:
        """Logged deletions (the paper's *zombies*)."""
        return sum(1 for d in self.deleted if d)

    # -- resolution --------------------------------------------------------

    def resolve(self, dtype, *, major_is_row: bool | None = None) -> ResolvedLog:
        """Reduce the log to one surviving action per coordinate.

        The last log action per coordinate wins (lexsort is stable, so the
        final occurrence in append order is the last in its group).
        ``major_is_row`` selects which coordinate leads the sortedness
        fast-path check (the owner's storage orientation); None means a
        vector log.
        """
        pi = np.asarray(self.i, dtype=_INDEX)
        pdel = np.asarray(self.deleted, dtype=bool)
        if self.j is None:
            fast = not pdel.any() and (
                pi.size == 1 or bool(np.all(pi[1:] > pi[:-1]))
            )
            if fast:
                return ResolvedLog(
                    pi,
                    None,
                    np.ones(pi.size, dtype=bool),
                    dtype.cast_array(np.asarray(self.v)),
                    True,
                )
            order = np.argsort(pi, kind="stable")
            pi_s = pi[order]
            last = np.empty(pi_s.size, dtype=bool)
            last[-1] = True
            np.not_equal(pi_s[1:], pi_s[:-1], out=last[:-1])
            sel = order[last]
            li, ldel = pi[sel], pdel[sel]
            ins = ~ldel
            if np.any(ins):
                lv = dtype.cast_array(np.asarray([self.v[k] for k in sel[ins]]))
            else:
                lv = np.empty(0, dtype=dtype.np_dtype)
            return ResolvedLog(li, None, ins, lv, False)

        pj = np.asarray(self.j, dtype=_INDEX)
        pmaj, pmin = (pi, pj) if major_is_row else (pj, pi)
        fast = not pdel.any() and (
            pi.size == 1
            or bool(
                np.all(
                    (pmaj[1:] > pmaj[:-1])
                    | ((pmaj[1:] == pmaj[:-1]) & (pmin[1:] > pmin[:-1]))
                )
            )
        )
        if fast:
            return ResolvedLog(
                pi,
                pj,
                np.ones(pi.size, dtype=bool),
                dtype.cast_array(np.asarray(self.v)),
                True,
            )
        order = np.lexsort((pj, pi))
        pi_s, pj_s = pi[order], pj[order]
        last = np.empty(pi_s.size, dtype=bool)
        last[-1] = True
        np.logical_or(pi_s[1:] != pi_s[:-1], pj_s[1:] != pj_s[:-1], out=last[:-1])
        sel = order[last]
        li, lj, ldel = pi[sel], pj[sel], pdel[sel]
        ins = ~ldel
        if np.any(ins):
            lv = dtype.cast_array(np.asarray([self.v[k] for k in sel[ins]]))
        else:
            lv = np.empty(0, dtype=dtype.np_dtype)
        return ResolvedLog(li, lj, ins, lv, False)


_EMPTY_I = np.empty(0, dtype=_INDEX)


class DeltaBatch:
    """One assembled update window, as a hypersparse delta.

    Everything ``wait()`` learns while merging the update log into the
    store, kept instead of discarded:

    * ``ins_rows/ins_cols/ins_values`` — the surviving insertions (the
      entries now present at those coordinates);
    * ``del_rows/del_cols`` — coordinates a surviving deletion landed on
      (whether or not an entry actually existed there);
    * ``prev_rows/prev_cols/prev_values`` — the stored entries the window
      displaced (each was either *overwritten* by an insertion or *killed*
      by a deletion).

    ``epoch_from``/``epoch_to`` chain consecutive batches: a consumer that
    cached derived state at epoch E can patch forward through every batch
    whose chain starts at E and ends at the container's current epoch.
    """

    __slots__ = (
        "nrows",
        "ncols",
        "dtype",
        "ins_rows",
        "ins_cols",
        "ins_values",
        "del_rows",
        "del_cols",
        "prev_rows",
        "prev_cols",
        "prev_values",
        "epoch_from",
        "epoch_to",
        "_ins_existed",
        "_prev_killed",
    )

    def __init__(
        self,
        nrows,
        ncols,
        dtype,
        ins_rows,
        ins_cols,
        ins_values,
        del_rows,
        del_cols,
        prev_rows,
        prev_cols,
        prev_values,
        epoch_from,
        epoch_to,
    ):
        self.nrows = nrows
        self.ncols = ncols
        self.dtype = dtype
        self.ins_rows = ins_rows
        self.ins_cols = ins_cols
        self.ins_values = ins_values
        self.del_rows = del_rows
        self.del_cols = del_cols
        self.prev_rows = prev_rows
        self.prev_cols = prev_cols
        self.prev_values = prev_values
        self.epoch_from = epoch_from
        self.epoch_to = epoch_to
        self._ins_existed = None
        self._prev_killed = None

    def __len__(self) -> int:
        return int(self.ins_rows.size + self.del_rows.size)

    def _existed(self) -> np.ndarray:
        """Mask over insertions: did the coordinate hold an entry before?"""
        if self._ins_existed is None:
            self._ins_existed = coords_isin(
                self.ins_rows, self.ins_cols,
                self.prev_rows, self.prev_cols, self.ncols,
            )
        return self._ins_existed

    def new_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insertions at coordinates that held no entry before."""
        fresh = ~self._existed()
        return self.ins_rows[fresh], self.ins_cols[fresh], self.ins_values[fresh]

    def overwritten_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insertions that replaced an existing entry (value change only)."""
        hit = self._existed()
        return self.ins_rows[hit], self.ins_cols[hit], self.ins_values[hit]

    def removed_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Previously stored entries physically removed by this window.

        Zombie actions on coordinates that never held an entry are no-ops
        and do not appear here.
        """
        if self.prev_rows.size == 0:
            return _EMPTY_I, _EMPTY_I, self.prev_values
        if self._prev_killed is None:  # every maintainer of a window asks
            self._prev_killed = ~coords_isin(
                self.prev_rows, self.prev_cols,
                self.ins_rows, self.ins_cols, self.ncols,
            )
        killed = self._prev_killed
        return (
            self.prev_rows[killed],
            self.prev_cols[killed],
            self.prev_values[killed],
        )

    def touched_rows(self) -> np.ndarray:
        """Sorted unique row indices this window wrote or deleted at."""
        return np.unique(np.concatenate([self.ins_rows, self.del_rows]))

    def as_matrix(self):
        """The surviving insertions as a hypersparse Matrix (the window's
        delta block, per arXiv 2509.18984)."""
        from .formats import Orientation, SparseStore
        from .matrix import Matrix

        m = Matrix(self.dtype, self.nrows, self.ncols)
        m._store = SparseStore.from_coo(
            Orientation.ROW,
            self.nrows,
            self.ncols,
            self.ins_rows,
            self.ins_cols,
            self.ins_values,
            self.dtype,
            hyper=True,
        )
        return m

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaBatch({self.nrows}x{self.ncols}, +{self.ins_rows.size}"
            f" -{self.del_rows.size}, epochs {self.epoch_from}->{self.epoch_to})"
        )


def chain_net_edges(chain, n: int):
    """Net structural effect of a window chain on each touched coordinate.

    ``chain`` is a contiguous run of :class:`DeltaBatch` windows of an
    ``n x n`` matrix (``Matrix.deltas_since``).  Compares each
    coordinate's presence *before the first batch that touched it* with
    its presence *after the last*: returns
    ``(add_u, add_v, rem_u, rem_v)`` — coordinates that net-appeared and
    net-vanished.  Value-only overwrites cancel out.  Returns None when
    the composite key would overflow (callers recompute).
    """
    if n > 2**31:
        return None
    keys, existed, isins = [], [], []
    for d in chain:
        ikey = d.ins_rows * np.int64(n) + d.ins_cols
        dkey = d.del_rows * np.int64(n) + d.del_cols
        pkey = d.prev_rows * np.int64(n) + d.prev_cols
        k = np.concatenate([ikey, dkey])
        if k.size == 0:
            continue
        keys.append(k)
        existed.append(np.isin(k, pkey))
        isins.append(
            np.concatenate(
                [np.ones(ikey.size, dtype=bool), np.zeros(dkey.size, dtype=bool)]
            )
        )
    empty = np.empty(0, dtype=_INDEX)
    if not keys:
        return empty, empty, empty, empty
    keys = np.concatenate(keys)
    existed = np.concatenate(existed)
    isins = np.concatenate(isins)
    order = np.argsort(keys, kind="stable")  # keys were appended in batch order
    ks = keys[order]
    first = np.empty(ks.size, dtype=bool)
    first[0] = True
    np.not_equal(ks[1:], ks[:-1], out=first[1:])
    last = np.empty(ks.size, dtype=bool)
    last[-1] = True
    np.not_equal(ks[1:], ks[:-1], out=last[:-1])
    uniq = ks[first]
    init_present = existed[order][first]
    final_present = isins[order][last]
    added = final_present & ~init_present
    removed = init_present & ~final_present
    au, av = uniq[added] // n, uniq[added] % n
    ru, rv = uniq[removed] // n, uniq[removed] % n
    return au, av, ru, rv


# -- pending-work depth registry (observability) ------------------------------

#: Flipped by ``repro.obs.enable()``: while True, containers add themselves
#: to the weak registry on their first deferred action so the depth gauges
#: below can see them.  Off by default — zero overhead on the hot path
#: beyond one module-attribute read.
TRACK_DEPTH = False

_tracked: "weakref.WeakSet" = weakref.WeakSet()


def enable_depth_tracking(flag: bool = True) -> None:
    """Turn the pending/zombie depth registry on or off."""
    global TRACK_DEPTH
    TRACK_DEPTH = bool(flag)


def depth_tracking_enabled() -> bool:
    return TRACK_DEPTH


def register_for_depth(obj) -> None:
    """Add a container to the depth registry (weakly; idempotent)."""
    _tracked.add(obj)


def pending_depth() -> int:
    """Total pending insertions across live registered containers."""
    return sum(o._log.npending for o in list(_tracked) if o._log)


def zombie_depth() -> int:
    """Total pending deletions across live registered containers."""
    return sum(o._log.nzombies for o in list(_tracked) if o._log)
