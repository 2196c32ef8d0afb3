"""A complete GraphBLAS implementation in Python/NumPy.

This package is the *substrate* of the LAGraph reproduction: everything the
paper's Figure 1 places below the "GraphBLAS API" line.  It provides the
opaque objects (Matrix, Vector, Scalar), the full operator algebra (types,
unary/binary/index-unary ops, monoids, semirings — including the 960/600
built-in-semiring families), the Table-I operations with masks,
accumulators and descriptors, the four storage formats with zombie/pending
update semantics, O(1) move import/export, and the dense spec-literal
reference implementation used for conformance testing.

Quick start::

    from repro import graphblas as gb

    A = gb.Matrix.from_coo([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
    w = gb.Vector.from_coo([0], [1.0], size=3)
    y = gb.Vector.new(gb.FP64, 3)
    gb.mxv(y, A, w, "plus_times")
"""

from . import backends, engine, envutil, faults, governor, options, plan, telemetry, tiled, validate
from .backends import (
    available_backends,
    backend,
    current_backend,
    current_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
)
from .context import Mode, blocking, get_mode, nonblocking, set_mode
from .descriptor import Descriptor, NULL_DESC, desc
from .errors import (
    ApiError,
    BackendDivergence,
    BudgetExceeded,
    Cancelled,
    DeadlineExceeded,
    GovernorError,
    DimensionMismatch,
    DomainMismatch,
    ExecutionError,
    GraphBLASError,
    IndexOutOfBounds,
    Info,
    InsufficientSpace,
    InvalidIndex,
    InvalidObject,
    InvalidValue,
    NoValue,
    OutOfMemory,
    OutputNotEmpty,
    Panic,
    UninitializedObject,
)
from .io_move import (
    ExportedMatrix,
    export_matrix,
    export_vector,
    import_matrix,
    import_vector,
)
from .matrix import Matrix
from .monoid import MONOIDS, Monoid, make_monoid, monoid
from .mxv import (
    DEFAULT_SWITCH_THRESHOLD,
    DirectionOptimizer,
    get_switch_threshold,
    set_switch_threshold,
)
from .operations import (
    ALL,
    apply,
    assign,
    concat,
    diag,
    diag_extract,
    ewise_add,
    ewise_mult,
    extract,
    kronecker,
    mxm,
    mxv,
    reduce_rowwise,
    reduce_scalar,
    select,
    split,
    subassign,
    transpose,
    vxm,
)
from .ops import (
    BINARY_OPS,
    INDEXUNARY_OPS,
    UNARY_OPS,
    BinaryOp,
    IndexUnaryOp,
    UnaryOp,
    binary,
    indexunary,
    unary,
)
from .plan import OpPlan, TABLE1_OPS
from .scalar import Scalar
from .semiring import (
    SEMIRINGS,
    Semiring,
    enumerate_builtin_semirings,
    make_semiring,
    semiring,
    semiring_census,
)
from .types import (
    BOOL,
    BUILTIN_TYPES,
    FP32,
    FP64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    Type,
    lookup_type,
    unify_types,
)
from .vector import Vector

__all__ = [
    # objects
    "Matrix",
    "Vector",
    "Scalar",
    # types
    "Type",
    "BOOL",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "FP32",
    "FP64",
    "BUILTIN_TYPES",
    "lookup_type",
    "unify_types",
    # operators
    "UnaryOp",
    "BinaryOp",
    "IndexUnaryOp",
    "unary",
    "binary",
    "indexunary",
    "UNARY_OPS",
    "BINARY_OPS",
    "INDEXUNARY_OPS",
    "Monoid",
    "monoid",
    "make_monoid",
    "MONOIDS",
    "Semiring",
    "semiring",
    "make_semiring",
    "SEMIRINGS",
    "enumerate_builtin_semirings",
    "semiring_census",
    # descriptors & modes
    "Descriptor",
    "desc",
    "NULL_DESC",
    "Mode",
    "get_mode",
    "set_mode",
    "blocking",
    "nonblocking",
    # operations
    "ALL",
    "mxm",
    "mxv",
    "vxm",
    "ewise_add",
    "ewise_mult",
    "apply",
    "select",
    "reduce_rowwise",
    "reduce_scalar",
    "transpose",
    "extract",
    "assign",
    "subassign",
    "kronecker",
    "concat",
    "split",
    "diag",
    "diag_extract",
    "DirectionOptimizer",
    "DEFAULT_SWITCH_THRESHOLD",
    "get_switch_threshold",
    "set_switch_threshold",
    # move import/export
    "export_matrix",
    "import_matrix",
    "export_vector",
    "import_vector",
    "ExportedMatrix",
    # errors
    "GraphBLASError",
    "ApiError",
    "ExecutionError",
    "Info",
    "NoValue",
    "InvalidValue",
    "InvalidIndex",
    "InvalidObject",
    "DimensionMismatch",
    "DomainMismatch",
    "IndexOutOfBounds",
    "OutOfMemory",
    "InsufficientSpace",
    "Panic",
    "OutputNotEmpty",
    "UninitializedObject",
    "BackendDivergence",
    "GovernorError",
    "BudgetExceeded",
    "DeadlineExceeded",
    "Cancelled",
    # kernel backends & planning
    "backends",
    "backend",
    "get_backend",
    "set_default_backend",
    "current_backend",
    "current_backend_name",
    "available_backends",
    "register_backend",
    "plan",
    "OpPlan",
    "TABLE1_OPS",
    # resilience & observability
    "faults",
    "validate",
    "telemetry",
    "governor",
    "envutil",
    "options",
    "tiled",
    # performance engine
    "engine",
]
