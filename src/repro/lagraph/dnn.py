"""Sparse deep-neural-network inference (paper section V, ref [47]).

Kepner et al.'s "Enabling massive deep neural networks with the
GraphBLAS" — the kernel of the MIT GraphChallenge sparse-DNN benchmark.
Each layer is one masked-free pipeline of Table-I operations::

    Y <- Y (+).(x) W_l          # feature propagation (mxm)
    Y <- Y (+) bias_l           # per-neuron bias on the stored entries
    Y <- select(Y, > 0)         # ReLU: drop non-positive activations
    Y <- min(Y, clip)           # saturation (GraphChallenge uses 32)

Inputs, weights and activations are all sparse GraphBLAS matrices, so
inference is a chain of semiring products — exactly the "machine learning
on GraphBLAS" use-case the paper highlights.
"""

from __future__ import annotations

import numpy as np

from ..graphblas import Matrix, Vector, governor
from ..graphblas import operations as ops
from ..graphblas.errors import InvalidValue

__all__ = ["dnn_inference", "dnn_categories"]


def dnn_inference(
    Y0: Matrix,
    weights: list[Matrix],
    biases: list[Vector] | list[float],
    *,
    relu_clip: float | None = 32.0,
    checkpoint=None,
    resume=None,
) -> Matrix:
    """Run sparse inference; rows of ``Y0`` are input samples.

    ``biases[l]`` may be a per-neuron Vector or a uniform float.  Returns
    the final activation matrix.

    ``checkpoint`` snapshots the activation matrix after each completed
    layer; ``resume`` restarts at the first unapplied layer.  Each layer
    depends only on the previous activations, so a resumed run is
    bit-identical.
    """
    if len(weights) != len(biases):
        raise InvalidValue("one bias per layer required")

    def layer(i, s):
        Y, W, b = s["Y"], weights[i], biases[i]
        if Y.ncols != W.nrows:
            raise InvalidValue(
                f"layer mismatch: activations {Y.shape} x weights {W.shape}"
            )
        Z = Matrix("FP64", Y.nrows, W.ncols)
        ops.mxm(Z, Y, W, "PLUS_TIMES")
        if isinstance(b, Vector):
            # add bias(j) to every stored entry of column j: Z += Z_pattern*diag(b)
            D = ops.diag(b)
            Badd = Matrix("FP64", Z.nrows, Z.ncols)
            ops.mxm(Badd, pattern_ones(Z), D, "PLUS_TIMES")
            ops.ewise_add(Z, Z, Badd, "PLUS")
        elif b:
            ops.apply(Z, Z, "plus", right=float(b))
        # ReLU
        Yn = Matrix("FP64", Z.nrows, Z.ncols)
        ops.select(Yn, Z, "VALUEGT", 0.0)
        if relu_clip is not None:
            clipped = Matrix("FP64", Yn.nrows, Yn.ncols)
            ops.apply(clipped, Yn, "min", right=float(relu_clip))
            Yn = clipped
        s["Y"] = Yn
        return {"layer": i + 1}

    state = {"Y": Y0}
    governor.iterate("dnn", state, layer, checkpoint, resume, steps=len(weights))
    return state["Y"]


def pattern_ones(M: Matrix) -> Matrix:
    out = Matrix("FP64", *M.shape)
    ops.apply(out, M, "one")
    return out


def dnn_categories(Y: Matrix) -> np.ndarray:
    """GraphChallenge scoring: ids of samples with any surviving activation."""
    scores = Vector("FP64", Y.nrows)
    ops.reduce_rowwise(scores, Y, "PLUS")
    idx, _ = scores.extract_tuples()
    return idx
