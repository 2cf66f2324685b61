"""``a @ b`` through scipy's BLAS, the one the factorizations use.

numpy and scipy can each ship an OpenBLAS with its own thread pool; when
numpy's ``@`` alternates with scipy's LAPACK, the two pools compete for the
cores (at two BLAS threads on two cores, runs took 1.3-1.8 times as long).
"""

import numpy as np
from scipy.linalg.blas import ddot, dgemm, dgemv


def _transposed(matrix):
    """A Fortran-ordered array and a BLAS transpose flag that stand for ``matrix.T``."""
    if matrix.flags.c_contiguous:
        return matrix.T, 0
    return np.asfortranarray(matrix), 1


def matmul(a, b):
    """``a @ b`` for float64 operands, ``a`` a matrix or both vectors.

    ``a b`` is computed as ``(b^T a^T)^T``, in the layouts of numpy's
    row-major BLAS call, so it rounds as ``@`` does and comes back C-ordered.
    """
    if not (a.size and b.size):  # BLAS refuses empty operands
        return a @ b
    if a.ndim == 1:
        return ddot(a, b)
    left, flip = _transposed(a)
    if b.ndim == 1:
        return dgemv(1.0, left, b, trans=1 - flip)
    right, flip_b = _transposed(b)
    return dgemm(1.0, right, left, trans_a=flip_b, trans_b=flip).T
