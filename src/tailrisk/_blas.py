"""SciPy's compiled BLAS, LAPACK and distance kernels, and ``a @ b`` through them.

This is the one module that imports SciPy when the package is imported.
It loads three of SciPy's extension modules, ``scipy.linalg._fblas``,
``scipy.linalg._flapack`` and ``scipy.spatial._distance_pybind``, straight
from the installed SciPy's directory, so no package ``__init__`` runs.
The ``__init__``s of ``scipy.linalg``, ``scipy.spatial`` and
``scipy.special`` pull in SciPy's array-API shim, which imports
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``; that cost each process
about 0.35 s and 26 MB of peak memory (2-core x86-64 VM, SciPy 1.17.1),
for nothing the program uses.  Each module is registered in
``sys.modules`` under its own name, and one that is already there is
reused, so ``scipy.linalg.blas.dgemm`` is this module's ``dgemm``: every
kernel is SciPy's own object, and every bit is the same.  :func:`svd` and
:func:`solve_triangular` call the LAPACK routines the way SciPy's wrappers
do; ``tests/test_surrogate.py`` checks both against SciPy's.

numpy and scipy can each ship an OpenBLAS with its own thread pool; when
numpy's ``@`` alternates with scipy's LAPACK, the two pools compete for the
cores (at two BLAS threads on two cores, runs took 1.3-1.8 times as long).
So :func:`matmul` computes ``a @ b`` through scipy's BLAS, the one the
factorizations use.
"""

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy


def _extension(name):
    """SciPy's compiled module ``name``, loaded without its packages' ``__init__``."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = name.rpartition(".")[0].split(".")[1:]
    directory = os.path.join(os.path.dirname(scipy.__file__), *package)
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"SciPy {scipy.__version__} has no compiled module {name}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_fblas = _extension("scipy.linalg._fblas")
_flapack = _extension("scipy.linalg._flapack")
_distance = _extension("scipy.spatial._distance_pybind")

ddot, dgemm, dgemv = _fblas.ddot, _fblas.dgemm, _fblas.dgemv
dsymv, dtrmm, dtrmv = _fblas.dsymv, _fblas.dtrmm, _fblas.dtrmv
dlauum, dpotrf, dpotrs, dtrtri = _flapack.dlauum, _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtri
# ``cdist(a, b, "sqeuclidean")`` and ``"cityblock"`` call these as they are.
cdist_sqeuclidean, cdist_cityblock = _distance.cdist_sqeuclidean, _distance.cdist_cityblock


def svd(a, check_finite=True):
    """Thin SVD ``U, s, V^T`` of a float64 matrix, as
    ``scipy.linalg.svd(a, full_matrices=False)`` computes it: ``dgesdd``
    with its optimal workspace."""
    if check_finite:
        a = np.asarray_chkfinite(a)
    lwork = int(_flapack.dgesdd_lwork(*a.shape, full_matrices=0)[0])
    u, s, vt, info = _flapack.dgesdd(a, lwork=lwork, full_matrices=0)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info == -4:
        raise ValueError("A has a NaN entry")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vt


def solve_triangular(a, b, lower, trans=0):
    """``a^-1 b``, or ``a^-T b`` with ``trans``, for a triangular float64
    ``a``, as ``scipy.linalg.solve_triangular`` computes it: ``dtrtrs`` on
    ``a``, or on its Fortran-ordered transpose with ``lower`` and
    ``trans`` flipped when ``a`` is C-ordered."""
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if not a.flags.f_contiguous:
        a, lower, trans = a.T, not lower, not trans
    x, info = _flapack.dtrtrs(a, b, lower=lower, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info-1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


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
