"""SciPy's compiled BLAS, LAPACK, distance and normal-CDF kernels, and
``a @ b`` through them.

This is the one module that imports SciPy.  It loads SciPy's modules
straight from the installed SciPy's directory, which
``importlib.util.find_spec`` locates without importing ``scipy``, so no
package ``__init__`` runs, not even the top-level one:
``scipy.linalg._fblas``, ``scipy.linalg._flapack`` and
``scipy.spatial._distance_pybind`` when it is imported, and, on the first
use of :data:`ndtr`, ``scipy.special._ufuncs`` after the modules its init
imports (``_sf_error``, ``_special_ufuncs``, ``_ufuncs_cxx``,
``_ellip_harm_2``, ``_gufuncs``), under a lock, as MFIS trials run in
threads.  Only a uniform marginal needs ``ndtr``, and ``_ufuncs_cxx``
imports the top-level ``scipy`` when it loads; the risk region's quantile
is the port in ``_ndtri``.  So a surrogate-MCS run, an MFIS run, a fit or
a predict on the presets imports no SciPy package at all.  Importing
``scipy`` after numpy added about 1.3 MB of resident memory and 10 ms,
and the ufunc modules with it about 3 MB and 11-23 ms.  The ``__init__``s
of ``scipy.linalg``, ``scipy.spatial`` and ``scipy.special`` pull in
SciPy's array-API shim, which imports ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``; that cost each process about 0.35 s and 26 MB of peak
memory, and each MFIS process another 0.14-0.24 s and about 13 MB for
``scipy.special`` (2-core x86-64 VM, SciPy 1.17.1), for nothing the
program uses.  Each module is registered in ``sys.modules`` under its own
name, and one that is already there is reused, so
``scipy.linalg.blas.dgemm`` is this module's ``dgemm`` and
``scipy.special.ndtr`` its ``ndtr``: every kernel is SciPy's own object,
and every bit is the same.  A package imported later sets as attributes
only the children the import system loads itself, so a ``sys.meta_path``
finder binds the children loaded here before the package's ``__init__``
runs (``scipy.special.seterr`` reads ``scipy.special._special_ufuncs``).
:func:`svd` is the one LAPACK wrapper: it hides ``dgesdd``'s workspace
query as SciPy's does, and ``tests/test_surrogate.py`` checks it against
SciPy's.  Every other routine is called as it is.

numpy and scipy can each ship an OpenBLAS with its own thread pool; when
numpy's ``@`` alternates with scipy's LAPACK, the two pools compete for the
cores (at two BLAS threads on two cores, runs took 1.3-1.8 times as long).
So :func:`matmul` computes ``a @ b`` through scipy's BLAS, the one the
factorizations use.
"""

import importlib.util
import os
import sys
import threading
from importlib.machinery import (
    EXTENSION_SUFFIXES,
    SOURCE_SUFFIXES,
    ExtensionFileLoader,
    FileFinder,
    PathFinder,
    SourceFileLoader,
)

import numpy as np

# SciPy's directory, found without running its ``__init__``.
_SCIPY_DIR = importlib.util.find_spec("scipy").submodule_search_locations[0]


# The modules :func:`_extension` loaded, by package: ``{package: {child: module}}``.
_loaded = {}


def _extension(name):
    """SciPy's module ``name``, compiled or ``.py``, loaded without its packages' ``__init__``."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    package, _, child = name.rpartition(".")
    directory = os.path.join(_SCIPY_DIR, *package.split(".")[1:])
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES),
                        (SourceFileLoader, SOURCE_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"the SciPy at {_SCIPY_DIR} has no module {name}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    _loaded.setdefault(package, {})[child] = module
    return module


class _ChildBinder:
    """A ``sys.meta_path`` finder for a SciPy package imported after some
    of its children were loaded here: the package's own spec, whose
    ``exec_module`` sets those children as attributes before ``__init__``
    runs, as the import system does for children it loads itself."""

    @staticmethod
    def find_spec(name, path, target=None):
        children = _loaded.get(name)
        if children is None:
            return None
        spec = PathFinder.find_spec(name, path, target)
        exec_module = spec.loader.exec_module

        def bind_children(module):
            for child, value in children.items():
                setattr(module, child, value)
            exec_module(module)

        spec.loader.exec_module = bind_children
        return spec


sys.meta_path.insert(0, _ChildBinder)

_fblas = _extension("scipy.linalg._fblas")
_flapack = _extension("scipy.linalg._flapack")
_distance = _extension("scipy.spatial._distance_pybind")

ddot, dgemm, dgemv = _fblas.ddot, _fblas.dgemm, _fblas.dgemv
dsymv, dtrmm, dtrmv = _fblas.dsymv, _fblas.dtrmm, _fblas.dtrmv
dlauum, dpotrf, dpotrs = _flapack.dlauum, _flapack.dpotrf, _flapack.dpotrs
dtrtri, dtrtrs = _flapack.dtrtri, _flapack.dtrtrs
# ``cdist(a, b, "sqeuclidean")`` and ``"cityblock"`` call these as they are.
cdist_sqeuclidean, cdist_cityblock = _distance.cdist_sqeuclidean, _distance.cdist_cityblock
# The modules that ``scipy.special._ufuncs``'s init imports, in its order.
_UFUNCS_IMPORTS = ("_sf_error", "_special_ufuncs", "_ufuncs_cxx", "_ellip_harm_2", "_gufuncs")
# Held while they load: a module is in ``sys.modules`` before it has run.
_ufuncs_lock = threading.Lock()


def __getattr__(name):
    """``ndtr``, SciPy's ufunc, loaded on first use."""
    if name != "ndtr":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _ufuncs_lock:
        for child in _UFUNCS_IMPORTS:
            _extension(f"scipy.special.{child}")
        ndtr = _extension("scipy.special._ufuncs").ndtr
        globals()["ndtr"] = ndtr  # later reads skip this hook
    return ndtr


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
