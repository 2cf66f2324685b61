"""BLAS and LAPACK in numpy's bundled OpenBLAS, and SciPy's distance and
normal-CDF kernels.

This is the one module that touches SciPy, and it imports no SciPy
package: ``importlib.util.find_spec`` locates SciPy's directory, and
numpy's, without running any ``__init__``.

BLAS and LAPACK are the routines of the OpenBLAS that numpy's wheel
bundles, ``numpy.libs/libscipy_openblas64_*.so``, the library behind
numpy's ``@``, which ``import numpy`` has loaded already: a process maps
one OpenBLAS and runs one BLAS thread pool.  Mapping SciPy's bundled copy
as well cost about 2.0 MB of a run's peak memory (2-core x86-64 VM, one
BLAS thread, numpy 2.4.6, SciPy 1.17.1).  The library is opened with
``ctypes.PyDLL``, and each wrapper here passes a routine
``scipy_<name>_64_``, whose integers are all 64-bit, the arguments SciPy's
f2py wrapper of that name passes its own OpenBLAS, with operands and
outputs laid out as f2py lays them out (``tests/test_surrogate.py``
compares each argument form the program uses with SciPy's, bit for bit at
one BLAS thread).  The two builds' ``dpotrf`` do differ in the last bits
on kernel matrices from 16 rows up, by up to 1.7e-13, which moves the
length scales of Gaussian-kernel searches that end on the conditioning
wall.  ``PyDLL`` holds the interpreter lock during a call, as f2py does;
releasing it, so that MFIS trials in threads overlap their BLAS work, is a
change to measure on its own.  A call costs about 2 us more than through
f2py (paired ``timeit`` rounds over the calls of a 10-trial ``example2``
run, one BLAS thread), mostly ctypes' argument passing and reading the
arrays' data addresses, which :func:`_address` takes from the array
object; :func:`svd` saves one LAPACK call by keeping ``dgesdd``'s
workspace size per shape.  SciPy's ``cython_blas`` and ``cython_lapack``
modules were measured and left: they import the top-level ``scipy``
package, +3.8 MB and 15-21 ms.

``scipy.spatial._distance_pybind`` is loaded straight from SciPy's
directory when this module is imported, and, on the first use of
:data:`ndtr`, ``scipy.special._ufuncs`` after the modules its init imports
(``_sf_error``, ``_special_ufuncs``, ``_ufuncs_cxx``, ``_ellip_harm_2``,
``_gufuncs``), under a lock, as MFIS trials run in threads.  Only a uniform
marginal needs ``ndtr``, and ``_ufuncs_cxx`` imports the top-level
``scipy``; the risk region's quantile is the port in ``_ndtri``.  So a
surrogate-MCS run, an MFIS run, a fit or a predict on the presets imports
no SciPy package.  The ``__init__``s of ``scipy.linalg``, ``scipy.spatial``
and ``scipy.special`` pull in SciPy's array-API shim, which imports
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: about 0.35 s and 26 MB
of peak memory per process, for nothing the program uses.  Each module is
registered in ``sys.modules`` under its own name, and one already there is
reused, so ``scipy.special.ndtr`` is this module's ``ndtr``.  A package
imported later sets as attributes only the children the import system
loads itself, so a ``sys.meta_path`` finder binds the children loaded here
before the package's ``__init__`` runs (``scipy.special.seterr`` reads
``scipy.special._special_ufuncs``).
"""

import importlib.util
import os
import sys
import threading
from ctypes import PyDLL, byref, c_double, c_int64, c_size_t, c_void_p
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
# Where numpy's wheel keeps the OpenBLAS its compiled modules link against.
_LIBS_DIR = os.path.join(
    os.path.dirname(importlib.util.find_spec("numpy").submodule_search_locations[0]),
    "numpy.libs")


def _routines(names):
    """The ILP64 routines ``scipy_<name>_64_`` of numpy's bundled OpenBLAS,
    opened with ``ctypes.PyDLL``, so a call holds the interpreter lock as
    SciPy's f2py wrappers do.

    They get no ``argtypes``: converting a ``dtrmm`` call's 15 arguments
    through them added 1.2 us to it.  The wrappers below check shapes and
    layouts, and pass only ctypes objects of the types the routines take.
    """
    try:
        found = sorted(f for f in os.listdir(_LIBS_DIR)
                       if f.startswith("libscipy_openblas64_") and f.endswith(".so"))
    except OSError:
        found = []
    if len(found) != 1:
        raise ImportError(f"expected one libscipy_openblas64_*.so in {_LIBS_DIR}, "
                          f"found {found or 'none'}")
    path = os.path.join(_LIBS_DIR, found[0])
    library = PyDLL(path)
    routines = []
    for name in names:
        try:
            routine = getattr(library, f"scipy_{name}_64_")
        except AttributeError:
            raise ImportError(f"{path} has no symbol scipy_{name}_64_") from None
        routine.restype = None
        routines.append(routine)
    return routines


(_dgemm, _dsymv, _dtrmm, _dtrmv, _dgesdd, _dlaset, _dlauum, _dpotrf, _dpotrs, _dtrtri,
 _dtrtrs) = _routines(("dgemm", "dsymv", "dtrmm", "dtrmv", "dgesdd", "dlaset", "dlauum",
                       "dpotrf", "dpotrs", "dtrtri", "dtrtrs"))


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

_distance = _extension("scipy.spatial._distance_pybind")
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


class _IntRefs(dict):
    """``byref(c_int64(value))`` by value, made on first use: Fortran takes
    every argument by reference, and no routine here writes an integer
    argument other than ``info``, which is made afresh for each call."""

    def __missing__(self, value):
        ref = self[value] = byref(c_int64(value))
        return ref


_INT = _IntRefs()
_ZERO = byref(c_double(0.0))
# The ``alpha`` of every call site.
_ALPHA = {1.0: byref(c_double(1.0)), -1.0: byref(c_double(-1.0))}
# The hidden length of a one-character argument, passed after the others,
# as the parameter object ``argtypes`` would make of it: passed as it is,
# four of them cost about 0.4 us less per call than four ``c_size_t(1)``.
_LEN = c_size_t.from_param(1)
_UPLO, _TRANS, _SIDE, _DIAG = (b"U", b"L"), (b"N", b"T"), (b"L", b"R"), (b"N", b"U")
# NumPy's C API keeps an array's data pointer right after the object
# header (``PyArrayObject_fields.data``); a ``c_void_p`` at that address,
# passed as an argument, passes the pointer.
_DATA_FIELD = object.__basicsize__
_pointer_at = c_void_p.from_address


def _address(a):
    """The address of an array's data, read from the array object in about a
    sixth of the time of ``a.ctypes.data``.  ``a`` must stay referenced
    until the call that takes the address returns."""
    return _pointer_at(id(a) + _DATA_FIELD)


_probe = np.empty(1)
if _address(_probe).value != _probe.ctypes.data:
    raise ImportError(f"numpy {np.__version__} keeps no array's data pointer "
                      f"at offset {_DATA_FIELD} of the array object")


def _alpha(alpha):
    """A reference to a double ``alpha``."""
    return _ALPHA.get(alpha) or byref(c_double(alpha))


def _written(a, overwrite):
    """``a`` as a Fortran-ordered float64 array a routine writes over:
    ``a`` itself when ``overwrite`` is set and it is one, else a copy."""
    return np.asfortranarray(a, float) if overwrite else np.array(a, float, order="F")


def _mismatch(*operands):
    """The error for operands whose shapes do not fit the routine."""
    return ValueError(f"operands of shapes {[np.shape(op) for op in operands]} do not fit")


def dgemm(alpha, a, b, trans_b=0):
    """``alpha a op(b)``, Fortran-ordered."""
    a, b = np.asfortranarray(a, float), np.asfortranarray(b, float)
    m, k = a.shape
    k_b, n = b.shape[::-1] if trans_b else b.shape
    if k_b != k:
        raise _mismatch(a, b)
    c = np.zeros((m, n), order="F")
    _dgemm(b"N", _TRANS[trans_b], _INT[m], _INT[n], _INT[k], _alpha(alpha),
           _address(a), _INT[m or 1], _address(b), _INT[len(b) or 1], _ZERO, _address(c),
           _INT[m or 1], _LEN, _LEN)
    return c


def dsymv(alpha, a, x):
    """``alpha a x`` for a symmetric ``a``, of which the upper triangle is read."""
    a, x = np.asfortranarray(a, float), np.ascontiguousarray(x, float)
    n = len(x)
    if a.shape != (n, n):
        raise _mismatch(a, x)
    y = np.zeros(n)
    _dsymv(b"U", _INT[n], _alpha(alpha), _address(a), _INT[n or 1], _address(x), _INT[1],
           _ZERO, _address(y), _INT[1], _LEN)
    return y


def dtrmm(alpha, a, b, side=0, lower=0, trans_a=0, diag=0, overwrite_b=0):
    """``alpha op(a) b``, or ``alpha b op(a)`` with ``side``, for a
    triangular ``a``, written over (a copy of) ``b``."""
    a, b = np.asfortranarray(a, float), _written(b, overwrite_b)
    m, n = b.shape
    k = n if side else m
    if a.shape != (k, k):
        raise _mismatch(a, b)
    _dtrmm(_SIDE[side], _UPLO[lower], _TRANS[trans_a], _DIAG[diag], _INT[m], _INT[n],
           _alpha(alpha), _address(a), _INT[k or 1], _address(b), _INT[m or 1],
           _LEN, _LEN, _LEN, _LEN)
    return b


def dtrmv(a, x, lower=0, trans=0):
    """``op(a) x`` for a triangular ``a``, in a copy of ``x``."""
    a, x = np.asfortranarray(a, float), np.array(x, float)
    n = len(x)
    if a.shape != (n, n) or x.ndim != 1:
        raise _mismatch(a, x)
    _dtrmv(_UPLO[lower], _TRANS[trans], b"N", _INT[n], _address(a), _INT[n or 1],
           _address(x), _INT[1], _LEN, _LEN, _LEN)
    return x


def dlauum(c, lower=0, overwrite_c=0):
    """``(c^T c, info)`` for ``lower``, else ``(c c^T, info)``, of a
    triangular ``c``, in that triangle of (a copy of) ``c``."""
    c, info = _written(c, overwrite_c), c_int64()
    n = len(c)
    if c.shape != (n, n):
        raise _mismatch(c)
    _dlauum(_UPLO[lower], _INT[n], _address(c), _INT[n or 1], byref(info), _LEN)
    return c, info.value


def dpotrf(a, lower=0, clean=1, overwrite_a=0):
    """``(factor, info)``: the Cholesky factor of ``a`` in (a copy of)
    ``a``; with ``clean`` the other triangle is zeroed, whatever ``info``."""
    a, info = _written(a, overwrite_a), c_int64()
    n = len(a)
    if a.shape != (n, n):
        raise _mismatch(a)
    _dpotrf(_UPLO[lower], _INT[n], _address(a), _INT[n or 1], byref(info), _LEN)
    if clean and n > 1:
        # The other triangle is the upper triangle, diagonal included, of the
        # (n-1) x (n-1) block one column right of the first entry, or the
        # lower one of the block one row below it.
        start = c_void_p(_address(a).value + 8 * (n if lower else 1))
        _dlaset(_UPLO[not lower], _INT[n - 1], _INT[n - 1], _ZERO, _ZERO, start, _INT[n], _LEN)
    return a, info.value


def dpotrs(c, b, lower=0):
    """``(x, info)`` with ``x`` solving ``a x = b``, ``c`` being ``a``'s
    Cholesky factor; ``b`` is a vector or a matrix."""
    c, b, info = np.asfortranarray(c, float), np.array(b, float, order="F"), c_int64()
    n = len(b)
    if c.shape != (n, n):
        raise _mismatch(c, b)
    _dpotrs(_UPLO[lower], _INT[n], _INT[b.shape[1] if b.ndim == 2 else 1], _address(c),
            _INT[n or 1], _address(b), _INT[n or 1], byref(info), _LEN)
    return b, info.value


def dtrtri(c, lower=0, overwrite_c=0):
    """``(inverse, info)`` of a triangular ``c``, in (a copy of) ``c``."""
    c, info = _written(c, overwrite_c), c_int64()
    n = len(c)
    if c.shape != (n, n):
        raise _mismatch(c)
    _dtrtri(_UPLO[lower], b"N", _INT[n], _address(c), _INT[n or 1], byref(info), _LEN, _LEN)
    return c, info.value


def dtrtrs(a, b, lower=0, trans=0):
    """``(x, info)`` with ``x`` solving ``op(a) x = b`` for a triangular
    ``a``; ``b`` is a vector or a matrix."""
    a, b, info = np.asfortranarray(a, float), np.array(b, float, order="F"), c_int64()
    n = len(b)
    if a.shape != (n, n):
        raise _mismatch(a, b)
    _dtrtrs(_UPLO[lower], _TRANS[trans], b"N", _INT[n], _INT[b.shape[1] if b.ndim == 2 else 1],
            _address(a), _INT[n or 1], _address(b), _INT[n or 1], byref(info), _LEN, _LEN, _LEN)
    return b, info.value


# ``dgesdd``'s optimal workspace by ``(m, n)``: one workspace query per shape.
_SVD_LWORK = {}


def svd(a, check_finite=True):
    """Thin SVD ``U, s, V^T`` of a float64 matrix, as
    ``scipy.linalg.svd(a, full_matrices=False)`` computes it: ``dgesdd``
    with its optimal workspace, given the arguments SciPy's wrapper gives it."""
    if check_finite:
        a = np.asarray_chkfinite(a)
    a = np.array(a, float, order="F")  # ``dgesdd`` writes over it
    m, n = a.shape
    k = min(m, n)
    u, s, vt = np.zeros((m, k), order="F"), np.zeros(k), np.zeros((k, n), order="F")
    iwork, info = np.empty(8 * k, np.int64), c_int64()

    def gesdd(work, lwork):
        _dgesdd(b"S", _INT[m], _INT[n], _address(a), _INT[m or 1], _address(s), _address(u),
                _INT[m or 1], _address(vt), _INT[k or 1], _address(work), _INT[lwork],
                _address(iwork), byref(info), _LEN)

    lwork = _SVD_LWORK.get((m, n))
    if lwork is None:
        query = np.empty(1)
        gesdd(query, -1)
        lwork = _SVD_LWORK[(m, n)] = int(query[0])
    gesdd(np.empty(lwork), lwork)
    info = info.value
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info == -4:
        raise ValueError("A has a NaN entry")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vt
