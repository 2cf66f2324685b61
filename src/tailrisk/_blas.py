"""BLAS and LAPACK in numpy's bundled OpenBLAS, and SciPy's distance and
normal-CDF kernels.

This is the one module that touches SciPy, and it imports no SciPy
package: ``importlib.util.find_spec`` locates SciPy's directory, and
numpy's, without running any ``__init__``.

BLAS and LAPACK are the routines of the OpenBLAS that numpy's wheel
bundles, ``numpy.libs/libscipy_openblas64_*.so``, the library behind
numpy's ``@`` and ``numpy.linalg``, which ``import numpy`` has loaded
already: a process maps one OpenBLAS and runs one BLAS thread pool.
Mapping SciPy's bundled copy as well cost about 2.0 MB of a run's peak
memory (2-core x86-64 VM, one BLAS thread, numpy 2.4.6, SciPy 1.17.1).
Here are only the routines that ``numpy.linalg`` does not offer with the
same bits; its singular value decomposition is the same LAPACK routine.
Each wrapper here passes a routine ``scipy_<name>_64_``, whose integers
are all 64-bit, the arguments SciPy's f2py wrapper of that name passes
its own OpenBLAS at the call sites' flags, with operands and outputs laid
out as f2py lays them out (``tests/test_surrogate.py`` compares each
argument form the program uses with SciPy's, bit for bit at one BLAS
thread).  A wrapper takes only the arguments its callers vary, and raises
``numpy.linalg.LinAlgError`` on a non-zero ``info`` that it does not
return.  The two builds' ``dpotrf`` do differ in the last bits on kernel
matrices from 16 rows up, by up to 1.7e-13, which moves the length scales
of Gaussian-kernel searches that end on the conditioning wall.

:data:`CONCURRENT_CALLS` is how many BLAS calls can run at once without
sharing a core: the cores this process may run on over OpenBLAS's thread
count, at least 1.  From 2 up the library is opened with ``ctypes.CDLL``,
so a call releases the interpreter lock and the LOO search runs its
explore starts on a helper thread (``surrogate``).  At 1 it is opened with
``ctypes.PyDLL``, which holds the lock during a call, as f2py does: at
the default two BLAS threads on a 2-core x86-64 VM, released, two callers
each fanned out to two threads, and 10-trial ``example1-corr09 --threads
2`` runs took 2.05-2.39 s against 1.67-2.10 s.  The one state that calls
share is :data:`_INT`, and it is safe without the lock: its entries are
only added, by Python code that holds the lock, and never change.  A
call costs about 2 us more than through f2py (paired ``timeit`` rounds
over the calls of a 10-trial ``example2`` run, one BLAS thread), mostly
ctypes' argument passing and reading the arrays' data addresses, which
:func:`_address` takes from the array object.  SciPy's ``cython_blas``
and ``cython_lapack`` modules were measured and left: they import the
top-level ``scipy`` package, +3.8 MB and 15-21 ms.

``scipy.spatial._distance_pybind`` is loaded straight from SciPy's
directory when this module is imported, and, on the first use of
:data:`ndtr`, ``scipy.special._special_ufuncs``, which loads no other
module (+1.0 MB), under a lock, as MFIS trials run in threads.  Only a
uniform marginal needs ``ndtr``; the risk region's quantile is the port
in ``_ndtri``.  So no run, fit or predict imports a SciPy package.  The
``__init__``s of ``scipy.linalg``, ``scipy.spatial`` and ``scipy.special``
pull in SciPy's array-API shim, which imports ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``: about 0.35 s and 26 MB of peak memory
per process, for nothing the program uses.  Each module is registered in
``sys.modules`` under its own name, and one already there is reused, so
``scipy.special.ndtr`` is this module's ``ndtr``.  A package imported
later sets as attributes only the children the import system loads
itself, so a ``sys.meta_path`` finder binds the children loaded here
before the package's ``__init__`` runs (``scipy.special.seterr`` reads
``scipy.special._special_ufuncs``).
"""

import importlib.util
import os
import sys
import threading
from ctypes import CDLL, PyDLL, byref, c_char_p, c_double, c_int64, c_size_t, c_void_p
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder, PathFinder

import numpy as np

# SciPy's directory, found without running its ``__init__``.
_SCIPY_DIR = importlib.util.find_spec("scipy").submodule_search_locations[0]
# Where numpy's wheel keeps the OpenBLAS its compiled modules link against.
_LIBS_DIR = os.path.join(
    os.path.dirname(importlib.util.find_spec("numpy").submodule_search_locations[0]),
    "numpy.libs")


def _routines(names):
    """:data:`CONCURRENT_CALLS`, the library, and the ILP64 routines
    ``scipy_<name>_64_`` of numpy's bundled OpenBLAS, opened with
    ``ctypes.CDLL`` when that count is 2 or more and with ``ctypes.PyDLL``
    otherwise.

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
    symbols = [f"scipy_{name}_64_" for name in names]
    for symbol in (*symbols, "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_corename64_"):
        if not hasattr(library, symbol):
            raise ImportError(f"{path} has no symbol {symbol}")
    concurrent = max(1, len(os.sched_getaffinity(0))
                     // library.scipy_openblas_get_num_threads64_())
    if concurrent > 1:
        library = CDLL(path, handle=library._handle)
    routines = [getattr(library, symbol) for symbol in symbols]
    for routine in routines:
        routine.restype = None
    library.scipy_openblas_get_corename64_.restype = c_char_p
    return concurrent, library, routines


CONCURRENT_CALLS, _library, (_dgemm, _dsymv, _dtrmm, _dtrmv, _dlaset, _dlauum, _dpotrf,
                             _dpotrs, _dtrtri, _dtrtrs) = _routines(
    ("dgemm", "dsymv", "dtrmm", "dtrmv", "dlaset", "dlauum", "dpotrf", "dpotrs", "dtrtri",
     "dtrtrs"))


def blas_environment():
    """What sets the last bits of a fit besides its inputs: the numpy
    version, the kernel set OpenBLAS picked for this CPU (its core name, or
    ``OPENBLAS_CORETYPE``'s) and OpenBLAS's thread count."""
    return {"numpy": np.__version__,
            "blas_core": _library.scipy_openblas_get_corename64_().decode(),
            "blas_threads": _library.scipy_openblas_get_num_threads64_()}


# The modules :func:`_extension` loaded, by package: ``{package: {child: module}}``.
_loaded = {}


def _extension(name):
    """SciPy's compiled module ``name``, loaded without its packages' ``__init__``."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    package, _, child = name.rpartition(".")
    directory = os.path.join(_SCIPY_DIR, *package.split(".")[1:])
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
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
# Held while ``ndtr``'s module loads: it is in ``sys.modules`` before it has run.
_ufuncs_lock = threading.Lock()


def __getattr__(name):
    """``ndtr``, SciPy's ufunc, loaded on first use."""
    if name != "ndtr":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _ufuncs_lock:
        ndtr = _extension("scipy.special._special_ufuncs").ndtr
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


def _written(a, overwrite):
    """``a`` as a Fortran-ordered float64 array a routine writes over:
    ``a`` itself when ``overwrite`` is set and it is one, else a copy."""
    return np.asfortranarray(a, float) if overwrite else np.array(a, float, order="F")


def _mismatch(*operands):
    """The error for operands whose shapes do not fit the routine."""
    return ValueError(f"operands of shapes {[np.shape(op) for op in operands]} do not fit")


def _checked(name, result, info):
    """``result``, or the error for a routine's non-zero ``info``."""
    if info.value:
        raise np.linalg.LinAlgError(f"{name} failed with info {info.value}")
    return result


def dgemm(a, b, trans_b=0):
    """``a op(b)``, Fortran-ordered."""
    a, b = np.asfortranarray(a, float), np.asfortranarray(b, float)
    m, k = a.shape
    k_b, n = b.shape[::-1] if trans_b else b.shape
    if k_b != k:
        raise _mismatch(a, b)
    c = np.zeros((m, n), order="F")
    _dgemm(b"N", _TRANS[trans_b], _INT[m], _INT[n], _INT[k], _ALPHA[1.0],
           _address(a), _INT[m or 1], _address(b), _INT[len(b) or 1], _ZERO, _address(c),
           _INT[m or 1], _LEN, _LEN)
    return c


def dsymv(a, x):
    """``a x`` for a symmetric ``a``, of which the upper triangle is read."""
    a, x = np.asfortranarray(a, float), np.ascontiguousarray(x, float)
    n = len(x)
    if a.shape != (n, n):
        raise _mismatch(a, x)
    y = np.zeros(n)
    _dsymv(b"U", _INT[n], _ALPHA[1.0], _address(a), _INT[n or 1], _address(x), _INT[1],
           _ZERO, _address(y), _INT[1], _LEN)
    return y


def dtrmm(alpha, a, b, side=0, lower=0, trans_a=0, diag=0, overwrite_b=0):
    """``alpha op(a) b``, or ``alpha b op(a)`` with ``side``, for a
    triangular ``a`` and an ``alpha`` of 1.0 or -1.0, written over (a copy
    of) ``b``."""
    a, b = np.asfortranarray(a, float), _written(b, overwrite_b)
    m, n = b.shape
    k = n if side else m
    if a.shape != (k, k):
        raise _mismatch(a, b)
    _dtrmm(_SIDE[side], _UPLO[lower], _TRANS[trans_a], _DIAG[diag], _INT[m], _INT[n],
           _ALPHA[alpha], _address(a), _INT[k or 1], _address(b), _INT[m or 1],
           _LEN, _LEN, _LEN, _LEN)
    return b


def dtrmv(a, x, trans=0):
    """``op(a) x`` for a lower-triangular ``a``, in a copy of ``x``."""
    a, x = np.asfortranarray(a, float), np.array(x, float)
    n = len(x)
    if a.shape != (n, n) or x.ndim != 1:
        raise _mismatch(a, x)
    _dtrmv(b"L", _TRANS[trans], b"N", _INT[n], _address(a), _INT[n or 1],
           _address(x), _INT[1], _LEN, _LEN, _LEN)
    return x


def dlauum(c):
    """``c^T c`` of a lower-triangular ``c``, in the lower triangle of ``c``
    itself when it is Fortran-ordered, else of a copy."""
    c, info = np.asfortranarray(c, float), c_int64()
    n = len(c)
    if c.shape != (n, n):
        raise _mismatch(c)
    _dlauum(b"L", _INT[n], _address(c), _INT[n or 1], byref(info), _LEN)
    return _checked("dlauum", c, info)


def dpotrf(a, overwrite_a=0):
    """``(factor, info)``: the lower Cholesky factor of ``a`` in (a copy
    of) ``a``, whose upper triangle is zeroed, whatever ``info``."""
    a, info = _written(a, overwrite_a), c_int64()
    n = len(a)
    if a.shape != (n, n):
        raise _mismatch(a)
    _dpotrf(b"L", _INT[n], _address(a), _INT[n or 1], byref(info), _LEN)
    if n > 1:
        # The strict upper triangle is the upper triangle, diagonal included,
        # of the (n-1) x (n-1) block one column right of the first entry.
        start = c_void_p(_address(a).value + 8 * n)
        _dlaset(b"U", _INT[n - 1], _INT[n - 1], _ZERO, _ZERO, start, _INT[n], _LEN)
    return a, info.value


def dpotrs(c, b):
    """``x`` solving ``a x = b``, ``c`` being ``a``'s lower Cholesky factor;
    ``b`` is a vector or a matrix."""
    c, b, info = np.asfortranarray(c, float), np.array(b, float, order="F"), c_int64()
    n = len(b)
    if c.shape != (n, n):
        raise _mismatch(c, b)
    _dpotrs(b"L", _INT[n], _INT[b.shape[1] if b.ndim == 2 else 1], _address(c),
            _INT[n or 1], _address(b), _INT[n or 1], byref(info), _LEN)
    return _checked("dpotrs", b, info)


def dtrtri(c):
    """The inverse of a lower-triangular ``c``, in ``c`` itself when it is
    Fortran-ordered, else in a copy."""
    c, info = np.asfortranarray(c, float), c_int64()
    n = len(c)
    if c.shape != (n, n):
        raise _mismatch(c)
    _dtrtri(b"L", b"N", _INT[n], _address(c), _INT[n or 1], byref(info), _LEN, _LEN)
    return _checked("dtrtri", c, info)


def dtrtrs(a, b, trans=0):
    """``x`` solving ``op(a) x = b`` for a lower-triangular ``a``; ``b`` is
    a vector or a matrix."""
    a, b, info = np.asfortranarray(a, float), np.array(b, float, order="F"), c_int64()
    n = len(b)
    if a.shape != (n, n):
        raise _mismatch(a, b)
    _dtrtrs(b"L", _TRANS[trans], b"N", _INT[n], _INT[b.shape[1] if b.ndim == 2 else 1],
            _address(a), _INT[n or 1], _address(b), _INT[n or 1], byref(info), _LEN, _LEN, _LEN)
    return _checked("dtrtrs", b, info)
