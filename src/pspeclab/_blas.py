"""One OpenBLAS thread for kernels on small matrices.

On small matrices OpenBLAS's extra threads cost more in start-up and
synchronisation than they save; they pay off only above a crossover
order.  `single_thread_below(M)` sets every OpenBLAS copy loaded in the
process (numpy and scipy each bundle one) to one thread for its body
when M < SINGLE_THREAD_BELOW, and restores each previous count on exit.
It never raises a count, so OPENBLAS_NUM_THREADS stays a ceiling, and
nested use is safe.  Thread counts are process-wide state: the limiter
is not safe to use from several Python threads at once.

The module also binds the one LAPACK routine scipy exposes only to
Cython: `band_bidiagonal` calls zgbbrd through the C wrapper that
scipy.linalg.cython_lapack exports as a PyCapsule.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib

import numpy as np

# measured on a 2-core box: below this order the shared-Schur sweep runs
# 10-25% faster on one thread, and no kernel loses more than LU's 14% at
# M=320; from it upward LU and Schur lose 12-37% and the sweep's gain fades
SINGLE_THREAD_BELOW = 352

# (extension module linked to an OpenBLAS copy, setter, getter)
_LIBRARIES = (
    ("numpy.linalg._umath_linalg", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    ("scipy.linalg._flapack", "scipy_openblas_set_num_threads",
     "scipy_openblas_get_num_threads"),
)


@functools.cache
def _find_controls():
    """(setter, getter) pairs of the OpenBLAS copies found; dlsym on an
    extension module's handle searches the libraries it links."""
    found = []
    for module, set_name, get_name in _LIBRARIES:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except (ImportError, OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        found.append((setter, getter))
    return tuple(found)


@contextlib.contextmanager
def single_thread_below(M, controls=None):
    """Run the body on one BLAS thread when M < SINGLE_THREAD_BELOW.

    Yields the thread count the body's kernels run at, or None when no
    thread setter was found (the limiter is then a no-op).  controls
    replaces the (setter, getter) pairs found in the process.
    """
    if controls is None:
        controls = _find_controls()
    if not controls:
        yield None
        return
    prev = [get() for _, get in controls]
    if M >= SINGLE_THREAD_BELOW:
        yield max(prev)
        return
    for (set_, _), n in zip(controls, prev):
        if n > 1:
            set_(1)
    try:
        yield 1
    finally:
        for (set_, _), n in zip(controls, prev):
            if n > 1:
                set_(n)


@functools.cache
def _zgbbrd():
    """scipy's C wrapper of LAPACK zgbbrd as a ctypes function, or None
    when scipy exports no capsule for it.  Every one of its 19 arguments
    is a pointer."""
    try:
        from scipy.linalg import cython_lapack
        capsule = cython_lapack.__pyx_capi__["zgbbrd"]
    except (ImportError, AttributeError, KeyError):
        return None
    api = ctypes.pythonapi
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    address = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 19)(address)


def band_bidiagonal(ab, kl, ku):
    """The real upper bidiagonal (d, e) that LAPACK zgbbrd reduces the
    square band matrix ab to by unitary transformations, so with the
    same singular values; no vectors are formed.  ab is LAPACK's band
    storage, ab[ku + i - j, j] = A[i, j], complex and Fortran-ordered
    with kl + ku + 1 rows, and is overwritten.  Raises LinAlgError on a
    non-zero info.  Callers check band_bidiagonal_found() first."""
    if (ab.dtype != np.complex128 or not ab.flags.f_contiguous
            or ab.shape[0] != kl + ku + 1):
        raise ValueError("ab must be Fortran-ordered complex band storage "
                         "with kl + ku + 1 rows")
    M = ab.shape[1]
    # every buffer and scalar is bound to a name for the length of the
    # call, so none is freed before LAPACK reads it
    d, e = np.empty(M), np.empty(max(M - 1, 1))
    work, rwork = np.empty(M, complex), np.empty(M)
    dummy = np.zeros(1, complex)               # q, pt and c: not referenced
    vect = ctypes.c_char(b"N")
    m, ncc, lo, hi, ldab, one, info = (ctypes.c_int(v) for v in
                                       (M, 0, kl, ku, ab.shape[0], 1, 0))
    ref = ctypes.byref
    _zgbbrd()(ref(vect), ref(m), ref(m), ref(ncc), ref(lo), ref(hi),
              ab.ctypes.data, ref(ldab), d.ctypes.data, e.ctypes.data,
              dummy.ctypes.data, ref(one), dummy.ctypes.data, ref(one),
              dummy.ctypes.data, ref(one), work.ctypes.data, rwork.ctypes.data,
              ref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"zgbbrd returned info = {info.value}")
    return d, e[:M - 1]


def band_bidiagonal_found():
    """Whether zgbbrd could be bound (see _zgbbrd)."""
    return _zgbbrd() is not None
