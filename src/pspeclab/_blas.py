"""One OpenBLAS thread for kernels on small matrices.

On small matrices OpenBLAS's extra threads cost more in start-up and
synchronisation than they save; they pay off only above a crossover
order.  `single_thread_below(M)` sets every OpenBLAS copy loaded in the
process (numpy and scipy each bundle one) to one thread for its body
when M < SINGLE_THREAD_BELOW, and restores each previous count on exit.
It never raises a count, so OPENBLAS_NUM_THREADS stays a ceiling, and
nested use is safe.  Thread counts are process-wide state: the limiter
is not safe to use from several Python threads at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib

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
