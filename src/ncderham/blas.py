"""One BLAS thread for the package's solves and error norms.

Multithreaded OpenBLAS splits the reductions of dot products and
matrix-vector products between its threads, so a CG solve's bits depend
on the thread count, and its small products slow down on a busy host.
``one_blas_thread`` sets numpy's bundled OpenBLAS to one thread for a
scope and restores the previous count on exit; the package owns any
further parallelism itself (see ``errors._squared_errors``).
"""

import contextlib
import ctypes

import numpy.linalg._umath_linalg as _linked  # links numpy's BLAS


def _openblas_thread_calls():
    """(get, set) of numpy's OpenBLAS thread count, or None where numpy
    links no scipy-openblas build that exports them."""
    try:
        lib = ctypes.CDLL(_linked.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


OPENBLAS = _openblas_thread_calls()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, each call) on one OpenBLAS
    thread; a no-op where ``OPENBLAS`` is None.  The count is
    process-wide: scopes entered from two threads at once may restore
    each other's count."""
    if OPENBLAS is None:
        yield
        return
    get, set_ = OPENBLAS
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
