"""Dense fixed-dimension linear algebra and numerically stable primitives.

Everything operates on float64 numpy arrays. Inverse matrices are never
formed explicitly: applications of ``Q**-1`` go through the Cholesky
factor held in :class:`SpdFactor` (triangular solves only). This matters
because few-shot covariance estimates are routinely near-singular.

All functions are pure; values are safe to share across workers. The
private BLAS thread-count helpers at the end are the exception: they set
process-wide state of the loaded OpenBLAS libraries.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np
import scipy

from .errors import (
    DimensionMismatch,
    EmptyInput,
    FactorizationFailed,
    NonFiniteInput,
    NotSymmetric,
)

# The beta=1 ridge normally guarantees positive definiteness; the tail of
# the schedule exists for beta=0 runs on degenerate tasks.
DEFAULT_JITTER = (0.0, 1e-8, 1e-6, 1e-4)

SYMMETRY_ATOL = 1e-8


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded from their file alone.

    ``scipy.linalg.lapack`` would run ``scipy/linalg/__init__.py`` first,
    which imports 334 modules besides numpy's (scipy 1.17) for the one
    routine used here. This loads the same extension, linked to the same
    scipy-bundled OpenBLAS. The top-level ``scipy`` package is imported
    first: it is light, and on Windows it makes that OpenBLAS findable.
    """
    folder = os.path.join(scipy.__path__[0], "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {folder}")
    loader = ExtensionFileLoader("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


dtrtrs = _load_flapack().dtrtrs


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factorization Q = L @ L.T of a symmetric positive-definite matrix.

    Attributes
    ----------
    lower : ndarray of shape (d, d)
        Lower-triangular factor with strictly positive diagonal.
    logdet : float
        log|Q|, cached as 2 * sum(log(diag(lower))).
    jitter : float
        The ridge epsilon that was added to the diagonal before
        factorization succeeded (0.0 in the common case).
    """

    lower: np.ndarray
    logdet: float
    jitter: float

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def spd_factorize(q: np.ndarray, jitter_schedule=DEFAULT_JITTER) -> SpdFactor:
    """Factorize a symmetric matrix, escalating through a jitter schedule.

    Tries Cholesky on ``q + eps * I`` for each ``eps`` in the schedule in
    order and returns the factor for the first success.

    Raises
    ------
    NotSymmetric
        If ``q`` deviates from symmetry by more than 1e-8 absolute.
    FactorizationFailed
        If every jitter value is exhausted.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise NonFiniteInput("matrix contains NaN or Inf")
    if np.max(np.abs(q - q.T), initial=0.0) > SYMMETRY_ATOL:
        raise NotSymmetric(
            f"matrix is asymmetric beyond {SYMMETRY_ATOL:g} absolute tolerance"
        )
    eye = np.eye(q.shape[0])
    for eps in jitter_schedule:
        try:
            lower = np.linalg.cholesky(q + eps * eye)
        except np.linalg.LinAlgError:
            continue
        # dpotrf rejects a pivot <= 0 or NaN, so a factor of a finite matrix has a finite logdet.
        logdet = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
        return SpdFactor(lower=lower, logdet=logdet, jitter=float(eps))
    raise FactorizationFailed(f"Cholesky failed for all jitter values {tuple(jitter_schedule)}")


def _factorize_stack(q: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Cholesky factors and log-determinants of a (B, d, d) stack of symmetric
    matrices, without jitter; None if any matrix fails or has a non-finite logdet.

    numpy factorizes a stack one matrix at a time, so each factor and logdet
    is bit for bit what :func:`spd_factorize` returns when no jitter is needed.
    """
    try:
        lower = np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        return None
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
    if not np.all(np.isfinite(logdet)):
        return None
    return lower, logdet


def _check_vector(f: SpdFactor, v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != f.dim:
        raise DimensionMismatch(
            f"{name} has shape {v.shape}, expected ({f.dim},)"
        )
    return v


def _solve_lower(f: SpdFactor, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve ``L x = b`` (``L.T x = b`` if transposed) as scipy's solve_triangular does:
    the same ``dtrtrs`` call from the same extension, without scipy.linalg's import."""
    lower = f.lower
    if lower.flags.f_contiguous:
        x, info = dtrtrs(lower, b, lower=1, trans=int(transposed))
    else:  # dtrtrs takes Fortran order: solve the transposed system on lower.T
        x, info = dtrtrs(lower.T, b, lower=0, trans=int(not transposed))
    if info:
        raise FactorizationFailed(f"triangular solve failed: dtrtrs info {info}")
    return x


def mahalanobis_sq(f: SpdFactor, a: np.ndarray, b: np.ndarray) -> float:
    """Squared Mahalanobis distance (a - b)^T Q^-1 (a - b).

    Computed as ||L^-1 (a - b)||^2 via a forward triangular solve, which
    is algebraically the same inner product the two-solve route would
    produce but is nonnegative by construction.
    """
    a = _check_vector(f, a, "a")
    b = _check_vector(f, b, "b")
    y = _solve_lower(f, a - b)
    return float(y @ y)


def mahalanobis_sq_many(f: SpdFactor, points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of each row of ``points`` to ``center``."""
    points = np.asarray(points, dtype=np.float64)
    center = _check_vector(f, center, "center")
    if points.ndim != 2 or points.shape[1] != f.dim:
        raise DimensionMismatch(
            f"points have shape {points.shape}, expected (m, {f.dim})"
        )
    if points.shape[0] == 0:
        return np.zeros(0)
    y = _solve_lower(f, (points - center).T)
    return np.einsum("ij,ij->j", y, y)


def solve_spd(f: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Apply Q^-1 to a vector through the two triangular solves."""
    rhs = _check_vector(f, rhs, "rhs")
    return _solve_lower(f, _solve_lower(f, rhs), transposed=True)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for an (m, K) logit matrix."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d logit matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        return x.copy()
    if x.shape[1] == 0:
        raise EmptyInput("softmax over zero classes")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("logits contain NaN or Inf")
    shifted = np.exp(x - np.max(x, axis=1, keepdims=True))
    return shifted / np.sum(shifted, axis=1, keepdims=True)


# Thread-count (getter, setter) symbol names of the bundled OpenBLAS builds:
# numpy's 64-bit-integer copy, scipy's copy, then plain builds.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(getter, setter) of each OpenBLAS library loaded in this process.

    Found through the process's own memory map, so only libraries already
    loaded count; empty where there is no map, no OpenBLAS, or no symbols.
    """
    try:
        with open("/proc/self/maps", "rb") as fh:  # paths need not be UTF-8
            paths = [os.fsdecode(line.split(None, 5)[-1].strip()) for line in fh]
    except OSError:
        return ()
    controls = []
    for path in dict.fromkeys(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except (OSError, UnicodeDecodeError):  # ctypes decodes dlerror's text, path and all
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


def _pin_single_blas_thread() -> list:
    """Set every loaded OpenBLAS whose count is not 1 to one thread.

    Returns the (setter, previous count) of each library it changed.
    Setting the count in a process forked from one already at 1 would
    restart OpenBLAS's thread pool there, hence the guard.
    """
    changed = []
    for get, set_ in _openblas_thread_controls():
        n = get()
        if n != 1:
            set_(1)
            changed.append((set_, n))
    return changed


@contextmanager
def _single_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread.

    The factorizations and solves here are too small for BLAS threads to
    pay; parallelism comes from worker processes instead. Processes forked
    inside the block inherit one thread. On exit only the counts the block
    changed are restored.
    """
    changed = _pin_single_blas_thread()
    try:
        yield
    finally:
        for set_, n in changed:
            set_(n)
