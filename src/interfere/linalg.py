"""Dense complex linear algebra for many-particle scattering amplitudes.

Provides the matrix permanent (Glynn's formula, batched over stacks), the
determinant, and builders for the standard mode-mixing unitaries (Fourier
multiport, two-mode beamsplitter, Haar-random). The scattering submatrix of
an event is plain indexing, U[np.ix_(inputs, outputs)], done by the engine
after it has checked the event.
"""

import functools

import numpy as np

from .exceptions import DomainError

MAX_PERMANENT_DIM = 20
MAX_MODES = 1024  # largest built network: an m x m complex matrix of 16 MiB
CHUNK_ELEMENTS = 1 << 16  # complex elements in one intermediate of ``permanents``
UNITARITY_TOL = 1e-12


def _as_square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


@functools.lru_cache(maxsize=None)
def _sign_table(width: int) -> np.ndarray:
    """All 2^width vectors of +-1 over ``width`` rows, in binary order; the
    array is cached read-only."""
    deltas = 1.0 - 2.0 * ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1)
    deltas.setflags(write=False)
    return deltas


def permanents(stack) -> np.ndarray:
    """Permanents of a stack of square complex matrices, (..., n, n) -> (...).

    Glynn's formula, 2^-(n-1) sum_delta (prod_k delta_k) prod_j sum_k
    delta_k A[k, j] over the sign vectors delta with delta_0 = +1, in
    O(2^n * n) per matrix. Each row sum is formed afresh, not along a Gray
    code, so rounding does not accumulate: a part over the first ``low``
    free rows, built once for all their sign patterns, plus a part over the
    other rows. No intermediate holds more than CHUNK_ELEMENTS numbers.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a stack of square matrices, got shape {a.shape}")
    n = a.shape[-1]
    if not 1 <= n <= MAX_PERMANENT_DIM:
        raise DomainError(f"permanent dimension must lie in 1..{MAX_PERMANENT_DIM}, got {n}")
    flat = a.reshape(-1, n, n)
    low = min(n - 1, (CHUNK_ELEMENTS // n).bit_length() - 1)  # 2^low * n <= CHUNK_ELEMENTS
    low_deltas = _sign_table(low)
    low_products = low_deltas.prod(axis=1)
    batch = CHUNK_ELEMENTS // (n << low)
    result = np.empty(len(flat), dtype=complex)
    for start in range(0, len(flat), batch):
        block = flat[start:start + batch]
        low_sums = low_deltas @ block[:, 1:1 + low, :]
        total = 0j
        for delta in _sign_table(n - 1 - low):
            rest = block[:, 0, :] + delta @ block[:, 1 + low:, :]
            total = total + delta.prod() * ((low_sums + rest[:, None, :]).prod(axis=-1) @ low_products)
        result[start:start + batch] = total
    return (result / 2.0 ** (n - 1)).reshape(a.shape[:-2])


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix, dimension 1..20: one matrix
    through ``permanents``."""
    return complex(permanents(_as_square(matrix)))


def determinant(matrix) -> complex:
    """Determinant of a square complex matrix (LAPACK LU with partial pivoting)."""
    a = _as_square(matrix)
    if a.shape[0] < 1:
        raise DomainError("determinant requires dimension >= 1")
    return complex(np.linalg.det(a))


def fourier_unitary(num_modes: int) -> np.ndarray:
    """Discrete-Fourier multiport on ``num_modes`` modes.

    Entry (j, k) is exp(2*pi*i*j*k/m)/sqrt(m); every single-mode transition
    probability equals 1/m.
    """
    if not 1 <= num_modes <= MAX_MODES:  # before the m x m matrix is allocated
        raise DomainError(f"mode count must lie in 1..{MAX_MODES}, got {num_modes}")
    j, k = np.meshgrid(np.arange(num_modes), np.arange(num_modes), indexing="ij")
    return np.exp(2j * np.pi * j * k / num_modes) / np.sqrt(num_modes)


def beamsplitter(transmissivity: float) -> np.ndarray:
    """Two-mode beamsplitter of the given intensity transmissivity.

    Returns [[sqrt(t), sqrt(1-t)], [sqrt(1-t), -sqrt(t)]]; t = 1/2 gives the
    balanced (50:50) splitter.
    """
    t = float(transmissivity)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"transmissivity must lie in [0, 1], got {t}")
    c = np.sqrt(t)
    s = np.sqrt(1.0 - t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def random_unitary(num_modes: int, seed: int) -> np.ndarray:
    """Haar-random unitary from QR orthonormalization of a complex Gaussian.

    The column phases are fixed by the sign of R's diagonal so the draw is
    reproducible and Haar-distributed.
    """
    if not 1 <= num_modes <= MAX_MODES:  # before the m x m matrix is allocated
        raise DomainError(f"mode count must lie in 1..{MAX_MODES}, got {num_modes}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(num_modes, num_modes)) + 1j * rng.normal(size=(num_modes, num_modes))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def is_unitary(matrix, tol: float = UNITARITY_TOL) -> bool:
    """True if U†U = I to within ``tol`` in maximum entry deviation."""
    a = _as_square(matrix)
    dev = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.abs(dev).max()) <= tol
