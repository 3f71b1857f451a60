"""Dense complex linear algebra for many-particle scattering amplitudes.

Provides the matrix permanent (Glynn's formula, batched over stacks), the
determinant, and builders for the standard mode-mixing unitaries (Fourier
multiport, two-mode beamsplitter, Haar-random), and the one unitarity test
of a network. The engine builds the scattering submatrices of an event
itself, as one broadcast index into U, after it has checked the event.
"""

import functools

import numpy as np

from .exceptions import DomainError
from .model import as_integers, as_reals, as_square

MAX_PERMANENT_DIM = 20
MAX_MODES = 1024  # largest built network: an m x m complex matrix of 16 MiB
CHUNK_ELEMENTS = 1 << 16  # complex elements in one intermediate of ``permanents``
UNITARITY_TOL = 1e-8  # loose enough for matrices read back from text files


@functools.lru_cache(maxsize=None)
def _sign_table(width: int) -> np.ndarray:
    """All 2^width vectors of +-1 over ``width`` rows, in binary order; the
    array is cached read-only."""
    deltas = 1.0 - 2.0 * ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1)
    deltas.setflags(write=False)
    return deltas


@functools.lru_cache(maxsize=None)
def _sign_products(width: int) -> np.ndarray:
    """The product of each row of ``_sign_table(width)``, cached read-only."""
    products = _sign_table(width).prod(axis=1)
    products.setflags(write=False)
    return products


def _glynn_chunk(block, inner: int, low: int, buffer) -> np.ndarray:
    """Glynn's sum, without its 2^-(n-1), of a (columns, matrices, rows) chunk
    of n x n matrices. Rows 1..inner are the inner part, row 0 and the last
    n - 1 - inner rows the outer part. The full row sums are formed 2^low per
    matrix at a time in ``buffer``, which the caller keeps across chunks:
    refilled in place, it costs less than a fresh array per step, while the
    sums of the two parts are freed when the chunk is done."""
    n = block.shape[0]
    outer = n - 1 - inner
    step = 1 << (low - inner)  # outer sign patterns per 2^low full sums
    outer_products, low_products = _sign_products(outer), _sign_products(low)
    inner_sums = block[:, :, 1:1 + inner] @ _sign_table(inner).T
    outer_sums = block[:, :, :1] + block[:, :, 1 + inner:] @ _sign_table(outer).T
    sums = buffer[:n * block.shape[1] << low].reshape(n, -1, 1 << low)
    pairs = sums.reshape(n, -1, step, 1 << inner)  # (columns, matrices, outer pattern, inner pattern)
    total = 0j
    for k in range(0, 1 << outer, step):
        # k is a multiple of step, a power of two, so the sign product of outer pattern k + o
        # with inner pattern i is outer_products[k] * low_products[o * 2^inner + i]
        np.add(inner_sums[:, :, None, :], outer_sums[:, :, k:k + step, None], out=pairs)
        total = total + outer_products[k] * (sums.prod(axis=0) @ low_products)
    return total


def permanents(stack) -> np.ndarray:
    """Permanents of a stack of square complex matrices, (..., n, n) -> (...).

    Glynn's formula, 2^-(n-1) sum_delta (prod_k delta_k) prod_j sum_k delta_k A[k, j]
    over the sign vectors delta with delta_0 = +1, in O(2^n * n) per matrix. Each
    row sum is formed afresh, not along a Gray code, so rounding does not
    accumulate: the free rows 1..n-1 split into an inner and an outer part, the
    sums of each part for all of its sign patterns are one matrix product with
    its sign table, and a full row sum is one add of an inner and an outer sum
    (row 0 goes with the outer part). The column axis leads (columns, matrices,
    sign patterns), so the product over columns is n - 1 multiplies of
    contiguous slabs. No intermediate holds more than CHUNK_ELEMENTS numbers.

    The inner part is the first ``low`` free rows, as many as fit one chunk of
    full row sums (all of them up to n = 13), unless a chunk holds fewer
    matrices than sign patterns (n >= 8) and that one table's (low)-term dot
    products, shared by the 2^(n-1-low) chunks of outer patterns, cost at least
    one multiply-add per full row sum (n <= 16). There the free rows split in
    halves, n // 2 inner: one add replaces the dot product of each sum, in inner
    loops of 2^(n // 2) numbers. Below n = 8 those loops are too short to pay,
    and above n = 16 the one table costs little beside the adds.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a stack of square matrices, got shape {a.shape}")
    n = a.shape[-1]
    if not 1 <= n <= MAX_PERMANENT_DIM:
        raise DomainError(f"permanent dimension must lie in 1..{MAX_PERMANENT_DIM}, got {n}")
    flat = a.reshape(-1, n, n)
    low = min(n - 1, (CHUNK_ELEMENTS // n).bit_length() - 1)  # 2^low * n <= CHUNK_ELEMENTS
    batch = CHUNK_ELEMENTS // (n << low)
    halves = batch < 1 << low and 1 << (n - 1 - low) <= low  # 8 <= n <= 16, see the docstring
    inner = n // 2 if halves else low
    result = np.empty(len(flat), dtype=complex)
    buffer = np.empty(n * min(batch, len(flat)) << low, dtype=complex)
    for start in range(0, len(flat), batch):
        result[start:start + batch] = _glynn_chunk(flat[start:start + batch].transpose(2, 0, 1), inner, low, buffer)
    return (result / 2.0 ** (n - 1)).reshape(a.shape[:-2])


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix, dimension 1..20: one matrix
    through ``permanents``."""
    return complex(permanents(as_square(matrix, "matrix")))


def determinant(matrix) -> complex:
    """Determinant of a square complex matrix (LAPACK LU with partial pivoting)."""
    return complex(np.linalg.det(as_square(matrix, "matrix")))


def fourier_unitary(num_modes: int) -> np.ndarray:
    """Discrete-Fourier multiport on ``num_modes`` modes.

    Entry (j, k) is exp(2*pi*i*j*k/m)/sqrt(m); every single-mode transition
    probability equals 1/m.
    """
    (num_modes,) = as_integers((num_modes,), "mode count", 1, MAX_MODES)  # before the m x m matrix is allocated
    j, k = np.meshgrid(np.arange(num_modes), np.arange(num_modes), indexing="ij")
    return np.exp(2j * np.pi * j * k / num_modes) / np.sqrt(num_modes)


def beamsplitter(transmissivity: float) -> np.ndarray:
    """Two-mode beamsplitter of the given intensity transmissivity.

    Returns [[sqrt(t), sqrt(1-t)], [sqrt(1-t), -sqrt(t)]]; t = 1/2 gives the
    balanced (50:50) splitter.
    """
    (t,) = as_reals((transmissivity,), "transmissivity", 0.0, 1.0)
    c = np.sqrt(t)
    s = np.sqrt(1.0 - t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def random_unitary(num_modes: int, seed: int) -> np.ndarray:
    """Haar-random unitary from QR orthonormalization of a complex Gaussian.

    The column phases are fixed by the sign of R's diagonal so the draw is
    reproducible and Haar-distributed.
    """
    (num_modes,) = as_integers((num_modes,), "mode count", 1, MAX_MODES)  # before the m x m matrix is allocated
    (seed,) = as_integers((seed,), "seed", 0)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(num_modes, num_modes)) + 1j * rng.normal(size=(num_modes, num_modes))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def is_unitary(matrix) -> bool:
    """True if the matrix is finite and U†U = I to within UNITARITY_TOL in
    maximum entry deviation; DomainError unless it is a square matrix of numbers."""
    a = as_square(matrix, "matrix")
    if not np.isfinite(a).all():
        return False
    dev = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.abs(dev).max()) <= UNITARITY_TOL
