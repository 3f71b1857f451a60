"""Dense complex linear algebra for many-particle scattering amplitudes.

Provides the matrix permanent (Gray-code Ryser iteration), the determinant,
builders for the standard mode-mixing unitaries (Fourier multiport, two-mode
beamsplitter, Haar-random), and extraction of the scattering submatrix
selected by an input/output mode assignment.
"""

import itertools

import numpy as np

from .exceptions import DomainError

MAX_PERMANENT_DIM = 20
UNITARITY_TOL = 1e-12


def _as_square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix.

    Uses Ryser's inclusion-exclusion formula with Gray-code subset
    iteration, updating one row sum per step: O(2^n * n) total.

    Args:
        matrix: square array-like, dimension 1..20.

    Returns:
        The permanent as a complex number.
    """
    a = _as_square(matrix)
    n = a.shape[0]
    if n < 1:
        raise DomainError("permanent requires dimension >= 1")
    if n > MAX_PERMANENT_DIM:
        raise DomainError(f"permanent limited to dimension {MAX_PERMANENT_DIM}, got {n}")

    total = 0j
    row_sums = np.zeros(n, dtype=complex)
    gray = 0
    sign = 1  # parity of the subset size; exactly one bit toggles per step
    for k in range(1, 1 << n):
        g = k ^ (k >> 1)
        j = (g ^ gray).bit_length() - 1
        if g & (1 << j):
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        gray = g
        sign = -sign
        total += sign * row_sums.prod()
    if n % 2:
        total = -total
    return complex(total)


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
    if num_modes < 1:
        raise DomainError("mode count must be >= 1")
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
    if num_modes < 1:
        raise DomainError("mode count must be >= 1")
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


def scattering_submatrix(unitary, input_assignment, output_assignment) -> np.ndarray:
    """N x N submatrix whose (a, b) entry is U[input[a], output[b]].

    Repeated mode indices duplicate the corresponding rows or columns, as
    required for multiply occupied modes.
    """
    u = _as_square(unitary)
    inp = list(input_assignment)
    out = list(output_assignment)
    if len(inp) != len(out):
        raise DomainError(
            f"input and output assignments must have equal length, got {len(inp)} and {len(out)}"
        )
    m = u.shape[0]
    for mode in itertools.chain(inp, out):
        if not 0 <= int(mode) < m:
            raise DomainError(f"mode index {mode} out of range for {m} modes")
    return u[np.ix_(inp, out)]
