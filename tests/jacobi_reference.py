"""Cyclic Jacobi eigensolver, the pure-Python reference that the tests
compare the package's LAPACK eigenvalues (spectrum(), eigvalues_batch)
against.  It converges to spectrum()'s certificate tolerance."""

import math

import numpy as np

from eigrates.core import JACOBI_TOL_FACTOR, _offdiag_norm
from eigrates.errors import ConvergenceError, DimensionError, DomainError

# sweep cap of the Jacobi reference
JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(matrix: np.ndarray,
                tol_factor: float = JACOBI_TOL_FACTOR,
                max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi rotations for a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns, offdiag residual).
    Pure Python and slow: the reference that spectrum() and
    eigvalues_batch are tested against.
    """
    a = np.array(matrix, dtype=np.float64)
    k = a.shape[0]
    if a.ndim != 2 or a.shape[1] != k:
        raise DimensionError(f"expected a square matrix, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise DomainError("jacobi_eigh needs a symmetric input")
    q = np.eye(k)
    if k == 1:
        return a[0].copy(), q, 0.0

    norm_f = float(np.linalg.norm(a))
    if norm_f == 0.0:
        return np.zeros(k), q, 0.0
    thresh = tol_factor * norm_f

    converged = False
    off = _offdiag_norm(a)
    for _ in range(max_sweeps):
        if off <= thresh:
            converged = True
            break
        for p in range(k - 1):
            for r in range(p + 1, k):
                apr = a[p, r]
                if apr == 0.0:
                    continue
                tau = (a[r, r] - a[p, p]) / (2.0 * apr)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)  # small-angle limit, tau*tau overflows
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                # A <- G^T A G and Q <- Q G for the (p, r) rotation.
                col_p = a[:, p].copy()
                col_r = a[:, r].copy()
                a[:, p] = cth * col_p - sth * col_r
                a[:, r] = sth * col_p + cth * col_r
                row_p = a[p, :].copy()
                row_r = a[r, :].copy()
                a[p, :] = cth * row_p - sth * row_r
                a[r, :] = sth * row_p + cth * row_r
                a[p, r] = 0.0
                a[r, p] = 0.0
                q_p = q[:, p].copy()
                q_r = q[:, r].copy()
                q[:, p] = cth * q_p - sth * q_r
                q[:, r] = sth * q_p + cth * q_r
        off = _offdiag_norm(a)
    else:
        converged = off <= thresh
    if not converged:
        raise ConvergenceError(
            f"jacobi sweeps did not converge: residual {off:.3e} > {thresh:.3e}",
            offdiag_residual=off,
        )

    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], q[:, order], off
