"""Sparse linear algebra: direct saddle-point solves and preconditioned CG.

Saddle systems go through a sparse LU factorization (SuperLU with a
symmetric-pattern minimum-degree ordering and threshold partial
pivoting), reused across solves with one step of iterative refinement.
Symmetric positive definite systems use Jacobi-preconditioned conjugate
gradients.  All paths are deterministic: identical inputs give
bit-identical outputs.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "LinearSolveError",
    "SingularMatrixError",
    "solve_spd",
    "SaddleFactorization",
    "constrain_system",
    "constrain_vector",
]


class LinearSolveError(RuntimeError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class SingularMatrixError(LinearSolveError):
    pass


def constrain_system(K, fixed):
    """Zero the fixed rows/columns of K and put ones on their diagonal."""
    K = K.tocsr()
    n = K.shape[0]
    keep = np.ones(n)
    keep[np.asarray(fixed, dtype=int)] = 0.0
    S = sp.diags(keep)
    return ((S @ K @ S) + sp.diags(1.0 - keep)).tocsr()


def constrain_vector(rhs, fixed, values=0.0):
    out = np.array(rhs, dtype=float, copy=True)
    out[np.asarray(fixed, dtype=int)] = values
    return out


def solve_spd(A, rhs, tol=1e-13, max_iter=None):
    """Jacobi-preconditioned CG for symmetric positive definite systems.

    Stops at ||A x - rhs|| <= tol * ||rhs||.  Raises LinearSolveError with
    the residual history on stagnation, iteration exhaustion, or when a
    direction of nonpositive curvature reveals an indefinite matrix.
    """
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    nb = np.linalg.norm(rhs)
    if nb == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = max(200, int(np.ceil(10.0 * np.sqrt(n))))
    d = A.diagonal()
    if np.any(d <= 0):
        raise SingularMatrixError(
            f"nonpositive diagonal entry at row {int(np.argmin(d))}; matrix is not SPD"
        )
    x = np.zeros(n)
    r = rhs.copy()
    z = r / d
    p = z.copy()
    rz = r @ z
    history = [nb]
    for _ in range(max_iter):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0:
            raise LinearSolveError(
                "nonpositive curvature encountered; matrix is not positive definite",
                residual_history=history,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rn = np.linalg.norm(r)
        history.append(rn)
        if rn <= tol * nb:
            return x
        z = r / d
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"CG did not reach tol={tol:g} within {max_iter} iterations "
        f"(last residual {history[-1] / nb:.3e} relative)",
        residual_history=history,
    )


class SaddleFactorization:
    """Sparse LU of a constrained saddle system, reusable across loads."""

    def __init__(self, K, residual_tol=1e-10):
        self.K = K.tocsc()
        self.residual_tol = residual_tol
        try:
            self.lu = splu(self.K, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        bad = np.flatnonzero(~np.isfinite(rhs))
        if bad.size:
            raise LinearSolveError(
                f"non-finite right-hand side: {bad.size} entries, first at row {bad[0]}"
            )
        nb = np.linalg.norm(rhs)
        if nb == 0.0:
            return np.zeros(rhs.size)
        x = self.lu.solve(rhs)
        r = rhs - self.K @ x
        x = x + self.lu.solve(r)
        r = rhs - self.K @ x
        res = np.linalg.norm(r)
        if not np.isfinite(res) or res > self.residual_tol * nb:
            self._raise_singular(res / nb)
        return x

    def _raise_singular(self, rel_res):
        # factorization survived but cannot reproduce the load: in practice a
        # (numerically) singular system, e.g. an unfixed pressure level
        pivots = np.abs(self.lu.U.diagonal())
        row = int(np.argmin(pivots))
        raise SingularMatrixError(
            f"saddle solve failed (relative residual {rel_res:.3e}); "
            f"smallest pivot {pivots[row]:.3e} at factor row {row} "
            "suggests a singular system (pressure nullspace?)"
        )
