"""Sparse linear algebra: direct saddle-point solves and preconditioned CG.

One solver per system type, each built once from the unconstrained
operator and its wall (Dirichlet) dofs and reused across loads; ``solve``
returns full-length fields whose wall rows are exactly zero.

- ``SaddleFactorization``: the Taylor-Hood saddle system, through a sparse
  LU factorization (SuperLU with a symmetric-pattern minimum-degree
  ordering and threshold partial pivoting) and one step of iterative
  refinement.
- ``WallCG``: a symmetric positive definite system, through
  Jacobi-preconditioned conjugate gradients (``solve_spd``) on its free
  block.

All paths are deterministic: identical inputs give bit-identical outputs.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "LinearSolveError",
    "SingularMatrixError",
    "solve_spd",
    "SaddleFactorization",
    "WallCG",
]


class LinearSolveError(RuntimeError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class SingularMatrixError(LinearSolveError):
    pass


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


class WallCG:
    """Jacobi-CG for an SPD operator with zero values on the wall dofs.

    The free block of ``A`` is extracted once and reused by every solve.
    """

    def __init__(self, A, fixed, tol):
        free = np.ones(A.shape[0], dtype=bool)
        free[np.asarray(fixed, dtype=int)] = False
        self.free = np.flatnonzero(free)
        self.A_ff = A.tocsr()[self.free][:, self.free]
        self.tol = tol

    def solve(self, load):
        """Full-length solution of the free rows of ``load``; wall rows are 0."""
        x = np.zeros(np.size(load))
        x[self.free] = solve_spd(self.A_ff, np.asarray(load)[self.free], tol=self.tol)
        return x


class SaddleFactorization:
    """Sparse LU of a saddle system with its wall velocity dofs eliminated.

    ``K`` is the unconstrained operator and ``fixed`` the wall dofs: their
    rows and columns are replaced by identity rows and columns, so their
    solution values are exactly zero.  The LU is reused across loads.
    """

    def __init__(self, K, fixed, residual_tol=1e-10):
        self.fixed = np.asarray(fixed, dtype=int)
        keep = np.ones(K.shape[0])
        keep[self.fixed] = 0.0
        S = sp.diags(keep)
        self.K = ((S @ K.tocsr() @ S) + sp.diags(1.0 - keep)).tocsc()
        self.residual_tol = residual_tol
        try:
            self.lu = splu(self.K, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc

    def solve(self, load):
        """Solve with ``load`` on the leading rows and zeros below them.

        Returns ``(x[:n], x[n:])`` with ``n = load.size``: a velocity load
        gives the velocity and the pressure.
        """
        load = np.asarray(load, dtype=float)
        bad = np.flatnonzero(~np.isfinite(load))
        if bad.size:
            raise LinearSolveError(
                f"non-finite right-hand side: {bad.size} entries, first at row {bad[0]}"
            )
        n = load.size
        rhs = np.zeros(self.K.shape[0])
        rhs[:n] = load
        rhs[self.fixed] = 0.0
        nb = np.linalg.norm(rhs)
        if nb == 0.0:
            return rhs[:n], rhs[n:]
        x = self.lu.solve(rhs)
        r = rhs - self.K @ x
        x = x + self.lu.solve(r)
        r = rhs - self.K @ x
        res = np.linalg.norm(r)
        if not np.isfinite(res) or res > self.residual_tol * nb:
            self._raise_singular(res / nb)
        return x[:n], x[n:]

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
