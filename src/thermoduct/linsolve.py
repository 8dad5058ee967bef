"""Sparse linear algebra: direct saddle-point solves and preconditioned CG.

One solver per system type, each built once from the unconstrained
operator and its wall (Dirichlet) dofs and reused across loads; ``solve``
returns full-length fields whose wall rows are exactly zero.

- ``SaddleFactorization``: the Taylor-Hood saddle system, through a sparse
  LU factorization of its free block (SuperLU in a caller-given
  fill-reducing order, such as the grid's nested dissection, with no row
  interchanges) and one step of iterative refinement.
- ``WallCG``: a symmetric positive definite system, through
  Jacobi-preconditioned conjugate gradients (``solve_spd``) on its free
  block.

All paths are deterministic: identical inputs give bit-identical outputs.
"""

import numpy as np
from scipy.sparse.linalg import splu

_RESIDUAL_TOL = 1e-10  # relative residual a refined saddle solve must reach

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


def _check_finite(rhs):
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        raise LinearSolveError(
            f"non-finite right-hand side: {bad.size} entries, first at row {bad[0]}"
        )


def solve_spd(A, rhs, tol=1e-13, max_iter=None):
    """Jacobi-preconditioned CG for symmetric positive definite systems.

    Stops at ||A x - rhs|| <= tol * ||rhs||.  Raises LinearSolveError on a
    non-finite right-hand side before iterating, and with the residual
    history on stagnation, iteration exhaustion, or when a direction of
    nonpositive curvature reveals an indefinite matrix.
    """
    A = A.tocsr()
    rhs = np.asarray(rhs, dtype=float)
    _check_finite(rhs)
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
    """Sparse LU of the free block of a saddle system, in a given order.

    ``K`` is the unconstrained operator, ``fixed`` its wall dofs (their
    solution values are exactly zero) and ``order`` a fill-reducing
    permutation of all its dofs, such as ``DiscreteSpace.saddle_order``.
    The free dofs are factored in that order with no row interchanges, so
    a zero pressure diagonal must follow a coupled velocity dof; each solve
    takes one step of iterative refinement, as static pivoting does.  The
    LU is reused across loads.
    """

    def __init__(self, K, fixed, order):
        self.n_dofs = K.shape[0]
        free = np.ones(self.n_dofs, dtype=bool)
        free[np.asarray(fixed, dtype=int)] = False
        self.dofs = order[free[order]]
        self.K = K.tocsr()[self.dofs][:, self.dofs].tocsc()
        try:
            self.lu = splu(
                self.K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc

    def solve(self, load):
        """Solve with ``load`` on the leading rows and zeros below them.

        Returns ``(x[:n], x[n:])`` with ``n = load.size``: a velocity load
        gives the velocity and the pressure.
        """
        load = np.asarray(load, dtype=float)
        _check_finite(load)
        n = load.size
        rhs = np.zeros(self.n_dofs)
        rhs[:n] = load
        b = rhs[self.dofs]
        nb = np.linalg.norm(b)
        x = np.zeros(self.n_dofs)
        if nb == 0.0:
            return x[:n], x[n:]
        y = self.lu.solve(b)
        y += self.lu.solve(b - self.K @ y)
        res = np.linalg.norm(b - self.K @ y)
        if not np.isfinite(res) or res > _RESIDUAL_TOL * nb:
            self._raise_singular(res / nb)
        x[self.dofs] = y
        return x[:n], x[n:]

    def _raise_singular(self, rel_res):
        # factorization survived but cannot reproduce the load: in practice a
        # (numerically) singular system, e.g. an unfixed pressure level.  The
        # natural column order keeps factor row i at dof ``dofs[i]``.  Every
        # pressure dof is free and has a zero diagonal, so the zero
        # diagonals of the free block count them.
        pivots = np.abs(self.lu.U.diagonal())
        row = int(np.argmin(pivots))
        dof = int(self.dofs[row])
        n_velocity = self.n_dofs - int(np.count_nonzero(self.K.diagonal() == 0.0))
        if dof >= n_velocity:
            where = f"pressure dof {dof - n_velocity}"
        else:
            where = f"velocity dof {dof} (component {dof // (n_velocity // 3)})"
        raise SingularMatrixError(
            f"saddle solve failed (relative residual {rel_res:.3e}); "
            f"smallest pivot {pivots[row]:.3e} at {where} "
            "suggests a singular system (pressure nullspace?)"
        )
