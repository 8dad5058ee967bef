"""Tensor-product linear solves on the box channel.

Every cell is a box, so the scalar stiffness is the Kronecker sum
``Kz⊗My⊗Mx + Mz⊗Ky⊗Mx + Mz⊗My⊗Kx`` of 1-D matrices
(``DiscreteSpace.axis_matrices``), and its free block, on the tensor
product of the free nodes of each axis (every x node, the interior y and
z nodes), is one too.  Its inverse is exact through three 1-D generalized
eigenproblems ``K v = λ M v`` (fast diagonalization: Lynch, Rice & Thomas,
Numer. Math. 6, 1964; Deville, Fischer & Mund, 2002, §4.3): with
``V = Vz⊗Vy⊗Vx``, ``S_ff⁻¹ = V diag(1 / (λz + λy + λx)) Vᵀ``, applied as
three batched matrix products each way.

One solver per system type, each built once from the space and the
operator's scale and reused across loads; ``solve`` returns full-length
fields whose wall rows are exactly zero, each checked by ``_check_residual``
against the operator the solver was handed (of which it uses only ``@``
and ``shape``).  The 1-D factors and ``_kron3`` come from ``forms``.

- ``SaddleFactorization``: the Taylor-Hood saddle system
  ``[[A, -Dᵀ], [-D, 0]]``, by conjugate gradients (``solve_spd``) on the
  pressure Schur complement, with no sparse factorization; each solve
  also gives its velocity's H1 norm, read in the eigenbasis.
- ``WallSolver``: the heat stiffness ``λ S``, its free block solved
  directly by the exact tensor inverse, with no iteration.

All paths are deterministic: identical inputs give bit-identical outputs.
"""

import numpy as np

from .forms import _kron3

_RESIDUAL_TOL = 1e-10  # relative residual a solution must reach on the handed operator
_CG_TOL = 1e-13        # relative residual at which the Schur CG stops

__all__ = [
    "LinearSolveError",
    "SingularMatrixError",
    "solve_spd",
    "SaddleFactorization",
    "WallSolver",
]


class LinearSolveError(RuntimeError):
    """A failed solve; ``outer_loop`` sets ``records``, the outer steps before it."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []
        self.records = []


class SingularMatrixError(LinearSolveError):
    """The operator, not the load or the iteration budget, is at fault."""


def _check_finite(rhs):
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        raise LinearSolveError(
            f"non-finite right-hand side: {bad.size} entries, first at row {bad[0]}"
        )


def _check_residual(residual, rhs, operator, coefficient):
    """SingularMatrixError naming ``operator`` unless ``|residual| <= _RESIDUAL_TOL |rhs|``."""
    res, nb = np.linalg.norm(residual), np.linalg.norm(rhs)
    if not res <= _RESIDUAL_TOL * nb:   # a NaN residual fails too
        raise SingularMatrixError(
            f"solve failed on the operator {operator} (relative residual {res / nb:.3e}); "
            f"was {operator} built on this space with this {coefficient}?")


def solve_spd(apply, rhs, precond, max_iter=None):
    """Preconditioned CG for symmetric positive definite systems.

    ``apply`` is a function applying the operator A, ``precond`` a function
    applying a symmetric positive definite approximation of its inverse.
    Stops at ||A x - rhs|| <= 1e-13 ||rhs|| (``_CG_TOL``).  Raises
    LinearSolveError on a non-finite right-hand side before iterating, and
    with the residual history on iteration exhaustion; a direction of
    nonpositive curvature reveals a matrix that is not positive definite
    and raises SingularMatrixError.
    """
    rhs = np.asarray(rhs, dtype=float)
    _check_finite(rhs)
    n = rhs.size
    nb = np.linalg.norm(rhs)
    if nb == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = max(200, int(np.ceil(10.0 * np.sqrt(n))))
    x = np.zeros(n)
    r = rhs.copy()
    z = precond(r)
    p = z.copy()
    rz = r @ z
    history = [nb]
    for _ in range(max_iter):
        Ap = apply(p)
        pAp = p @ Ap
        if pAp <= 0:
            raise SingularMatrixError(
                "nonpositive curvature encountered; matrix is not positive definite",
                residual_history=history,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rn = np.linalg.norm(r)
        history.append(rn)
        if rn <= _CG_TOL * nb:
            return x
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"CG did not reach tol={_CG_TOL:g} within {max_iter} iterations "
        f"(last residual {history[-1] / nb:.3e} relative)",
        residual_history=history,
    )


class _TensorInverse:
    """``(scale · S_ff)⁻¹`` of the scalar stiffness by fast diagonalization.

    ``V[a]`` holds axis a's eigenvectors of ``K v = λ M v`` on its free
    nodes, normalized so that ``Vᵀ M V = I``; ``lam`` is ``λz + λy + λx``
    and ``inv_lam`` is ``1 / (scale · lam)`` on the (z, y, x) grid of free
    nodes.
    The free x nodes include the open ends, where ``λx`` has its zero
    (the constants); ``λy`` and ``λz`` are positive.
    """

    def __init__(self, axes, free_lines, scale):
        self.V, lams = [], []
        for ax, free in zip(axes, free_lines):
            L = np.linalg.cholesky(ax.M[np.ix_(free, free)])
            C = np.linalg.solve(L, np.linalg.solve(L, ax.K[np.ix_(free, free)]).T)
            lam, W = np.linalg.eigh(C)
            self.V.append(np.linalg.solve(L.T, W))
            lams.append(lam)
        lx, ly, lz = lams
        self.lam = lz[:, None, None] + ly[:, None] + lx
        self.inv_lam = 1.0 / (scale * self.lam)

    def to_eigen(self, X):
        Vx, Vy, Vz = self.V
        return _kron3(Vz.T, Vy.T, Vx.T, X)

    def from_eigen(self, X):
        Vx, Vy, Vz = self.V
        return _kron3(Vz, Vy, Vx, X)

    def apply(self, x):
        """The inverse applied to free-node values, flat or batched."""
        X = np.reshape(x, (-1, *self.inv_lam.shape))
        return self.from_eigen(self.to_eigen(X) * self.inv_lam).reshape(np.shape(x))


class WallSolver:
    """Direct solve of the heat stiffness ``kappa = lam · S`` with zero wall values.

    The free block ``lam · S_ff`` is a Kronecker sum, so its inverse is the
    exact ``_TensorInverse`` of the space's 1-D factors at scale ``lam``;
    ``kappa`` (``forms.assemble_kappa``, or any operator with ``@`` and
    ``shape``) is used only to check each solution, so a ``kappa`` built
    with another ``lam`` or on another space raises SingularMatrixError.
    """

    def __init__(self, kappa, space, lam):
        self.kappa = kappa
        self.free = space.free_theta
        self.inverse = _TensorInverse(space.axis_matrices, space.free_lines, lam)

    def solve(self, load):
        """Full-length solution of the free rows of ``load``; wall rows are 0."""
        b = np.asarray(load, dtype=float)[self.free]
        _check_finite(b)
        x = np.zeros(self.kappa.shape[0])
        x[self.free] = self.inverse.apply(b)
        _check_residual((self.kappa @ x)[self.free] - b, b, "kappa", "lam")
        return x


class _MassInverse:
    """``Mp⁻¹ = Mz⁻¹⊗My⁻¹⊗Mx⁻¹`` of the Q1 pressure mass, from its 1-D factors.

    ``SaddleFactorization.lu`` holds it under the name of the sparse LU
    factor it replaced, with that factor's ``solve(r)`` and ``nnz``: the
    benchmark's tracer reads ``.lu.nnz`` (as ``linsolve.lu_nnz``) until its
    spans are named by role (ROADMAP item 1).  ``nnz`` counts the entries
    stored in the three 1-D inverses.
    """

    def __init__(self, masses):
        self.inv = [np.linalg.inv(M) for M in masses]   # x, y, z
        self.nnz = sum(a.size for a in self.inv)

    def solve(self, r):
        ix, iy, iz = self.inv
        return _kron3(iz, iy, ix, r.reshape(len(iz), len(iy), len(ix))).ravel()


class SaddleFactorization:
    """Pressure-Schur solve of the saddle system ``K = [[A, -Dᵀ], [-D, 0]]``.

    ``K`` is the unconstrained operator on ``space``
    (``forms.assemble_saddle``, a Kronecker apply with ``@`` and ``shape``)
    with ``A`` the viscous block of viscosity ``nu``; the wall velocity dofs
    (those outside ``space.free_u``) are fixed at zero and the do-nothing ends
    fix the pressure level.  The solver is built from the 1-D factors of
    ``space`` and ``nu`` alone; it uses ``K`` only to check each solution's
    residual, so a solve against a ``K`` of another ``nu`` or space raises
    SingularMatrixError.
    ``fixed_point.CoupledProblem``'s products with ``A`` and ``D`` read ``K``.

    With ``A⁻¹`` exact, the Schur complement ``S = Σ_d D_d A⁻¹ D_dᵀ`` is
    solved by CG preconditioned with the inverse of the Q1 pressure mass
    ``Mp = Mz⊗My⊗Mx``, the Kronecker product ``lu`` (``_MassInverse``) of the
    three 1-D inverses, to ``solve_spd``'s relative tolerance and within its
    default iteration budget.  Each ``D_d`` is a Kronecker product of 1-D
    matrices, so ``S`` is applied without an assembled matrix, all three
    directions at once: ``C`` stacks ``D_d V`` per axis, ``C[a][d]`` being
    axis a's factor of direction d, and ``C_T`` holds their transposed views.

    ``solve`` also returns the H1 norm of its velocity, read in the
    eigenbasis.  The free nodes are a lattice and the wall values zero, so
    the squared norm ``uᵀ (M + S) u`` of ``u = V ξ`` (per component, with
    the Q2 mass ``M = Mz⊗My⊗Mx`` and the unscaled stiffness ``S``) is
    ``ξᵀ Vᵀ (M + S) V ξ``.  Each axis's ``V`` holds eigenvectors of its
    free block with ``Vᵀ M V = I`` and ``Vᵀ K V = diag(λ)``, so that is
    ``Σ (1 + λx + λy + λz) ξ²``: one weighted sum of squares, with no
    term that can cancel, and the same quantity as
    ``forms.discrete_norms(space, u, "H1")``.
    """

    def __init__(self, K, space, nu):
        self.K = K
        self.space = space
        axes = space.axis_matrices
        self.inverse = _TensorInverse(axes, space.free_lines, nu)
        # D_d V on each axis a: the derivative if a == d, the value elsewhere
        self.C = [
            np.stack([(ax.dB if a == d else ax.B)[:, free] @ V for d in range(3)])
            for a, (ax, free, V) in enumerate(zip(axes, space.free_lines, self.inverse.V))
        ]
        self.C_T = [np.swapaxes(C, 1, 2) for C in self.C]
        self.h1_weight = 1.0 + self.inverse.lam
        self.lu = _MassInverse([ax.Mp for ax in axes])
        self.p_shape = space.q1_shape[::-1]
        self.rows = np.concatenate(
            [space.free_u, space.n_velocity + np.arange(space.n_pressure)]
        )

    def _divergence(self, U):
        """``Σ_d D_d V U_d`` of eigen-coordinate velocities U (3, z, y, x)."""
        Cx, Cy, Cz = self.C
        return _kron3(Cz, Cy, Cx, U).sum(axis=0)

    def _gradient(self, p):
        """``(V_dᵀ D_dᵀ p)_d`` of a pressure dof vector p."""
        Cx, Cy, Cz = self.C_T
        return _kron3(Cz, Cy, Cx, p.reshape(self.p_shape))

    def _schur(self, p):
        return self._divergence(self.inverse.inv_lam * self._gradient(p)).ravel()

    def solve(self, load, pressure_load=None):
        """Solve ``K [u; P] = [load; pressure_load]`` on the free rows.

        ``load`` is a velocity load and ``pressure_load`` (zeros when
        omitted) the right-hand side of the mass rows; returns ``(u, P,
        norm)``, ``norm`` the H1 norm of ``u`` (0 for a zero right-hand side).
        """
        space = self.space
        rhs = np.zeros(self.K.shape[0])
        rhs[:space.n_velocity] = load
        if pressure_load is not None:
            rhs[space.n_velocity:] = pressure_load
        _check_finite(rhs)
        u, P = np.zeros(space.n_velocity), np.zeros(space.n_pressure)
        if not rhs[self.rows].any():
            return u, P, 0.0
        # u = A⁻¹ (f + Dᵀ P), with P from the Schur system S P = -g - D A⁻¹ f
        inverse = self.inverse
        Af = inverse.inv_lam * inverse.to_eigen(
            rhs[space.free_u].reshape(3, *inverse.inv_lam.shape))
        b = -rhs[space.n_velocity:] - self._divergence(Af).ravel()
        P = solve_spd(self._schur, b, self.lu.solve)
        xi = Af + inverse.inv_lam * self._gradient(P)
        u[space.free_u] = inverse.from_eigen(xi).ravel()
        _check_residual((self.K @ np.concatenate([u, P]) - rhs)[self.rows], rhs[self.rows],
                        "K", "nu")
        return u, P, float(np.sqrt(np.sum(self.h1_weight * xi * xi)))
