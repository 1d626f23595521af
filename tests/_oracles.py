"""Independent reference computations used to pin expected values in tests.

Everything here goes through scipy's orthogonal-polynomial routines, its
tridiagonal eigensolver, a dual linear program, a banded LU solve, or plain
linear algebra on monomials, deliberately avoiding the code paths under test.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import linprog
from scipy.special import roots_hermitenorm, roots_jacobi


def jacobi_rule(alpha, beta, m):
    """Gauss rule for the normalized Jacobi weight, via scipy."""
    nodes, weights = roots_jacobi(m, alpha, beta)
    return nodes, weights / weights.sum()


def hermite_rule(m):
    """Gauss rule for the standard Gaussian, via scipy."""
    nodes, weights = roots_hermitenorm(m)
    return nodes, weights / weights.sum()


def tridiagonal_eigenvalues(diagonal, off_diagonal):
    """Ascending eigenvalues of a symmetric tridiagonal matrix, via scipy."""
    return eigh_tridiagonal(diagonal, off_diagonal, eigvals_only=True)


def gram_schmidt_values(rule, max_degree, x):
    """Orthonormal polynomial values built from monomials by weighted QR.

    ``rule`` must integrate degree 2*max_degree exactly.  Conditioning of the
    Vandermonde matrix limits this oracle to moderate degrees (<= ~12).
    Returns an array of shape (len(x), max_degree + 1) whose column j is the
    degree-j orthonormal polynomial with positive leading coefficient.
    """
    nodes, weights = rule
    vandermonde = np.vander(nodes, max_degree + 1, increasing=True)
    q, r = np.linalg.qr(np.sqrt(weights)[:, None] * vandermonde)
    coeffs = np.linalg.inv(r)
    signs = np.sign(np.diag(coeffs))
    coeffs = coeffs * signs[None, :]
    return np.vander(np.atleast_1d(np.asarray(x, float)), max_degree + 1, increasing=True) @ coeffs


def basis_pursuit_dual(a, b):
    """Equality-constrained l1 minimizer from the dual LP, max b^T y s.t. |A^T y| <= 1.

    A dual simplex solve gives the optimal y. The multipliers of its active
    constraints are the primal coefficients, so their nonzeros mark the
    support, and least squares on that support gives the coefficients to
    working precision. Strong duality, ||c||_1 = b^T y, checks the support;
    it holds only to 1e-6 because y itself is accurate only to the solver's
    feasibility tolerance (1e-7), unlike the coefficients.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[1]
    res = linprog(-b, A_ub=np.vstack([a.T, -a.T]), b_ub=np.ones(2 * m),
                  bounds=(None, None), method="highs-ds")
    assert res.status == 0, res.message
    weight = np.abs(res.ineqlin.marginals[:m]) + np.abs(res.ineqlin.marginals[m:])
    support = np.nonzero(weight > 1e-9 * weight.max())[0]
    coef = np.zeros(m)
    coef[support] = np.linalg.lstsq(a[:, support], b, rcond=None)[0]
    dual_value = -float(res.fun)
    assert abs(np.abs(coef).sum() - dual_value) <= 1e-6 * max(1.0, dual_value)
    return coef


def central_difference(f, x, h=1e-6):
    """Fourth-order central difference, an independent derivative oracle."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def diffusion_qoi_and_gradient(model, xi, step=1e-30):
    """QoI of the diffusion model and its gradient by banded LU and complex steps.

    Assembles the stiffness matrix of the conservative scheme (harmonic-mean
    face coefficients) in LAPACK band storage and solves it with
    ``scipy.linalg.solve_banded``, which pivots. The adjoint solves the same
    symmetric matrix with the QoI weights, and dQ/dxi_k = -lam^T (dK/dxi_k) u,
    where dK/dxi_k is the imaginary part of K assembled at xi + i*step*e_k
    (complex-step differentiation, exact to rounding), so no hand-derived
    sensitivity formula is shared with the code under test.
    """
    nodes = model.nodes()
    h = 1.0 / model.cells
    m = model.cells - 1
    profiles = model.profiles(nodes)

    def band(x):
        a = 0.5 + np.exp(1.0 + profiles.T @ x)
        faces = 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])
        ab = np.zeros((3, m), dtype=faces.dtype)
        ab[0, 1:] = -faces[1:-1] / h**2
        ab[1] = (faces[:-1] + faces[1:]) / h**2
        ab[2, :-1] = -faces[1:-1] / h**2
        return ab

    xi = np.asarray(xi, dtype=float)
    ab = band(xi)
    u = solve_banded((1, 1), ab, model.load_values(nodes[1:-1]))
    if model.qoi == "average":
        weights = np.full(m, h)
    else:
        weights = np.zeros(m)
        weights[model.cells // 2 - 1] = 1.0
    lam = solve_banded((1, 1), ab, weights)
    gradient = np.zeros(xi.size)
    for k in range(xi.size):
        dab = band(xi + 1j * step * np.eye(xi.size)[k]).imag / step
        du = dab[1] * u
        du[:-1] += dab[0, 1:] * u[1:]
        du[1:] += dab[2, :-1] * u[:-1]
        gradient[k] = -(lam @ du)
    return float(weights @ u), gradient
