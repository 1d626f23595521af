"""Independent reference computations used to pin expected values in tests.

Everything here goes through scipy's orthogonal-polynomial routines, its
tridiagonal eigensolver, a dual linear program, a banded LU solve, mpmath's
extended precision, or plain linear algebra on monomials, deliberately
avoiding the code paths under test.
"""

import numpy as np
from mpmath import mp, mpf
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


_PRECISE_DIGITS = 40


def precise_hermite_rule(float_nodes):
    """Gauss rule for the standard Gaussian, polished in 40-digit arithmetic."""
    m = len(float_nodes)
    with mp.workdps(_PRECISE_DIGITS):
        # Monic probabilists' Hermite: He_{k+1} = x He_k - k He_{k-1}.
        return _precise_rule([mpf(0)] * m, [mpf(k) for k in range(m)], float_nodes)


def precise_jacobi_rule(alpha, beta, float_nodes):
    """Gauss rule for the normalized Jacobi weight, polished in 40-digit arithmetic."""
    m = len(float_nodes)
    with mp.workdps(_PRECISE_DIGITS):
        # Monic Jacobi recurrence for (1 - x)^alpha (1 + x)^beta (Gautschi,
        # Orthogonal Polynomials: Computation and Approximation, Table 1.1);
        # b_0 is the total mass, 1 for a probability measure.
        alpha, beta = mpf(alpha), mpf(beta)
        a, b = [(beta - alpha) / (alpha + beta + 2)], [mpf(1)]
        for k in range(1, m):
            s = 2 * k + alpha + beta
            a.append((beta * beta - alpha * alpha) / (s * (s + 2)))
            b.append(4 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
                     / (s * s * (s + 1) * (s - 1)))
        return _precise_rule(a, b, float_nodes)


def _precise_rule(a, b, float_nodes):
    """Nodes and Christoffel weights from monic recurrence coefficients (a_k, b_k).

    Newton's method on pi_m, run through the three-term recurrence from each
    double-precision node, converges quadratically; it stops once a step falls
    below 10^(-digits/2) max(1, |x|), so the error left is below working
    precision. The nodes must come out strictly increasing: m distinct zeros
    of pi_m are all of them. Each weight is the Christoffel number
    1 / sum_{k<m} p_k(x)^2 of the orthonormal p_k = pi_k / sqrt(b_1 ... b_k).
    Returns the rule rounded to double precision.
    """
    tol = mpf(10) ** (-(mp.dps // 2))
    norms = [mpf(1)]
    for bk in b[1:]:
        norms.append(norms[-1] * bk)
    nodes, weights = [], []
    for start in float_nodes:
        x = mpf(float(start))
        for _ in range(10):
            p_prev, p, d_prev, d = 0, 1, 0, 0
            for ak, bk in zip(a, b):
                t = x - ak
                p_prev, p, d_prev, d = p, t * p - bk * p_prev, d, p + t * d - bk * d_prev
            step = p / d
            x -= step
            if abs(step) <= tol * max(1, abs(x)):
                break
        else:
            raise AssertionError(f"Newton did not converge from {start}")
        p_prev, p, total = 0, 1, 0
        for ak, bk, nk in zip(a, b, norms):
            total += p * p / nk
            p_prev, p = p, (x - ak) * p - bk * p_prev
        nodes.append(x)
        weights.append(1 / total)
    assert all(left < right for left, right in zip(nodes, nodes[1:]))
    return np.array([float(x) for x in nodes]), np.array([float(w) for w in weights])


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
