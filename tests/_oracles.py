"""Independent reference computations used to pin expected values in tests.

Everything here goes through scipy's orthogonal-polynomial routines, a dual
linear program, or plain linear algebra on monomials, deliberately avoiding the
code paths under test.
"""

import numpy as np
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
