"""Orthonormal univariate polynomial families and their probability measures.

Supports Jacobi polynomials (including the Legendre and Chebyshev special
cases) orthonormal under the Beta-type density on [-1, 1], and probabilists'
Hermite polynomials orthonormal under the standard Gaussian.  All evaluation
runs through the three-term recurrence of the orthonormal family, which also
yields derivatives exactly.  Gauss rules take their nodes from numpy's
symmetric eigensolver applied to the Jacobi matrix, the tridiagonal matrix of
the same recurrence coefficients, and their weights from the Christoffel
function of the orthonormal table, which keeps the tiny tail weights of the
Hermite and large-parameter Jacobi rules accurate to relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Inputs this close to the support edge are treated as the edge itself.
JACOBI_CLAMP = 1e-14

# Relative tolerance for the quadrature cross-check of derivative constants.
_DERIVATIVE_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair of the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        # The closed-form recurrence and density bounds need finite alpha, beta >= -1/2.
        if not (-0.5 <= self.alpha < math.inf and -0.5 <= self.beta < math.inf):
            raise ValueError(
                "Jacobi parameters must be finite and satisfy alpha, beta >= -1/2, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )

    def raised(self) -> "JacobiParams":
        """Parameters of the family that derivatives map into."""
        return JacobiParams(self.alpha + 1.0, self.beta + 1.0)

    def normalization(self) -> float:
        """Constant d such that d*(1-x)^alpha*(1+x)^beta integrates to 1."""
        a, b = self.alpha, self.beta
        return math.exp(
            math.lgamma(a + b + 2.0)
            - math.lgamma(a + 1.0)
            - math.lgamma(b + 1.0)
            - (a + b + 1.0) * math.log(2.0)
        )


CHEBYSHEV_PARAMS = JacobiParams(-0.5, -0.5)
LEGENDRE_PARAMS = JacobiParams(0.0, 0.0)


@dataclass(frozen=True)
class Measure:
    """Probability measure identifier: a Jacobi/Beta density or a Gaussian."""

    kind: str  # "jacobi" or "gaussian"
    params: JacobiParams | None = None

    def __post_init__(self):
        if self.kind not in ("jacobi", "gaussian"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "jacobi" and self.params is None:
            raise ValueError("jacobi measure needs parameters")
        if self.kind == "gaussian" and self.params is not None:
            raise ValueError("gaussian measure takes no parameters")

    @staticmethod
    def jacobi(alpha: float, beta: float) -> "Measure":
        return Measure("jacobi", JacobiParams(alpha, beta))

    @staticmethod
    def chebyshev() -> "Measure":
        return Measure("jacobi", CHEBYSHEV_PARAMS)

    @staticmethod
    def uniform() -> "Measure":
        return Measure("jacobi", LEGENDRE_PARAMS)

    @staticmethod
    def gaussian() -> "Measure":
        return Measure("gaussian")

    @staticmethod
    def parse(label: str) -> "Measure":
        """Parse a measure id such as 'chebyshev' or 'jacobi(0.5,1)'."""
        text = label.strip().lower()
        if text in ("chebyshev", "arcsine"):
            return Measure.chebyshev()
        if text in ("uniform", "legendre"):
            return Measure.uniform()
        if text in ("gaussian", "hermite", "normal"):
            return Measure.gaussian()
        if text.startswith("jacobi(") and text.endswith(")"):
            inner = text[len("jacobi(") : -1]
            parts = inner.split(",")
            if len(parts) != 2:
                raise ValueError(f"cannot parse measure id {label!r}")
            return Measure.jacobi(float(parts[0]), float(parts[1]))
        raise ValueError(f"cannot parse measure id {label!r}")

    @property
    def label(self) -> str:
        if self.kind == "gaussian":
            return "gaussian"
        if self.params == CHEBYSHEV_PARAMS:
            return "chebyshev"
        if self.params == LEGENDRE_PARAMS:
            return "uniform"
        return f"jacobi({self.params.alpha:g},{self.params.beta:g})"


def density(measure: Measure, x) -> np.ndarray:
    """Probability density of ``measure`` evaluated at ``x``.

    Jacobi densities with negative exponents diverge at the support edges;
    the pointwise value (possibly ``inf``) is returned there.
    """
    x = np.asarray(x, dtype=float)
    if measure.kind == "gaussian":
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    p = measure.params
    with np.errstate(divide="ignore"):
        return p.normalization() * (1.0 - x) ** p.alpha * (1.0 + x) ** p.beta


def density_ratio_to_chebyshev(params: JacobiParams, x) -> np.ndarray:
    """Ratio of the Jacobi density to the Chebyshev (arcsine) density.

    Combines exponents before evaluating, so the ratio stays finite on the
    closed interval for alpha, beta >= -1/2 even where both densities blow up.
    """
    x = np.asarray(x, dtype=float)
    if params == CHEBYSHEV_PARAMS:
        # Zero exponents: the ratio is identically 1, returned without roundoff.
        return np.ones_like(x)
    scale = params.normalization() * math.pi
    return scale * (1.0 - x) ** (params.alpha + 0.5) * (1.0 + x) ** (params.beta + 0.5)


def derivative_constant(n: int, params: JacobiParams) -> float:
    """Factor c(n) in d/dx p_n = c(n) q_{n-1}, q from the raised family.

    Both families are orthonormal under their own probability measures.
    Returns 0 for n = 0.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 0.0
    a, b = params.alpha, params.beta
    num = n * (n + a + b + 1.0) * (a + b + 2.0) * (a + b + 3.0)
    den = 4.0 * (a + 1.0) * (b + 1.0)
    return math.sqrt(num / den)


def _jacobi_recurrence(params: JacobiParams, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` recurrence coefficients (a_k, b_k) of the monic
    Jacobi family under the normalized (probability) measure, so b_0 = 1."""
    a, b = params.alpha, params.beta
    k = np.arange(count, dtype=float)
    rec_a = np.empty(count)
    rec_b = np.empty(count)
    rec_a[0] = (b - a) / (a + b + 2.0)
    if count > 1:
        s = 2.0 * k[1:] + a + b
        rec_a[1:] = (b * b - a * a) / (s * (s + 2.0))
    rec_b[0] = 1.0
    if count > 1:
        # k = 1 in cancelled form: the general expression is 0/0 at a+b = -1.
        rec_b[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    if count > 2:
        kk = k[2:]
        s = 2.0 * kk + a + b
        rec_b[2:] = (
            4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
            / (s * s * (s + 1.0) * (s - 1.0))
        )
    return rec_a, rec_b


def _hermite_recurrence(count: int) -> tuple[np.ndarray, np.ndarray]:
    rec_a = np.zeros(count)
    rec_b = np.arange(count, dtype=float)
    rec_b[0] = 1.0
    return rec_a, rec_b


class PolynomialFamily:
    """Orthonormal polynomial family with tabulated recurrence coefficients.

    The table is built once up to ``max_degree``; evaluation past the table
    raises rather than silently extending it.
    """

    def __init__(self, measure: Measure, max_degree: int = 64, _validate: bool = True):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.measure = measure
        self.max_degree = int(max_degree)
        count = self.max_degree + 2
        if measure.kind == "jacobi":
            rec_a, rec_b = _jacobi_recurrence(measure.params, count)
        else:
            rec_a, rec_b = _hermite_recurrence(count)
        self._rec_a = rec_a
        self._rec_sqrt_b = np.sqrt(rec_b)
        if _validate and measure.kind == "jacobi" and self.max_degree >= 1:
            self._check_derivative_constants()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def jacobi(alpha: float, beta: float, max_degree: int = 64) -> "PolynomialFamily":
        return PolynomialFamily(Measure.jacobi(alpha, beta), max_degree)

    @staticmethod
    def legendre(max_degree: int = 64) -> "PolynomialFamily":
        return PolynomialFamily(Measure.uniform(), max_degree)

    @staticmethod
    def chebyshev(max_degree: int = 64) -> "PolynomialFamily":
        return PolynomialFamily(Measure.chebyshev(), max_degree)

    @staticmethod
    def hermite(max_degree: int = 64) -> "PolynomialFamily":
        return PolynomialFamily(Measure.gaussian(), max_degree)

    # -- properties --------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.measure.kind

    @property
    def params(self) -> JacobiParams | None:
        return self.measure.params

    def raised(self, max_degree: int | None = None) -> "PolynomialFamily":
        """Family that derivatives of this family are proportional to."""
        if self.kind != "jacobi":
            return self
        deg = self.max_degree if max_degree is None else max_degree
        return PolynomialFamily(Measure("jacobi", self.params.raised()), deg)

    def derivative_constant(self, n: int) -> float:
        if self.kind == "jacobi":
            return derivative_constant(n, self.params)
        if n < 0:
            raise ValueError("degree must be nonnegative")
        return math.sqrt(float(n))

    # -- evaluation --------------------------------------------------------

    def _prepare_points(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "jacobi":
            over = np.abs(x) > 1.0 + JACOBI_CLAMP
            if np.any(over):
                raise ValueError("points outside [-1, 1] for a Jacobi family")
            x = np.clip(x, -1.0, 1.0)
        return x

    def eval_table(self, x, max_degree: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives of p_0 .. p_K at the given points.

        Returns arrays of shape (len(x), K+1) where K defaults to the
        family's tabulated maximum.
        """
        deg = self.max_degree if max_degree is None else int(max_degree)
        if deg < 0:
            raise ValueError("degree must be nonnegative")
        if deg > self.max_degree:
            raise ValueError(
                f"degree {deg} exceeds tabulated maximum {self.max_degree}"
            )
        x = self._prepare_points(x)
        npts = x.shape[0]
        values = np.zeros((npts, deg + 1))
        derivs = np.zeros((npts, deg + 1))
        values[:, 0] = 1.0
        a, sb = self._rec_a, self._rec_sqrt_b
        for n in range(deg):
            shifted = x - a[n]
            prev_v = values[:, n - 1] if n > 0 else 0.0
            prev_d = derivs[:, n - 1] if n > 0 else 0.0
            values[:, n + 1] = (shifted * values[:, n] - sb[n] * prev_v) / sb[n + 1]
            derivs[:, n + 1] = (
                values[:, n] + shifted * derivs[:, n] - sb[n] * prev_d
            ) / sb[n + 1]
        return values, derivs

    def eval(self, n: int, x) -> tuple[np.ndarray, np.ndarray]:
        """Value and derivative of the degree-n orthonormal polynomial."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        values, derivs = self.eval_table(x, n)
        return values[:, n], derivs[:, n]

    # -- quadrature --------------------------------------------------------

    def gauss_quadrature(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """m-point Gauss rule for the family's probability measure.

        Nodes ascend and the weights sum to 1; the rule integrates
        polynomials up to degree 2m-1 exactly.

        The nodes are the eigenvalues of the m x m Jacobi matrix.  Each
        weight is the Christoffel number w_i = 1 / sum_{k<m} p_k(x_i)^2 of the
        orthonormal table, not the squared first eigenvector component
        (Golub-Welsch): the eigenvector is accurate only relative to its
        largest entry, so weights far below machine epsilon (about 1e-22 in
        the tail of a 31-point Hermite rule) lose all relative accuracy, and
        how much depends on the LAPACK build.  The Christoffel sum has only
        positive terms and stays relatively accurate at every node.
        """
        if m < 1:
            raise ValueError("quadrature needs at least one node")
        if m == 1:
            return self._rec_a[:1].copy(), np.ones(1)
        family = self
        if m > self.max_degree + 1:
            family = PolynomialFamily(self.measure, m - 1, _validate=False)
        off = family._rec_sqrt_b[1:m]
        jacobi_matrix = np.diag(family._rec_a[:m]) + np.diag(off, 1) + np.diag(off, -1)
        nodes = np.linalg.eigvalsh(jacobi_matrix)
        values, _ = family.eval_table(nodes, m - 1)
        weights = 1.0 / np.sum(values * values, axis=1)
        return nodes, weights

    # -- validation --------------------------------------------------------

    def _check_derivative_constants(self):
        """Cross-check closed-form derivative constants against quadrature.

        Projects d/dx p_n onto the raised orthonormal family under the raised
        measure; the projection coefficient must reproduce the closed form.
        """
        raised = PolynomialFamily(
            Measure("jacobi", self.params.raised()), self.max_degree, _validate=False
        )
        m = self.max_degree + 1
        nodes, weights = raised.gauss_quadrature(m)
        _, derivs = self.eval_table(nodes)
        raised_vals, _ = raised.eval_table(nodes)
        for n in range(1, self.max_degree + 1):
            projected = float(np.sum(weights * derivs[:, n] * raised_vals[:, n - 1]))
            closed = self.derivative_constant(n)
            if abs(projected - closed) > _DERIVATIVE_CHECK_TOL * max(1.0, abs(closed)):
                raise ValueError(
                    "derivative constant mismatch against quadrature at degree "
                    f"{n}: closed form {closed!r}, projected {projected!r}"
                )


def tensor_gauss_rule(families, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of each family's m-point Gauss rule.

    Returns the points as rows (the last coordinate varies fastest) and
    their weights, the products of the one-dimensional weights.
    """
    nodes_1d = []
    weights = np.ones(1)
    for fam in families:
        x, w = fam.gauss_quadrature(m)
        nodes_1d.append(x)
        weights = np.multiply.outer(weights, w)
    grids = np.meshgrid(*nodes_1d, indexing="ij")
    return np.column_stack([g.ravel() for g in grids]), weights.ravel()
