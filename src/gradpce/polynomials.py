"""Orthonormal univariate polynomial families and their probability measures.

Supports Jacobi polynomials (including the Legendre and Chebyshev special
cases) orthonormal under the Beta-type density on [-1, 1], and probabilists'
Hermite polynomials orthonormal under the standard Gaussian.  A
:class:`Measure` is one frozen value, its kind and, for a Jacobi measure, the
exponents alpha and beta, checked when it is built; every layer reads them
from it.  All evaluation runs through the three-term recurrence of the
orthonormal family, which also yields derivatives exactly; a family is that
recurrence tabulated up to one degree.  ``derivative_constant`` is a closed
form in the measure and the degree, with no family.  A Gauss rule
depends on its measure and node count alone, so ``gauss_rule`` builds it from
the measure's recurrence with no family: its nodes come from numpy's
symmetric eigensolver applied to the Jacobi matrix, the tridiagonal matrix of
the recurrence coefficients, and its weights from the Christoffel function of
the orthonormal values, which keeps the tiny tail weights of the Hermite and
large-parameter Jacobi rules accurate to relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import checked

# Inputs this close to the support edge are treated as the edge itself.
JACOBI_CLAMP = 1e-14

# Relative tolerance for the quadrature cross-check of derivative constants.
_DERIVATIVE_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class Measure:
    """Probability measure of a basis: the Jacobi density proportional to
    (1-x)^alpha (1+x)^beta on [-1, 1], or the standard Gaussian."""

    kind: str  # "jacobi" or "gaussian"
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("jacobi", "gaussian"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.alpha is not None or self.beta is not None:
                raise ValueError("gaussian measure takes no parameters")
            return
        # A missing exponent is None, which ``checked`` names.
        alpha, beta = checked("alpha", self.alpha, float), checked("beta", self.beta, float)
        # The closed-form recurrence and density bounds need finite alpha, beta >= -1/2.
        if not (-0.5 <= alpha < math.inf and -0.5 <= beta < math.inf):
            raise ValueError(
                "Jacobi parameters must be finite and satisfy alpha, beta >= -1/2, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )

    @staticmethod
    def jacobi(alpha: float, beta: float) -> "Measure":
        return Measure("jacobi", alpha, beta)

    @staticmethod
    def chebyshev() -> "Measure":
        return Measure("jacobi", -0.5, -0.5)

    @staticmethod
    def uniform() -> "Measure":
        return Measure("jacobi", 0.0, 0.0)

    @staticmethod
    def gaussian() -> "Measure":
        return Measure("gaussian")

    @staticmethod
    def parse(label: str) -> "Measure":
        """Parse a measure id such as 'chebyshev' or 'jacobi(0.5,1)'."""
        text = label.strip().lower() if isinstance(label, str) else ""
        if text in ("chebyshev", "arcsine"):
            return Measure.chebyshev()
        if text in ("uniform", "legendre"):
            return Measure.uniform()
        if text in ("gaussian", "hermite", "normal"):
            return Measure.gaussian()
        if text.startswith("jacobi(") and text.endswith(")"):
            try:
                alpha, beta = map(float, text[len("jacobi(") : -1].split(","))
            except ValueError:
                pass  # not two numbers
            else:
                return Measure.jacobi(alpha, beta)
        raise ValueError(f"cannot parse measure id {label!r}")

    @property
    def label(self) -> str:
        if self.kind == "gaussian":
            return "gaussian"
        if self == Measure.chebyshev():
            return "chebyshev"
        if self == Measure.uniform():
            return "uniform"
        return f"jacobi({self.alpha:g},{self.beta:g})"

    def raised(self) -> "Measure":
        """Measure of the family that derivatives of this measure's family map into."""
        if self.kind == "gaussian":
            return self
        return Measure.jacobi(self.alpha + 1.0, self.beta + 1.0)

    def normalization(self) -> float:
        """Constant d such that d*(1-x)^alpha*(1+x)^beta integrates to 1 (Jacobi only).

        Raises ValueError when d underflows the normal floating-point range.
        """
        a, b = self.alpha, self.beta
        d = math.exp(
            math.lgamma(a + b + 2.0)
            - math.lgamma(a + 1.0)
            - math.lgamma(b + 1.0)
            - (a + b + 1.0) * math.log(2.0)
        )
        if d < np.finfo(float).tiny:
            raise ValueError(
                f"Jacobi parameters alpha={a}, beta={b} are too large: the density "
                "normalization underflows"
            )
        return d


def density_ratio_to_chebyshev(measure: Measure, x) -> np.ndarray:
    """Ratio of the Jacobi density to the Chebyshev (arcsine) density.

    Combines exponents before evaluating, so the ratio stays finite on the
    closed interval for alpha, beta >= -1/2 even where both densities blow up.
    """
    x = np.asarray(x, dtype=float)
    if measure == Measure.chebyshev():
        # Zero exponents: the ratio is identically 1, returned without roundoff.
        return np.ones_like(x)
    scale = measure.normalization() * math.pi
    return scale * (1.0 - x) ** (measure.alpha + 0.5) * (1.0 + x) ** (measure.beta + 0.5)


def _jacobi_recurrence(measure: Measure, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` recurrence coefficients (a_k, b_k) of the monic
    Jacobi family under the normalized (probability) measure, so b_0 = 1.

    Raises ValueError when the exponents are so large that a coefficient
    overflows to a non-finite value or some b_k falls to zero."""
    a, b = measure.alpha, measure.beta
    k = np.arange(count, dtype=float)
    rec_a = np.empty(count)
    rec_b = np.empty(count)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rec_a[0] = (b - a) / (a + b + 2.0)
        if count > 1:
            s = 2.0 * k[1:] + a + b
            rec_a[1:] = (b * b - a * a) / (s * (s + 2.0))
        rec_b[0] = 1.0
        if count > 1:
            # k = 1 in cancelled form: the general expression is 0/0 at a+b = -1.
            rec_b[1] = 4.0 * (a + 1.0) * (b + 1.0) / (
                (a + b + 2.0) * (a + b + 2.0) * (a + b + 3.0))
        if count > 2:
            kk = k[2:]
            s = 2.0 * kk + a + b
            rec_b[2:] = (
                4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
                / (s * s * (s + 1.0) * (s - 1.0))
            )
    if not (np.all(np.isfinite(rec_a)) and np.all(np.isfinite(rec_b)) and np.all(rec_b > 0.0)):
        raise ValueError(
            f"Jacobi parameters alpha={a}, beta={b} are too large: the recurrence "
            "coefficients overflow"
        )
    return rec_a, rec_b


def _recurrence(measure: Measure, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` coefficients (a_k, sqrt(b_k)) of the measure's recurrence."""
    if measure.kind == "jacobi":
        rec_a, rec_b = _jacobi_recurrence(measure, count)
    else:
        rec_a = np.zeros(count)
        rec_b = np.arange(count, dtype=float)
        rec_b[0] = 1.0
    return rec_a, np.sqrt(rec_b)


def _values(x: np.ndarray, a: np.ndarray, sqrt_b: np.ndarray, deg: int) -> np.ndarray:
    """Orthonormal p_0 .. p_deg at the points x, shape (len(x), deg + 1)."""
    values = np.zeros((x.shape[0], deg + 1))
    values[:, 0] = 1.0
    for n in range(deg):
        prev = values[:, n - 1] if n > 0 else 0.0
        values[:, n + 1] = ((x - a[n]) * values[:, n] - sqrt_b[n] * prev) / sqrt_b[n + 1]
    return values


def derivative_constant(measure: Measure, n: int) -> float:
    """Factor c(n) in d/dx p_n = c(n) q_{n-1}, q from the raised family.

    Both families are orthonormal under their own probability measures.
    Returns 0 for n = 0.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if measure.kind == "gaussian":
        return math.sqrt(float(n))
    if n == 0:
        return 0.0
    a, b = measure.alpha, measure.beta
    num = n * (n + a + b + 1.0) * (a + b + 2.0) * (a + b + 3.0)
    den = 4.0 * (a + 1.0) * (b + 1.0)
    return math.sqrt(num / den)


def gauss_rule(measure: Measure, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule of a probability measure.

    Nodes ascend and the weights sum to 1; the rule integrates polynomials
    up to degree 2m-1 exactly.

    The nodes are the eigenvalues of the m x m Jacobi matrix.  Each weight is
    the Christoffel number w_i = 1 / sum_{k<m} p_k(x_i)^2 of the orthonormal
    table, not the squared first eigenvector component (Golub-Welsch): the
    eigenvector is accurate only relative to its largest entry, so weights
    far below machine epsilon (about 1e-22 in the tail of a 31-point Hermite
    rule) lose all relative accuracy, and how much depends on the LAPACK
    build.  The Christoffel sum has only positive terms and stays relatively
    accurate at every node.
    """
    if m < 1:
        raise ValueError("quadrature needs at least one node")
    a, sqrt_b = _recurrence(measure, m)
    off = sqrt_b[1:]
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    values = _values(nodes, a, sqrt_b, m - 1)
    return nodes, 1.0 / np.sum(values * values, axis=1)


class PolynomialFamily:
    """Orthonormal polynomial family with tabulated recurrence coefficients.

    The table is built once up to ``max_degree``, and every evaluation covers
    p_0 .. p_max_degree.
    """

    def __init__(self, measure: Measure, max_degree: int):
        self.max_degree = checked("max_degree", max_degree, int)
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.measure = measure
        self._rec_a, self._rec_sqrt_b = _recurrence(measure, self.max_degree + 1)
        if measure.kind == "jacobi" and self.max_degree >= 1:
            self._check_derivative_constants()

    # -- evaluation --------------------------------------------------------

    def _prepare_points(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.measure.kind == "jacobi":
            over = np.abs(x) > 1.0 + JACOBI_CLAMP
            if np.any(over):
                raise ValueError("points outside [-1, 1] for a Jacobi family")
            x = np.clip(x, -1.0, 1.0)
        return x

    def eval_table(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives of p_0 .. p_K at the given points.

        Returns arrays of shape (len(x), K+1), K the family's tabulated maximum.
        """
        x = self._prepare_points(x)
        a, sb, deg = self._rec_a, self._rec_sqrt_b, self.max_degree
        values = _values(x, a, sb, deg)
        # The recurrence differentiated term by term.
        derivs = np.zeros_like(values)
        for n in range(deg):
            prev = derivs[:, n - 1] if n > 0 else 0.0
            derivs[:, n + 1] = (values[:, n] + (x - a[n]) * derivs[:, n] - sb[n] * prev) / sb[n + 1]
        return values, derivs

    # -- validation --------------------------------------------------------

    def _check_derivative_constants(self):
        """Cross-check closed-form derivative constants against quadrature.

        Projects d/dx p_n onto the raised orthonormal family under the raised
        measure; the projection coefficient must reproduce the closed form.
        """
        raised = self.measure.raised()
        m = self.max_degree + 1
        nodes, weights = gauss_rule(raised, m)
        _, derivs = self.eval_table(nodes)
        raised_vals = _values(nodes, *_recurrence(raised, m), self.max_degree)
        for n in range(1, self.max_degree + 1):
            projected = float(np.sum(weights * derivs[:, n] * raised_vals[:, n - 1]))
            closed = derivative_constant(self.measure, n)
            if abs(projected - closed) > _DERIVATIVE_CHECK_TOL * max(1.0, abs(closed)):
                raise ValueError(
                    f"Jacobi parameters alpha={self.measure.alpha}, beta={self.measure.beta}: "
                    f"derivative constant mismatch against quadrature at degree {n}: "
                    f"closed form {closed!r}, projected {projected!r}"
                )


def tensor_gauss_rule(measures, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of each measure's m-point Gauss rule.

    Returns the points as rows (the last coordinate varies fastest) and
    their weights, the products of the one-dimensional weights.
    """
    nodes_1d = []
    weights = np.ones(1)
    for measure in measures:
        x, w = gauss_rule(measure, m)
        nodes_1d.append(x)
        weights = np.multiply.outer(weights, w)
    grids = np.meshgrid(*nodes_1d, indexing="ij")
    return np.column_stack([g.ravel() for g in grids]), weights.ravel()
