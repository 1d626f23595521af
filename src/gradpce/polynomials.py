"""Orthonormal univariate polynomial families and their probability measures.

Supports Jacobi polynomials (including the Legendre and Chebyshev special
cases) orthonormal under the Beta-type density on [-1, 1], and probabilists'
Hermite polynomials orthonormal under the standard Gaussian.  A
:class:`Measure` is one frozen value, its kind and, for a Jacobi measure, the
exponents alpha and beta, checked when it is built; every layer reads them
from it.  ``MEASURE_IDS`` maps each measure id to one shared named measure
(Chebyshev, uniform or Gaussian), and a label reads it back.  All evaluation
runs through the three-term recurrence of the orthonormal family, which also
yields derivatives exactly; a family is that recurrence tabulated up to one
degree, with read-only coefficients.  One kernel, ``_tables``, runs the
recurrence once for values and derivatives together, into degree-major
buffers: ``eval_table`` returns their transposed views, and Gauss rules and
the family's derivative self-check read their values from the same kernel.
``derivative_constant`` is a closed form in the measure and the degree, with
no family.  A Gauss rule depends on its measure and node count alone, so
``gauss_rule`` builds it from the measure's recurrence with no family: its
nodes come from numpy's symmetric eigensolver applied to the Jacobi matrix,
the tridiagonal matrix of the recurrence coefficients, and its weights from
the Christoffel function of the orthonormal values, which keeps the tiny tail
weights of the Hermite and large-parameter Jacobi rules accurate to relative
precision.
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
        return MEASURE_IDS["chebyshev"]

    @staticmethod
    def uniform() -> "Measure":
        return MEASURE_IDS["uniform"]

    @staticmethod
    def gaussian() -> "Measure":
        return MEASURE_IDS["gaussian"]

    @staticmethod
    def parse(label: str) -> "Measure":
        """Parse a measure id such as 'chebyshev' or 'jacobi(0.5,1)'."""
        text = label.strip().lower() if isinstance(label, str) else ""
        if text in MEASURE_IDS:
            return MEASURE_IDS[text]
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
        if self in _LABELS:
            return _LABELS[self]
        # repr is the shortest text that parses back to the same float, so parse(label) == self.
        alpha, beta = (repr(float(v)).removesuffix(".0") for v in (self.alpha, self.beta))
        return f"jacobi({alpha},{beta})"

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


# Each measure id and the one shared measure it names; a measure's label is its first id.
MEASURE_IDS = {**dict.fromkeys(("chebyshev", "arcsine"), Measure("jacobi", -0.5, -0.5)),
               **dict.fromkeys(("uniform", "legendre"), Measure("jacobi", 0.0, 0.0)),
               **dict.fromkeys(("gaussian", "hermite", "normal"), Measure("gaussian"))}
_LABELS = {measure: name for name, measure in reversed(MEASURE_IDS.items())}


def density_ratio_to_chebyshev(measure: Measure, x) -> np.ndarray:
    """Ratio of the Jacobi density to the Chebyshev (arcsine) density.

    Combines exponents before evaluating, so the ratio stays finite on the
    closed interval for alpha, beta >= -1/2 even where both densities blow up.
    """
    x = np.asarray(x, dtype=float)
    if checked("measure", measure, Measure) == Measure.chebyshev():
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


def _tables(x: np.ndarray, a: np.ndarray, sqrt_b: np.ndarray, deg: int):
    """Orthonormal p_0 .. p_deg and their derivatives at the points x, both of
    shape (deg + 1, len(x)): one recurrence pass, differentiated term by term."""
    values = np.empty((deg + 1, x.shape[0]))
    derivs = np.empty_like(values)
    values[0] = 1.0
    derivs[0] = 0.0
    for n in range(deg):
        shifted = x - a[n]
        prev, dprev = (values[n - 1], derivs[n - 1]) if n > 0 else (0.0, 0.0)
        values[n + 1] = (shifted * values[n] - sqrt_b[n] * prev) / sqrt_b[n + 1]
        derivs[n + 1] = (values[n] + shifted * derivs[n] - sqrt_b[n] * dprev) / sqrt_b[n + 1]
    return values, derivs


def derivative_constant(measure: Measure, n: int) -> float:
    """Factor c(n) in d/dx p_n = c(n) q_{n-1}, q from the raised family.

    Both families are orthonormal under their own probability measures.
    Returns 0 for n = 0.
    """
    if checked("n", n, int) < 0:
        raise ValueError("degree must be nonnegative")
    if checked("measure", measure, Measure).kind == "gaussian":
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
    if checked("m", m, int) < 1:
        raise ValueError("quadrature needs at least one node")
    a, sqrt_b = _recurrence(checked("measure", measure, Measure), m)
    off = sqrt_b[1:]
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    # Node-major rows: summing the degree-major table over axis 0 rounds differently.
    values = np.ascontiguousarray(_tables(nodes, a, sqrt_b, m - 1)[0].T)
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
        self.measure = checked("measure", measure, Measure)
        self._rec_a, self._rec_sqrt_b = _recurrence(measure, self.max_degree + 1)
        # c(0) .. c(max_degree) of d/dx p_n = c(n) q_{n-1}.
        self.derivative_constants = np.array(
            [derivative_constant(measure, n) for n in range(self.max_degree + 1)])
        # A family is shared by every equal basis in a process, so its tables are read-only.
        for table in (self._rec_a, self._rec_sqrt_b, self.derivative_constants):
            table.flags.writeable = False
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

        Returns tables of shape (len(x), K+1), K the family's tabulated maximum.
        They are the transposed views of the degree-major buffers that one
        recurrence pass fills, so they are not C-contiguous: ``table.T`` holds
        p_n (or p_n') at every point in its row n.
        """
        values, derivs = _tables(self._prepare_points(x), self._rec_a, self._rec_sqrt_b,
                                 self.max_degree)
        return values.T, derivs.T

    # -- validation --------------------------------------------------------

    def _check_derivative_constants(self):
        """Cross-check closed-form derivative constants against quadrature.

        Projects d/dx p_n onto the raised orthonormal family under the raised
        measure; the projection coefficient must reproduce the closed form.
        """
        raised = self.measure.raised()
        m = self.max_degree + 1
        nodes, weights = gauss_rule(raised, m)
        # The nodes lie inside (-1, 1), so they need no clipping.
        _, derivs = _tables(nodes, self._rec_a, self._rec_sqrt_b, self.max_degree)
        raised_vals, _ = _tables(nodes, *_recurrence(raised, m), self.max_degree)
        for n in range(1, self.max_degree + 1):
            projected = float(np.sum(weights * derivs[n] * raised_vals[n - 1]))
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
