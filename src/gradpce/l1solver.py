"""Basis pursuit (denoise): exact BP as a linear program, BPDN on the Pareto curve.

Exact basis pursuit, min ||c||_1 subject to A c = b, is a linear program
(Chen, Donoho & Saunders, 1998) and is solved as one with HiGHS: a simplex
solve returns a vertex, which reproduces b to rounding error in a bounded
number of pivots, where a first-order method only approaches it to within its
iteration budget.

Basis-pursuit denoise, min ||c||_1 subject to ||A c - b||_2 <= epsilon with
epsilon > 0, is not an LP. It is solved by Newton iteration on
phi(tau) = min_{||c||_1 <= tau} ||A c - b||_2, whose derivative at the inner
solution is -||A^T r||_inf / ||r||_2 (van den Berg & Friedlander, 2008).  Each
Lasso subproblem is solved with a spectral projected-gradient method:
Barzilai-Borwein steps, a nonmonotone line search, and exact Euclidean
projection onto the l1 ball. The same root finder takes over an exact
instance the LP leaves unsolved.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

_BB_MIN = 1e-12
_BB_MAX = 1e12
_LS_WINDOW = 10
_LS_GAMMA = 1e-4
_LS_MAX_BACKTRACKS = 20
_MAX_OUTER = 100


class NoSparseFit(ValueError):
    """No support of the allowed size reproduces the data."""


@dataclass
class SolveSpec:
    """One basis-pursuit instance with its solver controls."""

    matrix: np.ndarray
    rhs: np.ndarray
    epsilon: float = 0.0
    opt_tol: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if self.matrix.shape[0] != self.rhs.shape[0]:
            raise ValueError("matrix and rhs row counts differ")
        if not np.all(np.isfinite(self.matrix)) or not np.all(np.isfinite(self.rhs)):
            raise ValueError("matrix and rhs must be finite")
        if np.any(np.linalg.norm(self.matrix, axis=0) == 0.0):
            raise ValueError("matrix has an all-zero column")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        if self.opt_tol <= 0.0 or self.max_iters < 1:
            raise ValueError("opt_tol must be positive and max_iters at least 1")


@dataclass(frozen=True)
class RecoveryResult:
    """Solver output: coefficients plus convergence telemetry."""

    coefficients: np.ndarray = field(repr=False)
    residual_norm: float
    iterations: int
    converged: bool
    tau_final: float
    # One entry per outer iteration: (tau, residual norm at the inner solution);
    # a single (||c||_1, residual norm) entry for a linear-programming solve.
    curve_trace: tuple[tuple[float, float], ...] = ()


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 <= radius}.

    Exact sort-and-threshold construction; cost O(n log n).
    """
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    if radius == 0.0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    cumulative = np.cumsum(u) - radius
    counts = np.arange(1, v.size + 1)
    last = np.nonzero(u > cumulative / counts)[0][-1]
    theta = cumulative[last] / (last + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _spg_lasso(a, b, radius, x0, gap_tol, target, max_iters):
    """Minimize 0.5||a x - b||^2 over the l1 ball of the given radius.

    Returns (x, residual, ||residual||, ||a^T residual||_inf, lower, iters)
    where lower is a certified lower bound on the optimal residual norm for
    this ball, obtained from the dual of the constrained least-squares
    problem. Terminates as soon as the caller's root-finding question is
    decided (residual at or below target, or lower bound above it), on a
    small relative duality gap, or on the iteration budget.
    """
    x = project_l1_ball(x0, radius)
    r = b - a @ x
    g = -(a.T @ r)
    f = 0.5 * float(r @ r)
    history = deque([f], maxlen=_LS_WINDOW)
    gnorm = np.linalg.norm(g)
    step_scale = 1.0 if gnorm == 0.0 else min(_BB_MAX, max(_BB_MIN, 1.0 / gnorm))
    iters = 0
    while True:
        rnorm = np.linalg.norm(r)
        dual_inf = float(np.abs(g).max())
        if rnorm <= target:
            break
        slack = gap_tol * max(rnorm, 1.0)
        lower = max(float(b @ r) - radius * dual_inf, 0.0) / rnorm
        if rnorm <= target + slack and lower > target:
            # Inside the gap test's slack band the relative stop cannot
            # discriminate, so answer the caller's question directly.
            break
        gap = rnorm - (float(b @ r) - radius * dual_inf) / rnorm
        if abs(gap) <= slack:
            break
        if iters >= max_iters:
            break
        # Nonmonotone projected backtracking along the spectral step.
        f_limit = max(history)
        step = 1.0
        accepted = False
        for _ in range(_LS_MAX_BACKTRACKS):
            x_new = project_l1_ball(x - step * step_scale * g, radius)
            s = x_new - x
            descent = float(g @ s)
            if descent >= 0.0:
                break
            r_new = b - a @ x_new
            f_new = 0.5 * float(r_new @ r_new)
            if f_new <= f_limit + _LS_GAMMA * step * descent:
                accepted = True
                break
            step *= 0.5
        iters += 1
        if not accepted:
            break  # stationary on this ball
        g_new = -(a.T @ r_new)
        y = g_new - g
        sty = float(s @ y)
        step_scale = (
            min(_BB_MAX, max(_BB_MIN, float(s @ s) / sty)) if sty > 0.0 else _BB_MAX
        )
        x, r, g, f = x_new, r_new, g_new, f_new
        history.append(f)
    rnorm = float(np.linalg.norm(r))
    dual_inf = float(np.abs(a.T @ r).max())
    lower = 0.0 if rnorm == 0.0 else max(float(b @ r) - radius * dual_inf, 0.0) / rnorm
    return x, r, rnorm, dual_inf, lower, iters


def solve(spec: SolveSpec) -> RecoveryResult:
    """Minimize ||c||_1 subject to ||A c - b||_2 <= epsilon.

    A converged result satisfies ||A c - b||_2 <= epsilon + opt_tol * ||b||_2.
    If ||b||_2 <= epsilon the zero vector is optimal and returned at once.

    With epsilon == 0 the problem is a linear program and HiGHS solves it:
    ``iterations`` counts HiGHS iterations, ``tau_final`` is ||c||_1 and
    the curve trace holds the single point (||c||_1, residual). If HiGHS
    stops without an optimum (iteration limit, inconsistent system) or its
    answer misses the residual bound, the Pareto root finder takes the
    instance with the rest of ``max_iters``; if it does not converge either,
    the answer with the smaller residual is returned, unconverged. Every
    epsilon > 0 goes to the Pareto root finder directly.
    """
    bnorm = float(np.linalg.norm(spec.rhs))
    if bnorm <= spec.epsilon:
        return RecoveryResult(
            np.zeros(spec.matrix.shape[1]), bnorm, 0, True, 0.0, ((0.0, bnorm),)
        )
    if spec.epsilon > 0.0:
        return solve_pareto(spec, spec.max_iters)
    lp = _basis_pursuit_lp(spec, bnorm)
    if lp.converged:
        return lp
    fallback = solve_pareto(spec, spec.max_iters - lp.iterations)
    # An LP vertex that misses a very tight bound can still beat an
    # unconverged Pareto answer; return the smaller residual.
    lp_better = not fallback.converged and lp.residual_norm < fallback.residual_norm
    best = lp if lp_better else fallback
    return replace(best, iterations=lp.iterations + fallback.iterations)


def _basis_pursuit_lp(spec: SolveSpec, bnorm: float) -> RecoveryResult:
    """Exact basis pursuit as min 1^T (u + v) s.t. [A, -A][u; v] = b, u, v >= 0.

    ``converged`` is the measured residual bound ||A c - b|| <= opt_tol * ||b||,
    not the HiGHS status; without an optimum the result is the zero vector.
    """
    # Deferred: importing scipy.optimize adds ~0.15 s to ``import gradpce``.
    from scipy.optimize import linprog

    a, b = spec.matrix, spec.rhs
    m = a.shape[1]
    res = linprog(
        np.ones(2 * m), A_eq=np.hstack([a, -a]), b_eq=b, bounds=(0.0, None),
        method="highs", options={"maxiter": spec.max_iters},
    )
    nit = int(res.nit)
    if res.status != 0:
        return RecoveryResult(np.zeros(m), bnorm, nit, False, 0.0, ((0.0, bnorm),))
    x = res.x[:m] - res.x[m:]
    residual = float(np.linalg.norm(a @ x - b))
    l1 = float(np.abs(x).sum())
    converged = residual <= spec.opt_tol * bnorm
    return RecoveryResult(x, residual, nit, converged, l1, ((l1, residual),))


def solve_pareto(spec: SolveSpec, max_iters: int) -> RecoveryResult:
    """Pareto root finding with SPG inner solves, for any epsilon.

    Same contract as ``solve``, with a budget of ``max_iters`` SPG iterations
    in place of ``spec.max_iters``; with no budget left the result is the zero
    vector. Called directly, it also runs exact (epsilon == 0) instances.
    """
    a, b = spec.matrix, spec.rhs
    bnorm = float(np.linalg.norm(b))
    target = spec.epsilon + spec.opt_tol * bnorm
    floor = 0.999 * target
    x = np.zeros(a.shape[1])
    r = b.copy()
    phi = bnorm
    dual_inf = float(np.abs(a.T @ r).max())
    tau = 0.0
    # Bracket around the smallest tau with phi(tau) <= target. tau_lo holds
    # a point whose residual is certifiably above target, tau_hi one whose
    # residual already fell below the acceptance band.
    tau_lo, tau_hi = 0.0, math.inf
    trace = [(0.0, phi)]
    total_iters = 0
    converged = phi <= target
    gap_tol = 0.1
    tighten_left = 3
    # Smallest-l1 point seen with residual at or below target. Adopting it
    # when the root-finding stalls keeps the answer feasible even if inner
    # solves stagnate at floating-point resolution near the root.
    witness = None
    if not converged and dual_inf > 0.0:
        tau = phi * (phi - spec.epsilon) / dual_inf
        # Newton from the left on the convex, decreasing Pareto curve. The
        # inner solve certifies each new left endpoint through its duality
        # bound; an uncertified point is re-solved with a tighter gap, and
        # a step that lands past the band falls back to bisection.
        for _ in range(_MAX_OUTER):
            budget = max_iters - total_iters
            bracket_done = tau_hi - tau_lo <= 1e-12 * max(1.0, tau_hi)
            if budget <= 0 or (bracket_done and witness is not None):
                break
            x, r, phi, dual_inf, lower, iters = _spg_lasso(a, b, tau, x, gap_tol, target, budget)
            total_iters += iters
            if phi <= target:
                l1 = float(np.abs(x).sum())
                if witness is None or l1 < witness[0]:
                    witness = (l1, phi, x.copy(), r.copy(), tau)
                if phi >= floor or tau - tau_lo <= 1e-12 * max(1.0, tau):
                    # In the band, or the curve drops through it almost
                    # vertically and tau is optimal to bracket width.
                    trace.append((tau, phi))
                    converged = True
                    break
                tau_hi = tau
                tau = 0.5 * (tau_lo + tau_hi)
                continue
            if lower <= target and tighten_left > 0:
                # Not yet certified above the band; re-solve in place.
                gap_tol = max(1e-14, 0.1 * gap_tol)
                tighten_left -= 1
                continue
            trace.append((tau, phi))
            tau_lo = tau
            tighten_left = 3
            if dual_inf <= 1e-15 * max(1.0, phi):
                break
            tau_new = tau + phi * (phi - spec.epsilon) / dual_inf
            if not np.isfinite(tau_new) or tau_new <= tau:
                break
            tau = tau_new if tau_new < tau_hi else 0.5 * (tau_lo + tau_hi)
            # Solve loosely while far from the root, tightly near it.
            gap_tol = max(spec.opt_tol, min(0.1, 0.1 * (phi - spec.epsilon) / bnorm))
    if not converged and witness is not None:
        _, phi, x, r, tau = witness
        trace.append((tau, phi))
        converged = True
    return RecoveryResult(x, phi, total_iters, bool(converged), tau, tuple(trace))


def brute_force_l0(matrix: np.ndarray, rhs: np.ndarray, s_max: int, tol: float = 1e-10) -> np.ndarray:
    """Sparsest exact solution by support enumeration (small instances only).

    Scans supports of increasing size and returns the least-squares solution
    of the first size whose residual falls at or below ``tol``; ties at that
    size break toward the smallest l1 norm.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    m = a.shape[1]
    if m > 20:
        raise ValueError("enumeration capped at 20 columns")
    if s_max > 4:
        raise ValueError("enumeration capped at support size 4")
    if float(np.linalg.norm(b)) <= tol:
        return np.zeros(m)
    for size in range(1, min(s_max, m) + 1):
        best = None
        best_l1 = np.inf
        for support in combinations(range(m), size):
            cols = a[:, support]
            coef, _, _, _ = np.linalg.lstsq(cols, b, rcond=None)
            if np.linalg.norm(cols @ coef - b) <= tol:
                l1 = float(np.abs(coef).sum())
                if l1 < best_l1:
                    full = np.zeros(m)
                    full[list(support)] = coef
                    best, best_l1 = full, l1
        if best is not None:
            return best
    raise NoSparseFit(f"no support of size <= {s_max} fits the data at tol {tol}")
