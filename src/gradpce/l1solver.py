"""Basis pursuit (denoise): exact BP as a linear program, BPDN on the LASSO path.

Exact basis pursuit, min ||c||_1 subject to A c = b, is a linear program
(Chen, Donoho & Saunders, 1998) and is solved as one with HiGHS: a simplex
solve returns a vertex, which reproduces b to rounding error in a bounded
number of pivots, where a first-order method only approaches it to within its
iteration budget.

Basis-pursuit denoise, min ||c||_1 subject to ||A c - b||_2 <= epsilon with
epsilon > 0, is solved exactly on the LASSO path
c(lam) = argmin 0.5 ||A c - b||^2 + lam ||c||_1, the homotopy of Osborne,
Presnell & Turlach (2000) and Efron et al. ("Least angle regression", 2004).
Between breakpoints the path is linear in lam: on the active set I with signs
s, c_I(lam) = p - lam d where G = A_I^T A_I, p = G^-1 A_I^T b and d = G^-1 s.
It starts at c = 0, lam = ||A^T b||_inf; each breakpoint adds the inactive
column whose correlation reaches lam or drops the active coefficient that
reaches zero. The residual norm falls along the path, and the solve stops at
the lam where it crosses the target, the root of a scalar quadratic. A path
that reaches lam = 0 first ends at the least-squares solution on its support:
the target is out of reach, and that answer is returned unconverged. The same
path takes over an exact instance the LP leaves unsolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

# The path stops at epsilon + _AIM * opt_tol * ||b||, inside the residual
# bound, so that rounding in the residual cannot push a converged answer out.
_AIM = 0.9999
# Optimality check at every path exit, relative to lam_0 = ||A^T b||_inf:
# |A^T r - lam sign(c)| <= _KKT_TOL lam_0 on the support, and
# |A^T r| <= lam + _KKT_TOL lam_0 off it, with r = b - A c.
_KKT_TOL = 1e-9


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
    # One (||c||_1, residual norm) entry per breakpoint of the LASSO path,
    # from (0, ||b||) to the exit point; a single entry for a linear-programming
    # solve.
    curve_trace: tuple[tuple[float, float], ...] = ()


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 <= radius}.

    Exact sort-and-threshold construction; cost O(n log n). No solver calls
    it: the benchmark's traced run still wraps it by name.
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


def solve(spec: SolveSpec) -> RecoveryResult:
    """Minimize ||c||_1 subject to ||A c - b||_2 <= epsilon.

    A converged result satisfies ||A c - b||_2 <= epsilon + opt_tol * ||b||_2
    and passed the path's optimality check. If ||b||_2 <= epsilon the zero
    vector is optimal and returned at once.

    With epsilon == 0 the problem is a linear program and HiGHS solves it:
    ``iterations`` counts HiGHS iterations, ``tau_final`` is ||c||_1 and the
    curve trace holds the single point (||c||_1, residual). If HiGHS stops
    without an optimum (iteration limit, inconsistent system) or its answer
    misses the residual bound, the LASSO path takes the instance with the rest
    of ``max_iters``; if it does not converge either, the answer with the
    smaller residual is returned, unconverged. Every epsilon > 0 goes to the
    LASSO path directly; there ``iterations`` counts path steps (at most
    ``max_iters``) and ``tau_final`` is ||c||_1. An instance whose target
    residual lies below the least-squares residual ends at the least-squares
    solution, unconverged.
    """
    bnorm = float(np.linalg.norm(spec.rhs))
    if bnorm <= spec.epsilon:
        return RecoveryResult(
            np.zeros(spec.matrix.shape[1]), bnorm, 0, True, 0.0, ((0.0, bnorm),)
        )
    if spec.epsilon > 0.0:
        return _lasso_path(spec, spec.max_iters)
    lp = _basis_pursuit_lp(spec, bnorm)
    if lp.converged:
        return lp
    fallback = _lasso_path(spec, spec.max_iters - lp.iterations)
    # An LP vertex that misses a very tight bound can still beat an
    # unconverged path answer; return the smaller residual.
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


def _lasso_path(spec: SolveSpec, budget: int) -> RecoveryResult:
    """Follow the LASSO path from c = 0 until the residual crosses the target.

    Takes at most ``budget`` path steps (none if it is not positive). Each
    step solves the Gram system of the active set for p and d, then moves lam
    to the next event: the residual crossing, a column joining or an active
    coefficient reaching zero, or lam = 0. The next segment may not undo the
    change at the same lam, where rounding would put its event: a column that
    joined may not drop, and one that dropped may not rejoin with its old sign.
    """
    a, b = spec.matrix, spec.rhs
    rows, cols = a.shape
    bnorm = float(np.linalg.norm(b))
    aim = spec.epsilon + _AIM * spec.opt_tol * bnorm
    gram = a.T @ a
    atb = a.T @ b
    lam0 = float(np.abs(atb).max())
    lam = lam0
    c = np.zeros(cols)
    trace = [(0.0, bnorm)]
    crossed = bnorm <= aim
    first = int(np.argmax(np.abs(atb)))
    changed, changed_sign = first, float(np.sign(atb[first]))
    active, signs = [first], [changed_sign]
    steps = 0
    while not crossed and steps < budget:
        idx = np.array(active)
        s = np.array(signs)
        try:
            sol = np.linalg.solve(gram[np.ix_(idx, idx)], np.column_stack([atb[idx], s]))
        except np.linalg.LinAlgError:
            break  # the active columns are linearly dependent
        p, d = sol[:, 0], sol[:, 1]
        # On this segment r(lam') = r_ls + lam' u and A^T r(lam') = q + lam' v.
        a_active = a[:, idx]
        r_ls = b - a_active @ p
        u = a_active @ d
        q, v = (a.T @ np.column_stack([r_ls, u])).T
        with np.errstate(divide="ignore", invalid="ignore"):
            # Joins where A^T r(lam') = +lam' or -lam'; drops where c_I(lam') = 0.
            joins = [_below(q / (1.0 - v), lam), _below(-q / (1.0 + v), lam)]
            drops = _below(p / d, lam)
        if changed in active:
            drops[active.index(changed)] = -np.inf
        else:
            joins[0 if changed_sign > 0 else 1][changed] = -np.inf
        events = np.maximum(*joins)
        if len(active) >= rows:
            events[:] = -np.inf  # as many columns as rows span b: no join
        events[idx] = drops
        lam_next = max(float(events.max()), 0.0)
        # ||r(lam')||^2 = aim^2 is a quadratic in lam'; its larger root is the
        # crossing. Beyond reach (||r_ls|| >= aim) the segment has none.
        rr, ru, uu = float(r_ls @ r_ls), float(r_ls @ u), float(u @ u)
        slack = aim * aim - rr
        if slack > 0.0:
            lam_cross = min(slack / (ru + np.sqrt(ru * ru + uu * slack)), lam)
            crossed = lam_cross >= lam_next
        steps += 1
        lam = lam_cross if crossed else lam_next
        c[idx] = p - lam * d
        rnorm = float(np.linalg.norm(r_ls + lam * u))
        if not crossed and lam_next > 0.0:
            changed = int(np.argmax(events))
            if changed in active:
                position = active.index(changed)
                changed_sign = signs.pop(position)
                del active[position]
                c[changed] = 0.0
            else:
                changed_sign = float(np.sign(q[changed] + lam * v[changed]))
                active.append(changed)
                signs.append(changed_sign)
        trace.append((float(np.abs(c).sum()), rnorm))
        if lam_next == 0.0 and not crossed:
            break  # least-squares end of the path
    r = b - a @ c
    residual = float(np.linalg.norm(r))
    optimal = _kkt_holds(a.T @ r, c, lam, lam0)
    converged = optimal and crossed and residual <= spec.epsilon + spec.opt_tol * bnorm
    l1 = float(np.abs(c).sum())
    return RecoveryResult(c, residual, steps, bool(converged), l1, tuple(trace))


def _below(roots, lam):
    """The roots in [0, lam), with -inf for the rest (and for NaN)."""
    return np.where((roots >= 0.0) & (roots < lam), roots, -np.inf)


def _kkt_holds(correlation, c, lam, lam0) -> bool:
    """Optimality of c for the LASSO at lam, to _KKT_TOL relative to lam0."""
    on = c != 0.0
    slack = _KKT_TOL * lam0
    on_ok = np.all(np.abs(correlation[on] - lam * np.sign(c[on])) <= slack)
    return bool(on_ok and np.all(np.abs(correlation[~on]) <= lam + slack))


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
