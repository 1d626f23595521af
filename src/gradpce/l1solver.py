"""Basis pursuit (denoise) on the LASSO path.

Basis pursuit, min ||c||_1 subject to ||A c - b||_2 <= epsilon, is solved
exactly on the LASSO path c(lam) = argmin 0.5 ||A c - b||^2 + lam ||c||_1, the
homotopy of Osborne, Presnell & Turlach (2000) and Efron et al. ("Least angle
regression", 2004). Between breakpoints the path is linear in lam: on the
active set I with signs s, c_I(lam) = p - lam d where G = A_I^T A_I,
p = G^-1 A_I^T b and d = G^-1 s. It starts at c = 0, lam = ||A^T b||_inf; each
breakpoint adds the inactive column whose correlation reaches lam or drops the
active coefficient that reaches zero. The residual norm falls along the path.

With epsilon > 0 the solve stops at the lam where the residual crosses the
target, the root of a scalar quadratic. With epsilon = 0 (exact basis pursuit)
it stops on the first segment whose least-squares residual ||b - A_I p|| meets
the target and whose p keeps the active signs, and returns c_I = p, the
lam -> 0 limit of the path and the basis-pursuit minimizer. A path that
reaches lam = 0 first ends at the least-squares solution on its support: the
target is out of reach, and that answer is returned unconverged.

A tall full-rank system (rows >= columns) whose target lies below its
least-squares residual has that least-squares solution as the path's end. It
is returned after one Gram solve, refined once, instead of walking the path
to lam = 0; a Gram too ill-conditioned for that takes an SVD solve instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The path aims at epsilon + _AIM * opt_tol * ||b||, inside the residual
# bound, so that rounding in the residual cannot push a converged answer out.
_AIM = 0.9999
# Optimality check at every path exit, relative to lam_0 = ||A^T b||_inf:
# |A^T r - lam sign(c)| <= _KKT_TOL lam_0 on the support, and
# |A^T r| <= lam + _KKT_TOL lam_0 off it, with r = b - A c. At the exact
# (epsilon = 0) exit it is also the sign tolerance on p, and the dual
# certificate y = A_I d must satisfy ||A^T y||_inf <= 1 + _KKT_TOL.
_KKT_TOL = 1e-9
# A column whose correlation with a segment's least-squares residual is at
# most _TIE_TOL lam_0 cannot join on that segment. Its correlation there is
# lam' v up to that amount, within the optimality check's tolerance.
_TIE_TOL = 1e-12
# The least-squares exit solves the normal equations, whose condition is
# cond(A)^2. Past this Gram condition (cond(A) above 1e6) the refined Gram
# solve loses accuracy, and the exit solves by SVD instead.
_MAX_GRAM_COND = 1e12


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
        # Written so that NaN fails them too.
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if not 0.0 < self.opt_tol < np.inf or self.max_iters < 1:
            raise ValueError("opt_tol must be finite and positive and max_iters at least 1")


@dataclass(frozen=True)
class RecoveryResult:
    """Solver output: coefficients plus convergence telemetry."""

    coefficients: np.ndarray = field(repr=False)
    residual_norm: float
    iterations: int
    converged: bool
    # One (||c||_1, residual norm) entry per breakpoint of the LASSO path,
    # from (0, ||b||) to the exit point.
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
    """Minimize ||c||_1 subject to ||A c - b||_2 <= epsilon on the LASSO path.

    A converged result satisfies ||A c - b||_2 <= epsilon + opt_tol * ||b||_2
    and passed the path's optimality check. If ||b||_2 <= epsilon the zero
    vector is optimal and returned at once. ``iterations`` counts path steps
    (at most ``max_iters``) and ``curve_trace`` ends at the exit's ||c||_1.
    An instance whose target residual lies below the least-squares residual,
    such as an inconsistent system at epsilon = 0, ends at the least-squares
    solution, unconverged. A tall full-rank system returns that least-squares
    solution after one Gram or SVD solve (``iterations`` 1) instead of the path.
    """
    bnorm = float(np.linalg.norm(spec.rhs))
    if bnorm <= spec.epsilon:
        return RecoveryResult(
            np.zeros(spec.matrix.shape[1]), bnorm, 0, True, ((0.0, bnorm),)
        )
    return _lasso_path(spec)


def _lasso_path(spec: SolveSpec) -> RecoveryResult:
    """Follow the LASSO path from c = 0 until the residual meets the target.

    Takes at most ``spec.max_iters`` path steps. Each step solves the Gram
    system of the active set for p and d, then moves lam to the next event:
    the residual crossing (epsilon > 0), the exact exit at lam = 0
    (epsilon = 0), a column joining or an active coefficient reaching zero,
    or lam = 0. The next segment may not undo the change at the same lam,
    where rounding would put its event: a column that joined may not drop,
    and one that dropped may not rejoin with its old sign. A column in the
    span of the active columns does not join. A tall full-rank system whose
    target lies below its least-squares residual ends at lam = 0 in one step,
    the least-squares solution, without walking the path.
    """
    a, b = spec.matrix, spec.rhs
    rows, cols = a.shape
    exact = spec.epsilon == 0.0
    bnorm = float(np.linalg.norm(b))
    aim = spec.epsilon + _AIM * spec.opt_tol * bnorm
    bound = spec.epsilon + spec.opt_tol * bnorm
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
    least_squares = _infeasible_least_squares(a, b, gram, atb, bound)
    if least_squares is not None:
        # The path's least-squares end, reached in one step.
        c, lam, steps = least_squares, 0.0, 1
        trace.append((float(np.abs(c).sum()), float(np.linalg.norm(b - a @ c))))
    while least_squares is None and not crossed and steps < spec.max_iters:
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
        best = int(np.argmax(events))
        if abs(q[best]) <= _TIE_TOL * lam0 and best not in active:
            # A column in the span of the active columns, such as a duplicate
            # of one, has q = 0 up to rounding, so its roots are rounding
            # noise: no such column joins.
            tied = np.abs(q) <= _TIE_TOL * lam0
            tied[idx] = False
            events[tied] = -np.inf
            best = int(np.argmax(events))
        lam_next = max(float(events[best]), 0.0)
        rr, ru, uu = float(r_ls @ r_ls), float(r_ls @ u), float(u @ u)
        slack = aim * aim - rr
        if exact:
            # A segment whose least-squares fit meets the target with the
            # active signs (near-zero entries of either sign allowed) ends at
            # its lam -> 0 limit, c_I = p.
            crossed = slack > 0.0 and bool(np.all(s * p >= -_KKT_TOL * np.abs(p).max()))
            lam_cross = 0.0
        elif slack > 0.0:
            # ||r(lam')||^2 = aim^2 is a quadratic in lam'; its larger root is
            # the crossing. Beyond reach (||r_ls|| >= aim) the segment has none.
            lam_cross = min(slack / (ru + np.sqrt(ru * ru + uu * slack)), lam)
            crossed = lam_cross >= lam_next
        steps += 1
        lam = lam_cross if crossed else lam_next
        c[idx] = p - lam * d
        rnorm = float(np.linalg.norm(r_ls + lam * u))
        if not crossed and lam_next > 0.0:
            changed = best
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
    # Only a path that crossed the target can converge, so only it is checked.
    # At lam = 0 the KKT check accepts any interpolant; y = A_I d, with
    # A_I^T y = s and b^T y = s^T p = ||c||_1, certifies the minimum.
    converged = crossed and residual <= bound and (
        _dual_certified(v) if exact else _kkt_holds(a.T @ r, c, lam, lam0))
    return RecoveryResult(c, residual, steps, bool(converged), tuple(trace))


def _infeasible_least_squares(a, b, gram, atb, target):
    """The least-squares solution of a tall full-rank system whose
    least-squares residual exceeds ``target``; None for any other system.

    Any trial solution with a residual at or below the target shows that the
    target is reachable. Otherwise the normal-equations solution gets one
    refinement step, x += G^-1 A^T r, which brings it to rounding level of the
    least-squares solution up to _MAX_GRAM_COND. A Gram past that takes the
    SVD least-squares solution, and a system that it finds rank-deficient is
    left to the path.
    """
    if a.shape[0] < a.shape[1]:
        return None
    try:
        x = np.linalg.solve(gram, atb)
    except np.linalg.LinAlgError:
        return None
    r = b - a @ x
    if np.linalg.norm(r) <= target:
        return None
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues[0] > eigenvalues[-1] / _MAX_GRAM_COND:
        x += np.linalg.solve(gram, a.T @ r)
    else:
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < a.shape[1]:
            return None
    if np.linalg.norm(b - a @ x) <= target:
        return None
    return x


def _below(roots, lam):
    """The roots in [0, lam), with -inf for the rest (and for NaN)."""
    return np.where((roots >= 0.0) & (roots < lam), roots, -np.inf)


def _kkt_holds(correlation, c, lam, lam0) -> bool:
    """Optimality of c for the LASSO at lam, to _KKT_TOL relative to lam0."""
    on = c != 0.0
    slack = _KKT_TOL * lam0
    on_ok = np.all(np.abs(correlation[on] - lam * np.sign(c[on])) <= slack)
    return bool(on_ok and np.all(np.abs(correlation[~on]) <= lam + slack))


def _dual_certified(correlation) -> bool:
    """Dual feasibility ||A^T y||_inf <= 1 of y = A_I d, to _KKT_TOL."""
    return bool(np.abs(correlation).max() <= 1.0 + _KKT_TOL)
