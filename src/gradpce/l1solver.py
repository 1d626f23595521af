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
the target and whose dual point y = A_I d certifies p (below), and returns
c_I = p, the lam -> 0 limit of the path. A path that reaches lam = 0 first
ends at the least-squares solution on its support: the target is out of
reach, and that answer is returned unconverged.

A tall full-rank system (rows >= columns) whose target lies below its
least-squares residual has that least-squares solution as the path's end. It
is returned after one Gram solve, refined once, instead of walking the path
to lam = 0; a Gram too ill-conditioned for that takes an SVD solve instead.
Only a tall system builds the full Gram A^T A, for that exit.

An answer x that meets the target converges when one weak-duality bound
(van den Berg & Friedlander, 2008) certifies it: y / ||A^T y||_inf is dual
feasible for any y, and ||x||_1 - dual / ||A^T y||_inf <= _GAP_TOL ||x||_1.
The exact stop takes y = A_I d, whose dual value s^T p bounds the minimum for
the data b - r_ls that p fits (A_I^T r_ls = 0); the crossing takes
y = r = b - A c, whose dual value c^T A^T r bounds it at epsilon = ||r||.

The path keeps each active column a_j over its Gram column A^T a_j, computed
when it joins, in one buffer: a step costs one |I| x |I| solve and one product
with that buffer, O(columns * |I|) in a fixed number of numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import checked

# The path aims at epsilon + _AIM * opt_tol * ||b||, inside the residual
# bound, so that rounding in the residual cannot push a converged answer out.
_AIM = 0.9999
# The largest duality gap of a converged answer x, relative to ||x||_1.
_GAP_TOL = 1e-6
# A column whose correlation with a segment's least-squares residual is at
# most _TIE_TOL lam_0 cannot join on that segment: q is computed to rounding
# relative to lam_0 = ||A^T b||_inf, so such a q is noise.
_TIE_TOL = 1e-12
# The least-squares exit solves the normal equations, whose condition is
# cond(A)^2. Past this Gram condition (cond(A) above 1e6) the refined Gram
# solve loses accuracy, and the exit solves by SVD instead.
_MAX_GRAM_COND = 1e12
# Columns j, m with (a_j^T a_m)^2 >= _PARALLEL ||a_j||^2 ||a_m||^2 are
# parallel, to rounding: a copy of a column that dropped may not rejoin in its
# place.
_PARALLEL = 1.0 - 1e-12
# The signs of A^T r = +-lam at the two rows of a step's event roots.
_SIGNS = np.array([[1.0], [-1.0]])


@dataclass
class SolveSpec:
    """One basis-pursuit instance with its solver controls.

    ``squares`` holds the squared column norms of ``matrix``, computed once by
    the validation and reused by the path.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    epsilon: float = 0.0
    opt_tol: float = 1e-6
    max_iters: int = 10_000
    squares: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if self.matrix.shape[1] == 0:
            raise ValueError("matrix must have at least one column")
        if self.matrix.shape[0] != self.rhs.shape[0]:
            raise ValueError("matrix and rhs row counts differ")
        # One pass over A: a non-finite entry makes its column's square
        # non-finite. A finite column's square can overflow too, so only a
        # non-finite square sends the check back to the entries.
        self.squares = np.einsum("ij,ij->j", self.matrix, self.matrix)
        finite = np.all(np.isfinite(self.squares)) or np.all(np.isfinite(self.matrix))
        if not finite or not np.all(np.isfinite(self.rhs)):
            raise ValueError("matrix and rhs must be finite")
        # A column whose squares all underflow to 0 counts as zero.
        if np.any(self.squares == 0.0):
            raise ValueError("matrix has an all-zero column")
        self.epsilon = checked("epsilon", self.epsilon, float)
        self.opt_tol = checked("opt_tol", self.opt_tol, float)
        self.max_iters = checked("max_iters", self.max_iters, int)
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
    # from (0, ||b||) to the exit point. perfbench's traced runs read it.
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
    and has a weak-duality gap of at most 1e-6 ||c||_1. The path aims at
    epsilon + 0.9999 opt_tol ||b||_2; if ||b||_2 already lies within the aim,
    the zero vector is optimal and returned at once. ``iterations`` counts path steps (at most
    ``max_iters``) and ``curve_trace`` ends at the exit's ||c||_1. An instance
    whose target residual lies below the least-squares residual, such as an
    inconsistent system at epsilon = 0, ends at the least-squares solution,
    unconverged. If the system is also tall and full-rank, it reaches that end
    in one step (``iterations`` 1), one Gram or SVD solve, without the path.

    Each step solves the Gram system of the active set for p and d, then moves
    lam to the next event: the residual crossing (epsilon > 0), the exact exit
    at lam = 0 (epsilon = 0), a column joining or an active coefficient
    reaching zero, or lam = 0. A column whose join root equals lam joins at
    once, a step of length zero, so exactly tied columns all join; a drop must
    lie strictly below lam, or the column that joined last would drop again.
    The next segment may not undo the change at the same lam, where rounding
    would put its event: a column that joined may not drop, and one that
    dropped may not rejoin with its old sign, nor may a copy of it (a column
    parallel to it) join in its place. A column in the span of the active
    columns does not join.

    Each active column a_j is kept with its Gram column A^T a_j (computed when
    it joins, read from the full Gram on a tall system) stacked under it in one
    buffer. A step reads its Gram block G from the lower rows; one product of
    the buffer with [p, d], against [b; A^T b], gives the segment's residual
    r_ls + lam' u and correlations q + lam' v. Both signs' join roots and the
    drop roots are found in one pass over a 2 x columns array.
    """
    a, b = spec.matrix, spec.rhs
    rows, cols = a.shape
    exact = spec.epsilon == 0.0
    bnorm = float(np.linalg.norm(b))
    aim = spec.epsilon + _AIM * spec.opt_tol * bnorm
    if bnorm <= aim:
        return RecoveryResult(np.zeros(cols), bnorm, 0, True, ((0.0, bnorm),))
    bound = spec.epsilon + spec.opt_tol * bnorm
    atb = a.T @ b
    abs_atb = np.abs(atb)
    squares = spec.squares
    gram = a.T @ a if rows >= cols else None
    lam0 = float(abs_atb.max())
    tie = _TIE_TOL * lam0
    lam = lam0
    c = np.zeros(cols)
    trace = [(0.0, bnorm)]
    crossed = False
    # The active columns in join order. Column i of joint is a[:, active[i]]
    # over A^T a[:, active[i]], matching stacked = [b; A^T b]; row i of rhs
    # holds (A^T b, sign) of active[i]. No column joins once |I| = rows.
    active = []
    size = min(rows, cols)
    joint = np.empty((rows + cols, size), order="F")
    cross = joint[rows:]
    stacked = np.concatenate((b, atb))
    rhs = np.empty((size, 2))

    def join(j, sign):
        k = len(active)
        active.append(j)
        joint[:rows, k] = a[:, j]
        cross[:, k] = a.T @ a[:, j] if gram is None else gram[j]
        rhs[k] = atb[j], sign

    first = int(np.argmax(abs_atb))
    join(first, float(np.sign(atb[first])))
    # The root that would undo the last change at the same lam: the drop of
    # the column that joined, or the rejoin of a dropped column with its old
    # sign, or of a copy of it.
    blocked = (0, first)
    steps = 0
    least_squares = None if gram is None else _infeasible_least_squares(a, b, gram, atb, bound)
    if least_squares is not None:
        # The path's least-squares end, reached in one step.
        c, lam, steps = least_squares, 0.0, 1
        trace.append((float(np.abs(c).sum()), float(np.linalg.norm(b - a @ c))))
    with np.errstate(divide="ignore", invalid="ignore"):  # roots of 1 - v = 0 or d = 0
        while least_squares is None and not crossed and steps < spec.max_iters:
            k = len(active)
            idx = np.array(active)
            try:
                sol = np.linalg.solve(cross[idx, :k], rhs[:k])
            except np.linalg.LinAlgError:
                break  # the active columns are linearly dependent
            p, d = sol[:, 0], sol[:, 1]
            # On this segment r(lam') = r_ls + lam' u and A^T r(lam') = q + lam' v,
            # where [r_ls; q] = stacked - joint p and [u; v] = joint d.
            product = joint[:, :k] @ sol
            at_zero = stacked - product[:, 0]
            r_ls, q, u, v = at_zero[:rows], at_zero[rows:], product[:rows, 1], product[rows:, 1]
            # An inactive column joins where A^T r(lam') = +lam' (row 0) or
            # -lam' (row 1); an active one drops where c_I(lam') = 0 (row 0).
            roots = q / (_SIGNS - v)
            drops = p / d
            if k >= rows:
                roots[:] = np.nan  # as many columns as rows span b: no join
            # A drop lies strictly below lam; a tied column may join at lam itself.
            drops[drops >= lam] = np.nan
            roots[0, idx] = drops
            roots[1, idx] = np.nan
            roots[blocked] = np.nan
            # The events: the roots up to lam, with -inf for NaN. A negative
            # root wins only when none lies in [0, lam], and then lam_next is 0.
            events = np.where(roots <= lam, roots, -np.inf)
            flat = int(events.argmax())
            best = flat % cols
            if abs(q[best]) <= tie and best not in active:
                # A column in the span of the active columns (a duplicate of one,
                # say) has q = 0 up to rounding: its roots are noise; it does not join.
                tied = np.abs(q) <= tie
                tied[idx] = False
                events[:, tied] = -np.inf
                flat = int(events.argmax())
                best = flat % cols
            lam_next = max(float(events.flat[flat]), 0.0)
            slack = aim * aim - float(r_ls @ r_ls)
            if exact:
                # A segment whose least-squares fit meets the target and whose
                # y = A_I d certifies p ends at its lam -> 0 limit, c_I = p;
                # any other segment is an ordinary step.
                crossed = slack > 0.0 and _certified(p, rhs[:k, 1] @ p, v)
                lam_cross = 0.0
            elif slack > 0.0:
                # ||r(lam')||^2 = aim^2 is a quadratic in lam'; its larger root is
                # the crossing. Beyond reach (||r_ls|| >= aim) the segment has none.
                ru, uu = float(r_ls @ u), float(u @ u)
                lam_cross = min(slack / (ru + math.sqrt(ru * ru + uu * slack)), lam)
                crossed = lam_cross >= lam_next
            steps += 1
            lam = lam_cross if crossed else lam_next
            c[idx] = p - lam * d
            y = r_ls + lam * u
            rnorm = math.sqrt(y @ y)
            if not crossed and lam_next > 0.0:
                if best in active:
                    position = active.index(best)
                    # The dropped column and its copies: the columns parallel to
                    # it, each with the sign its correlation takes from the old one.
                    along = cross[:, position] * rhs[position, 1]
                    copies = np.flatnonzero(along * along >= _PARALLEL * squares * squares[best])
                    blocked = (np.where(along[copies] > 0.0, 0, 1), copies)
                    del active[position]
                    joint[:, position:k - 1] = joint[:, position + 1:k]
                    rhs[position:k - 1] = rhs[position + 1:k]
                    c[best] = 0.0
                else:
                    join(best, 1.0 if float(q[best]) + lam * float(v[best]) > 0.0 else -1.0)
                    blocked = (0, best)
            trace.append((float(np.abs(c).sum()), rnorm))
            if lam_next == 0.0 and not crossed:
                break  # least-squares end of the path
    r = b - a @ c
    residual = float(np.linalg.norm(r))
    # Only a path that crossed the target can converge, so only it is checked;
    # the exact stop certified its segment already.
    converged = crossed and residual <= bound
    if converged and not exact:
        correlation = a.T @ r
        converged = _certified(c, c @ correlation, correlation)
    return RecoveryResult(c, residual, steps, bool(converged), tuple(trace))


def _infeasible_least_squares(a, b, gram, atb, target):
    """The least-squares solution of a tall (rows >= columns) full-rank
    system whose least-squares residual exceeds ``target``; None if the
    target is reachable or the system is rank-deficient.

    Any trial solution with a residual at or below the target shows that the
    target is reachable. Otherwise the normal-equations solution gets one
    refinement step, x += G^-1 A^T r, which brings it to rounding level of the
    least-squares solution up to _MAX_GRAM_COND. A Gram past that takes the
    SVD least-squares solution, and a system that it finds rank-deficient is
    left to the path.
    """
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


def _certified(x, dual, correlation) -> bool:
    """Weak duality for the dual point y with A^T y = ``correlation`` and dual
    value ``dual``: ||x||_1 - dual / ||A^T y||_inf <= _GAP_TOL ||x||_1."""
    l1 = np.abs(x).sum()
    return bool(l1 - dual / np.abs(correlation).max() <= _GAP_TOL * l1)
