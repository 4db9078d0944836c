"""Deterministic solver for min ||C q - p||^2 over the probability simplex.

Projected gradient descent with a fixed 1/Lipschitz step and sort-based
Euclidean projection onto the simplex, followed by an active-set polish
that solves the KKT system exactly on the support found by the gradient
phase. The objective is monotonically non-increasing, the start point is
the uniform vector, and no randomness is involved, so identical inputs
give bitwise identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_TOL = 1e-8
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class SimplexLsqResult:
    q: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trajectory: tuple[float, ...] | None = None  # per-iteration objectives, debug only


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum q = 1} (sort-based, O(K log K))."""
    # the projection is shift-invariant; with the largest entry at 0 the threshold
    # search always finds its first candidate, even when |v| dwarfs 1
    v = v - v.max()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / ks > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def solve_simplex_lsq(C, p, debug: bool = False) -> SimplexLsqResult:
    """Minimize ||C q - p||_2^2 over the unit simplex.

    Convergence is declared when the per-step objective improvement drops
    below DEFAULT_TOL * (1 + objective); hitting MAX_ITERATIONS returns the best
    iterate with converged=False. Collinear columns of C are tolerated: one
    optimum is returned deterministically.
    """
    C = np.asarray(C, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if C.ndim != 2:
        raise ConfigError("C must be a 2-D matrix")
    m, k = C.shape
    if k == 0:
        raise ConfigError("C must have at least one column")
    if p.shape != (m,):
        raise ConfigError(f"p must have length {m}, got {p.shape}")
    if not (np.isfinite(C).all() and np.isfinite(p).all()):
        raise ConfigError("C and p must be finite")

    q = np.full(k, 1.0 / k)
    ctc = C.T @ C
    ctp = C.T @ p

    def objective(x):
        r = C @ x - p
        return float(r @ r)

    obj = objective(q)
    lipschitz = 2.0 * float(np.linalg.eigvalsh(ctc)[-1]) if k > 1 else 2.0 * float(ctc[0, 0])
    trajectory = [obj] if debug else None
    if lipschitz < np.finfo(np.float64).tiny:
        # C is zero, or so small that the step 1/L would overflow: the objective is
        # constant to machine precision, and uniform is optimal.
        return SimplexLsqResult(q=q, objective=obj, iterations=0, converged=True,
                                trajectory=tuple(trajectory) if debug else None)
    step = 1.0 / lipschitz

    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        grad = 2.0 * (ctc @ q - ctp)
        q_next = project_to_simplex(q - step * grad)
        obj_next = objective(q_next)
        if debug:
            trajectory.append(obj_next)
        improvement = obj - obj_next
        q, obj = q_next, obj_next
        if improvement < DEFAULT_TOL * (1.0 + obj_next):
            converged = True
            break

    q_polished = _polish_active_set(ctc, ctp, q)
    if objective(q_polished) <= obj:
        q = q_polished
        if debug:
            trajectory.append(objective(q))

    q = np.maximum(q, 0.0)
    q = q / q.sum()
    return SimplexLsqResult(q=q, objective=objective(q), iterations=iterations,
                            converged=converged,
                            trajectory=tuple(trajectory) if debug else None)


def _polish_active_set(ctc: np.ndarray, ctp: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the equality-constrained least squares exactly on the support of q,
    dropping negative coordinates and re-adding coordinates whose KKT
    multiplier says they belong, until the KKT conditions hold."""
    k = len(q)
    # the bordered KKT system [[2 C^T C, 1], [1^T, 0]] [x; nu] = [2 C^T p; 1] of all K
    # coordinates: a support's system keeps the rows and columns its mask sets, and
    # the mask's last entry, the border's, stays set
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k], kkt[k, k] = 2.0 * ctc, 0.0
    rhs = np.concatenate([2.0 * ctp, [1.0]])
    support = np.concatenate([q > 0.0, [True]])
    best, best_obj = q, float(q @ ctc @ q - 2.0 * ctp @ q)
    for _ in range(3 * k):
        rows = np.flatnonzero(support)  # the support in sorted order, then the border
        a, b = kkt[rows[:, None], rows], rhs[rows]
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            sol = None
        if sol is None or not np.isfinite(sol).all():
            sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        x, rows = sol[:-1], rows[:-1]
        if x.min() < -1e-12:
            support[rows[int(np.argmin(x))]] = False
            if len(rows) == 1:
                return best
            continue
        candidate = np.zeros(k)
        candidate[rows] = np.maximum(x, 0.0)
        candidate /= candidate.sum()
        obj = float(candidate @ ctc @ candidate - 2.0 * ctp @ candidate)
        if obj <= best_obj:
            best, best_obj = candidate, obj
        grad = 2.0 * (ctc @ candidate - ctp)
        outside = np.flatnonzero(~support[:k])
        if len(outside) == 0:
            return best
        worst = outside[int(np.argmin(grad[outside]))]
        if grad[worst] >= grad[rows].mean() - 1e-10:
            return best
        support[worst] = True
    return best
