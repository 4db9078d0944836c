import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphquant.errors import ConfigError
from graphquant.solver import _polish_active_set, project_to_simplex, solve_simplex_lsq


def simplex_grid(k, resolution):
    """All points of the K-simplex with coordinates that are multiples of resolution."""
    steps = int(round(1.0 / resolution))
    if k == 2:
        i = np.arange(steps + 1)
        return np.column_stack([i, steps - i]) / steps
    if k == 3:
        pts = []
        for i in range(steps + 1):
            j = np.arange(steps - i + 1)
            pts.append(np.column_stack([np.full(len(j), i), j, steps - i - j]))
        return np.concatenate(pts) / steps
    raise ValueError("grid oracle only supports K in {2, 3}")


def grid_optimum(C, p, resolution=1e-3):
    q = simplex_grid(C.shape[1], resolution)
    residuals = q @ C.T - p
    return float(np.min(np.einsum("ij,ij->i", residuals, residuals)))


class TestHandCases:
    def test_identity_confusion(self):
        r = solve_simplex_lsq(np.eye(2), np.array([0.3, 0.7]))
        assert np.allclose(r.q, [0.3, 0.7], atol=1e-9)

    def test_interior_solution(self):
        C = np.array([[0.9, 0.2], [0.1, 0.8]])
        r = solve_simplex_lsq(C, np.array([0.55, 0.45]))
        assert np.allclose(r.q, [0.5, 0.5], atol=1e-6)
        # oracle: exact linear solve lands inside the simplex
        exact = np.linalg.solve(C, [0.55, 0.45])
        assert np.allclose(r.q, exact, atol=1e-6)

    def test_boundary_solution(self):
        r = solve_simplex_lsq(np.array([[1.0, 0.5], [0.0, 0.5]]), np.array([0.0, 1.0]))
        assert np.allclose(r.q, [0.0, 1.0], atol=1e-6)
        assert r.objective == pytest.approx(0.5, abs=1e-9)

    def test_exact_recovery_full_rank(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            C = rng.random((3, 3)) + np.eye(3)
            C /= C.sum(axis=0)
            q_true = rng.dirichlet(np.ones(3))
            r = solve_simplex_lsq(C, C @ q_true)
            assert np.abs(r.q - q_true).max() < 1e-6

    def test_rectangular_system(self):
        rng = np.random.default_rng(1)
        C = rng.random((9, 3))
        C /= C.sum(axis=0)
        q_true = rng.dirichlet(np.ones(3))
        r = solve_simplex_lsq(C, C @ q_true)
        assert np.abs(r.q - q_true).max() < 1e-6


class TestContract:
    def test_grid_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            k = 2 + trial % 2
            m = k if trial % 3 else k * k
            C = rng.random((m, k))
            C /= np.maximum(C.sum(axis=0), 1e-9)
            p = rng.dirichlet(np.ones(m))
            r = solve_simplex_lsq(C, p)
            assert r.objective <= grid_optimum(C, p) + 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        C = rng.random((3, 3))
        p = rng.dirichlet(np.ones(3))
        r1 = solve_simplex_lsq(C, p)
        r2 = solve_simplex_lsq(C, p)
        assert np.array_equal(r1.q, r2.q)
        assert r1.objective == r2.objective
        assert r1.iterations == r2.iterations

    def test_objective_monotone_in_debug_mode(self):
        rng = np.random.default_rng(4)
        C = rng.random((4, 3))
        p = rng.dirichlet(np.ones(4))
        r = solve_simplex_lsq(C, p, debug=True)
        traj = np.asarray(r.trajectory)
        assert np.all(np.diff(traj) <= 1e-15)

    def test_collinear_columns_return_deterministically(self):
        C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        p = np.array([0.4, 0.6, 0.0])
        r1 = solve_simplex_lsq(C, p)
        r2 = solve_simplex_lsq(C, p)
        assert np.array_equal(r1.q, r2.q)
        assert r1.objective < 1e-12
        assert r1.q[0] == pytest.approx(0.4, abs=1e-6)

    def test_zero_matrix(self):
        r = solve_simplex_lsq(np.zeros((2, 2)), np.array([0.5, 0.5]))
        assert np.allclose(r.q, [0.5, 0.5])
        assert r.converged

    def test_matrix_whose_step_overflows(self):
        # L = 2 * (2.5e-156)**2 is subnormal: the step 1/L was inf, and inf * 0 made
        # the projection's input NaN (IndexError)
        r = solve_simplex_lsq(np.array([[0.0, 0.0], [0.0, 2.49754754e-156]]), np.zeros(2))
        assert np.array_equal(r.q, [0.5, 0.5])
        assert r.converged

    def test_validation(self):
        with pytest.raises(ConfigError):
            solve_simplex_lsq(np.empty((2, 0)), np.zeros(2))
        with pytest.raises(ConfigError):
            solve_simplex_lsq(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ConfigError):
            solve_simplex_lsq(np.eye(2), np.zeros(3))


@st.composite
def lsq_instances(draw, max_k=4):
    k = draw(st.integers(2, max_k))
    m = draw(st.sampled_from([k, k * k]))
    cells = st.floats(0.0, 1.0, allow_nan=False)
    C = np.asarray(draw(st.lists(st.lists(cells, min_size=k, max_size=k),
                                 min_size=m, max_size=m)))
    p = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    return C, p


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(lsq_instances())
    # a step of 1/Lipschitz ~ 1e293 pushed the projection's input past 2**53
    @example((np.array([[0.0, 2.2e-147], [0.0, 0.0]]), np.array([1.0, 0.0])))
    def test_output_on_simplex(self, instance):
        C, p = instance
        r = solve_simplex_lsq(C, p)
        assert r.q.min() >= 0.0
        assert abs(r.q.sum() - 1.0) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(lsq_instances(max_k=3), st.permutations([0, 1, 2]))
    def test_permutation_equivariance(self, instance, perm):
        C, p = instance
        k = C.shape[1]
        perm = [i for i in perm if i < k]
        if len(perm) != k:
            perm = list(range(k))
        r = solve_simplex_lsq(C, p)
        r_perm = solve_simplex_lsq(C[:, perm], p)
        assert np.abs(r_perm.q - r.q[perm]).max() < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8))
    def test_projection_is_valid_and_idempotent(self, vec):
        v = np.asarray(vec)
        proj = project_to_simplex(v)
        assert proj.min() >= 0.0
        assert abs(proj.sum() - 1.0) < 1e-9
        again = project_to_simplex(proj)
        assert np.abs(again - proj).max() < 1e-12

    def test_projection_of_entries_beyond_float_precision(self):
        # cumulative sums lose the 1 of the simplex constraint once an entry exceeds 2**53
        proj = project_to_simplex(np.array([0.5, 4.4e146]))
        assert np.array_equal(proj, [0.0, 1.0])
        assert np.array_equal(project_to_simplex(np.array([2.0 ** 60, 2.0 ** 60])), [0.5, 0.5])


def polish_oracle(ctc, ctp, q):
    """The active-set polish on index arrays, as first written: the support is a
    sorted index array edited by np.delete and np.append, and every step builds
    its bordered KKT system afresh. The boolean-support polish must return the
    same bits."""
    k = len(q)

    def objective_quad(x):
        return float(x @ ctc @ x - 2.0 * ctp @ x)

    support = np.nonzero(q > 0.0)[0]
    best, best_obj = q, objective_quad(q)
    for _ in range(3 * k):
        x = solve_kkt_oracle(ctc, ctp, support)
        if x.min() < -1e-12:
            support = np.delete(support, int(np.argmin(x)))
            if len(support) == 0:
                return best
            continue
        candidate = np.zeros(k)
        candidate[support] = np.maximum(x, 0.0)
        candidate /= candidate.sum()
        if objective_quad(candidate) <= best_obj:
            best, best_obj = candidate, objective_quad(candidate)
        grad = 2.0 * (ctc @ candidate - ctp)
        nu = grad[support].mean()
        outside = np.setdiff1d(np.arange(k), support, assume_unique=False)
        if len(outside) == 0:
            return best
        worst = outside[int(np.argmin(grad[outside]))]
        if grad[worst] >= nu - 1e-10:
            return best
        support = np.sort(np.append(support, worst))
    return best


def solve_kkt_oracle(ctc, ctp, support):
    s = len(support)
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = 2.0 * ctc[np.ix_(support, support)]
    kkt[:s, s] = 1.0
    kkt[s, :s] = 1.0
    rhs = np.concatenate([2.0 * ctp[support], [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.isfinite(sol).all():
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:s]


@st.composite
def polish_instances(draw, max_k=5):
    """(C, p, q): C full-rank, with a zero column, with a duplicate column, or with
    a zero row; any p; q interior, on the boundary, or a single vertex."""
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(k, 2 * max_k))
    cells = st.floats(-1.0, 1.0, allow_nan=False)
    C = np.asarray(draw(st.lists(st.lists(cells, min_size=k, max_size=k),
                                 min_size=m, max_size=m)))
    shape = draw(st.sampled_from(["full-rank", "zero-column", "duplicate-column", "zero-row"]))
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if shape == "full-rank":  # the top K x K block is strictly diagonally dominant
        C += (k + 1) * np.eye(m, k)
    elif shape == "zero-column":
        C[:, j] = 0.0
    elif shape == "duplicate-column":
        C[:, j] = C[:, i]
    else:
        C[draw(st.integers(0, m - 1))] = 0.0
    p = np.asarray(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    weights = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    start = draw(st.sampled_from(["interior", "boundary", "vertex"]))
    if start == "boundary":
        weights *= np.asarray(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        weights[i] = max(weights[i], 1e-3)  # at least one coordinate stays positive
    elif start == "vertex":
        weights = np.eye(k)[i]
    return C, p, weights / weights.sum()


def kkt_oracle(C, p):
    """The minimizer of ||C q - p||^2 over the simplex for full-rank C, by brute
    force: the equality-constrained solution on every support, the best feasible."""
    k = C.shape[1]
    ctc, ctp = C.T @ C, C.T @ p
    best_obj, best_q = np.inf, None
    for size in range(1, k + 1):
        for support in map(list, itertools.combinations(range(k), size)):
            x = solve_kkt_oracle(ctc, ctp, support)
            if x.min() < 0.0:
                continue
            q = np.zeros(k)
            q[support] = x
            r = C @ q - p
            if r @ r < best_obj:
                best_obj, best_q = float(r @ r), q
    return best_obj, best_q


class TestPolish:
    @settings(max_examples=300, deadline=None)
    @given(polish_instances())
    # a coordinate at -5e-13 stays, within the -1e-12 drop threshold
    @example((np.eye(3), np.array([0.6, 0.4 + 5e-13, -5e-13]), np.full(3, 1 / 3)))
    # a multiplier 4e-11 below the support's stays out, within the 1e-10 threshold
    @example((np.eye(3), np.array([0.5, 0.5, 2e-11]), np.array([0.5, 0.5, 0.0])))
    # duplicate columns: the least-norm solve ties the start's objective and replaces it
    @example((np.array([[1.0, 1.0]]), np.array([1.0]), np.array([0.3, 0.7])))
    def test_same_bits_as_index_array_polish(self, instance):
        C, p, q = instance
        ctc, ctp = C.T @ C, C.T @ p
        with np.errstate(all="ignore"):
            got = _polish_active_set(ctc, ctp, q.copy())
            want = polish_oracle(ctc, ctp, q.copy())
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_solver_matches_brute_force_kkt(self):
        rng = np.random.default_rng(23)
        for trial in range(300):
            k = 2 + trial % 4
            m = k + trial % 3
            C = rng.random((m, k))
            C /= C.sum(axis=0)
            if trial % 2:
                p = C @ rng.dirichlet(np.ones(k)) + rng.normal(0.0, 0.05, m)
            else:
                p = rng.dirichlet(np.ones(m))
            if np.linalg.matrix_rank(C) < k:
                continue
            oracle_obj, oracle_q = kkt_oracle(C, p)
            r = solve_simplex_lsq(C, p)
            assert r.objective <= oracle_obj + 1e-12
            if np.linalg.cond(C) <= 1e6:
                assert np.abs(r.q - oracle_q).max() <= 1e-6
