import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant import graph, shift
from graphquant.config import ShiftConfig
from graphquant.errors import ConfigError, DataError
from graphquant.graph import Graph, check_vertex_ids
from graphquant.harness import draw_samples
from graphquant.shift import (generate_sbm, largest_remainder_counts, load_sample_sections,
                              sample_bfs, sample_pps, sample_rw, save_samples,
                              uniform_split, write_manifest, zipf_distribution)

from test_graph import BLANK_LINES, NEWLINES, connected_components, outcome


def load_sample_sections_by_line(path, n):
    """Line-by-line samples parser, header tokens without '=' rejected: the
    oracle for load_sample_sections."""
    sections = []
    header = None
    vertices = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" in line:
                if header is not None:
                    sections.append((header, np.asarray(vertices, dtype=np.int64)))
                if not all("=" in tok for tok in line.split(",")):
                    raise DataError(f"{path}:{lineno}: expected 'key=value,...', got {line!r}")
                header = dict(tok.split("=", 1) for tok in line.split(","))
                vertices = []
            else:
                if header is None:
                    raise DataError(f"{path}:{lineno}: vertex id before any sample header")
                try:
                    vertices.append(int(line))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: expected a vertex id, got {line!r}")
    if header is not None:
        sections.append((header, np.asarray(vertices, dtype=np.int64)))
    return [(fields, check_vertex_ids(ids, n, f"{path}: sample {i}"))
            for i, (fields, ids) in enumerate(sections)]


@st.composite
def samples_file_lines(draw):
    """Samples-file lines: headers (padded, with a token lacking '=', with '='
    inside a value) mixed with in-range, out-of-range, negative, repeated,
    padded and non-integer ids, two ids on a line, and blank lines; the first
    line is sometimes an id."""
    header = st.sampled_from(["sampler=rw,seed=1,n=2", " sampler=pps,target=0.5|0.5 ", "a=b=c",
                              "k=v,bad", "=", "n=0,flagged=1"])
    vertex = st.sampled_from(["0", "3", "9", "10", "-1", "+4", "07", " 5\t", "x", "1.5",
                              "1 2", "#1"])
    body = st.lists(st.one_of(vertex, vertex, vertex, BLANK_LINES), max_size=5)
    sections = draw(st.lists(st.tuples(header, body), max_size=4))
    lines = draw(st.lists(st.one_of(vertex, BLANK_LINES), max_size=1))
    for head, ids in sections:
        lines += [head] + ids
    return lines


class TestLargestRemainder:
    def test_paper_protocol_sizes(self):
        assert list(largest_remainder_counts(100, [0.05, 0.15, 0.80])) == [5, 15, 80]

    def test_small_n_rounding(self):
        assert list(largest_remainder_counts(10, [0.05, 0.15, 0.80])) == [1, 1, 8]

    def test_two_thirds(self):
        assert list(largest_remainder_counts(100, [2 / 3, 1 / 3])) == [67, 33]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 500),
           st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6))
    def test_totals_always_match(self, total, raw):
        shares = np.asarray(raw) / np.sum(raw)
        counts = largest_remainder_counts(total, shares)
        assert counts.sum() == total
        assert counts.min() >= 0


class TestUniformSplit:
    def test_sizes(self):
        g = Graph.from_edges(100, [])
        s = uniform_split(g, (0.05, 0.15, 0.80), seed=0)
        assert (len(s.classifier_train), len(s.quantifier_train), len(s.test)) == (5, 15, 80)

    def test_deterministic(self):
        g = Graph.from_edges(50, [])
        a = uniform_split(g, (0.05, 0.15, 0.80), seed=3)
        b = uniform_split(g, (0.05, 0.15, 0.80), seed=3)
        assert np.array_equal(a.classifier_train, b.classifier_train)
        assert np.array_equal(a.quantifier_train, b.quantifier_train)
        assert np.array_equal(a.test, b.test)

    def test_partition_is_disjoint_and_complete(self):
        g = Graph.from_edges(83, [])
        s = uniform_split(g, (0.2, 0.3, 0.5), seed=5)
        merged = np.concatenate([s.classifier_train, s.quantifier_train, s.test])
        assert len(merged) == 83
        assert len(np.unique(merged)) == 83

    def test_invalid_fractions(self):
        g = Graph.from_edges(10, [])
        with pytest.raises(ConfigError):
            uniform_split(g, (0.5, 0.5, 0.5), seed=0)

    @pytest.mark.parametrize("fractions", [(np.nan, 0.5, 0.5), (0.5, np.nan, np.nan),
                                           (np.inf, 0.5, 0.5), (0.5, 0.5, -np.inf)])
    def test_non_finite_fractions_rejected(self, fractions):
        # every comparison with NaN is False, so a check for what is wrong let these through
        g = Graph.from_edges(20, [])
        with pytest.raises(ConfigError, match="finite"):
            uniform_split(g, fractions, seed=0)


def oracle_bfs_collect(g, in_pool, start, n, rng):
    """The BFS collector as written before shift._bfs_collect became one level
    loop, returning (vertices, flagged): its oracle."""
    visited = np.zeros(g.n, dtype=bool)
    visited[start] = True
    collected = []
    frontier = [start]
    while frontier and len(collected) < n:
        for v in frontier:
            if in_pool[v]:
                collected.append(v)
                if len(collected) == n:
                    break
        if len(collected) == n:
            break
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if not visited[u]:
                    visited[u] = True
                    nxt.append(u)
        rng.shuffle(nxt)
        frontier = nxt
    return np.asarray(collected, dtype=np.int64), len(collected) < n


def oracle_rw_collect(g, in_pool, start, n, rng, walk_len, alpha):
    """The RW collector as written before shift._rw_collect became one step
    loop (nested walks, reach counted at RW_REACH_CHECK_FACTOR * n steps),
    returning (vertices, flagged): its oracle, with its arguments reordered
    to the collectors' call."""
    seen = set()
    order = []

    def visit(v):
        if in_pool[v] and v not in seen:
            seen.add(v)
            order.append(v)

    visit(start)
    if g.degrees[start] == 0:
        return np.asarray(order, dtype=np.int64), True
    budget = shift.RW_STEP_BUDGET_FACTOR * n
    reachable = None  # pool vertices within walk_len hops of the start, once counted
    steps = 0
    flagged = False
    while len(order) < n:
        current = start
        for _ in range(walk_len):
            if steps == shift.RW_REACH_CHECK_FACTOR * n:
                hops = graph.bfs_distances(g, [start])[0]  # its maximum marks no path
                reachable = np.count_nonzero(
                    in_pool & (hops < min(walk_len + 1, np.iinfo(hops.dtype).max)))
            if steps >= budget or len(order) == reachable:
                flagged = True
                break
            steps += 1
            if rng.random() < alpha:
                current = start
            else:
                nbrs = g.neighbors(current)
                current = int(nbrs[rng.integers(len(nbrs))])
            visit(current)
            if len(order) == n:
                break
        if flagged or len(order) == n:
            break
    return np.asarray(order, dtype=np.int64), flagged or len(order) < n


@st.composite
def start_vertex_cases(draw):
    """A planted-partition graph, a pool drawn from its vertices (duplicates
    allowed; vertices in other components or past walk_len hops of a start are
    common) and the BFS/RW settings. With alpha = 1 a walk never leaves its
    start and runs its whole 1000 * n step budget, so n stays at most 20 there."""
    blocks = draw(st.lists(st.integers(1, 30), min_size=2, max_size=3))
    g = generate_sbm(blocks, draw(st.sampled_from([0.3, 0.1, 1.0, 0.0])),
                     draw(st.sampled_from([0.05, 0.2, 0.0])), seed=draw(st.integers(0, 2 ** 16)))
    pool = np.random.default_rng(draw(st.integers(0, 2 ** 16))).choice(
        g.n, size=draw(st.integers(1, 2 * g.n)))  # with replacement
    alpha = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    sizes = {"n": draw(st.sampled_from([5, 20, 1, 2] if alpha == 1.0 else [5, 20, 200, 1, 2])),
             "seeds_per_label": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 2 ** 16))}
    return g, pool, sizes, {"walk_len": draw(st.integers(1, 5)), "alpha": alpha}


def labeled_pool(sizes, seed=0):
    labels = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
    vertices = np.arange(len(labels))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(labels))
    return vertices[perm], labels[perm]


class TestPps:
    def test_zipf_target(self):
        assert np.allclose(zipf_distribution(2, 1.0), [2 / 3, 1 / 3])

    def test_infinite_zipf_exponent_puts_all_mass_on_one_class(self):
        assert zipf_distribution(3, np.inf).tolist() == [1.0, 0.0, 0.0]

    def test_large_negative_zipf_exponent_does_not_overflow(self):
        # 5 ** 500 overflows; the weights were nan
        q = zipf_distribution(5, -500.0)
        assert np.isfinite(q).all() and q.sum() == 1.0 and q.argmax() == 4

    @pytest.mark.parametrize("exponent", [np.nan, -np.inf])
    def test_nan_or_minus_infinite_zipf_exponent_rejected(self, exponent):
        # both used to end in "ValueError: repeats may not contain negative values"
        v, y = labeled_pool([20, 20])
        with pytest.raises(ConfigError, match="zipf exponent"):
            sample_pps(v, y, num_classes=2, num_dists=1, n=10, zipf_exponent=exponent)

    def test_default_number_of_draws(self):
        v, y = labeled_pool([500, 500, 500, 500, 500, 500, 500])
        samples = sample_pps(v, y, num_classes=7, n=10, seed=1)
        assert len(samples) == 70

    def test_realized_counts_match_largest_remainder(self):
        v, y = labeled_pool([400, 400])
        samples = sample_pps(v, y, num_classes=2, num_dists=6, n=100, seed=2)
        for s in samples:
            counts = np.round(s.true_prev * 100).astype(int)
            assert sorted(counts) == [33, 67]
            assert not s.flagged

    def test_true_prev_is_realized_histogram(self):
        v, y = labeled_pool([50, 80, 30], seed=4)
        label_of = np.full(len(v), -1)
        label_of[v] = y
        for s in sample_pps(v, y, num_classes=3, num_dists=5, n=60, seed=3):
            hist = np.bincount(label_of[s.vertices], minlength=3) / len(s.vertices)
            assert np.array_equal(hist, s.true_prev)

    def test_shortfall_redistributes_and_fills(self):
        v, y = labeled_pool([5, 500], seed=5)
        samples = sample_pps(v, y, num_classes=2, num_dists=8, n=100, seed=6)
        for s in samples:
            assert len(s.vertices) == 100
            assert s.true_prev[0] <= 0.05 + 1e-12

    def test_exhausted_pool_flags_short_sample(self):
        v, y = labeled_pool([3, 4])
        (s,) = sample_pps(v, y, num_classes=2, num_dists=1, n=100, seed=7)
        assert len(s.vertices) == 7
        assert s.flagged

    def test_deterministic(self):
        v, y = labeled_pool([60, 60])
        a = sample_pps(v, y, num_classes=2, num_dists=4, n=30, seed=11)
        b = sample_pps(v, y, num_classes=2, num_dists=4, n=30, seed=11)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.vertices, s2.vertices)

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            sample_pps([], [], num_classes=2, seed=0)


class TestBfs:
    def test_star_collects_center_then_random_leaves(self):
        # center (label 0) plus 101 leaves (label 1); the center is the only
        # label-0 vertex so it becomes the single label-0 start
        edges = [(0, i) for i in range(1, 102)]
        labels = [0] + [1] * 101
        g = Graph.from_edges(102, edges, labels=labels)
        pool = np.arange(102)
        samples = sample_bfs(g, pool, g.labels, seeds_per_label=1, n=100, seed=0)
        center_sample = [s for s in samples if s.start == 0][0]
        assert len(center_sample.vertices) == 100
        assert center_sample.vertices[0] == 0
        assert not center_sample.flagged

    def test_small_component_flags_short_sample(self):
        g = Graph.from_edges(40, [(i, i + 1) for i in range(39)],
                             labels=[1] * 20 + [0] * 20)
        samples = sample_bfs(g, np.arange(40), g.labels, seeds_per_label=1, n=100, seed=1)
        for s in samples:
            assert len(s.vertices) == 40
            assert s.flagged

    def test_sample_stays_in_component(self):
        g = generate_sbm([30, 30], 0.3, 0.0, seed=2)
        comp = connected_components(g)
        samples = sample_bfs(g, np.arange(60), g.labels, seeds_per_label=3, n=10, seed=3)
        for s in samples:
            assert len(set(comp[s.vertices])) == 1

    def test_label_absent_from_pool_warns_and_skips(self):
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)], labels=[0, 0, 0, 0, 0, 2])
        pool = np.arange(5)  # label 2 vertex excluded, label 1 nonexistent
        with pytest.warns(UserWarning, match="absent"):
            samples = sample_bfs(g, pool, g.labels[pool], seeds_per_label=1, n=3,
                                 seed=0, num_classes=3)
        assert {s.params["label"] for s in samples} == {0}

    def test_eighty_samples_for_eight_labels(self):
        v, y = labeled_pool([60] * 8, seed=6)
        g = Graph.from_edges(480, [(i, (i + 1) % 480) for i in range(480)], labels=None)
        samples = sample_bfs(g, v, y, seeds_per_label=10, n=20, seed=4, num_classes=8)
        assert len(samples) == 80

    def test_deterministic(self):
        g = generate_sbm([40, 40], 0.2, 0.05, seed=5)
        a = sample_bfs(g, np.arange(80), g.labels, seeds_per_label=2, n=30, seed=9)
        b = sample_bfs(g, np.arange(80), g.labels, seeds_per_label=2, n=30, seed=9)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.vertices, s2.vertices)


class TestStartVertices:
    def test_bfs_and_rw_draw_the_same_starts(self):
        g = generate_sbm([15, 15, 15], 0.3, 0.02, seed=4)
        pool = np.arange(0, 45, 2)
        bfs = sample_bfs(g, pool, g.labels[pool], seeds_per_label=3, n=5, seed=9)
        rw = sample_rw(g, pool, g.labels[pool], seeds_per_label=3, n=5, seed=9)
        assert [(s.start, s.params["label"], s.params["sample"]) for s in bfs] \
            == [(s.start, s.params["label"], s.params["sample"]) for s in rw]
        assert all(g.labels[s.start] == s.params["label"] for s in bfs)

    def test_classes_inferred_from_pool_labels_without_graph_labels(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        for sampler in (sample_bfs, sample_rw):
            with pytest.warns(UserWarning, match="label 1 absent"):
                samples = sampler(g, [0, 1, 2, 3], [0, 0, 2, 2], seeds_per_label=1, n=2)
            assert [len(s.true_prev) for s in samples] == [3, 3]
            assert [s.params["label"] for s in samples] == [0, 2]

    @pytest.mark.filterwarnings("ignore:.*absent from the pool")
    @given(case=start_vertex_cases())
    @settings(max_examples=150, deadline=None)
    def test_samples_match_the_oracle_collectors(self, case):
        g, pool, sizes, walk = case
        for sampler, name, oracle, kwargs in [(sample_bfs, "_bfs_collect", oracle_bfs_collect, {}),
                                              (sample_rw, "_rw_collect", oracle_rw_collect, walk)]:
            actual = sampler(g, pool, g.labels[pool], **sizes, **kwargs)
            oracle_flags = []

            def collect(*args, oracle=oracle, **kw):
                vertices, flagged = oracle(*args, **kw)
                oracle_flags.append(flagged)
                return vertices
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(shift, name, collect)
                expected = sampler(g, pool, g.labels[pool], **sizes, **kwargs)
            assert len(actual) == len(expected) == len(oracle_flags)
            for a, e, flagged in zip(actual, expected, oracle_flags):
                assert a.vertices.dtype == e.vertices.dtype == np.int64
                assert np.array_equal(a.vertices, e.vertices)
                assert np.array_equal(a.true_prev, e.true_prev)
                assert (a.params, a.start, a.seed) == (e.params, e.start, e.seed)
                # the nested-walk RW flagged the full sample of an isolated start at n = 1
                full_isolated = g.degrees[a.start] == 0 and sizes["n"] == 1
                assert a.flagged == (flagged and not full_isolated)
                assert a.flagged == (len(a.vertices) < sizes["n"])

    @pytest.mark.parametrize("sampler", [sample_bfs, sample_rw])
    def test_isolated_start_with_n_one_is_full_and_unflagged(self, sampler):
        g = Graph.from_edges(3, [(1, 2)], labels=[0, 1, 1])
        samples = sampler(g, np.arange(3), g.labels, seeds_per_label=1, n=1, seed=2)
        iso = [s for s in samples if s.start == 0][0]
        assert list(iso.vertices) == [0]
        assert not iso.flagged


class TestRw:
    def test_two_vertex_path_visits_both(self):
        g = Graph.from_edges(2, [(0, 1)], labels=[0, 1])
        samples = sample_rw(g, np.arange(2), g.labels, seeds_per_label=1, n=2,
                            walk_len=10, alpha=0.1, seed=0)
        for s in samples:
            assert sorted(s.vertices) == [0, 1]
            assert not s.flagged

    def test_full_teleport_never_leaves_start(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], labels=[0, 1, 0, 1])
        samples = sample_rw(g, np.arange(4), g.labels, seeds_per_label=1, n=3,
                            walk_len=5, alpha=1.0, seed=1)
        for s in samples:
            assert list(s.vertices) == [s.start]
            assert s.flagged

    def test_isolated_start_flagged(self):
        g = Graph.from_edges(3, [(1, 2)], labels=[0, 1, 1])
        samples = sample_rw(g, np.arange(3), g.labels, seeds_per_label=1, n=5, seed=2)
        iso = [s for s in samples if s.start == 0][0]
        assert list(iso.vertices) == [0]
        assert iso.flagged

    def test_collects_distinct_pool_vertices(self):
        g = generate_sbm([50, 50], 0.3, 0.02, seed=3)
        pool = np.arange(0, 100, 2)
        samples = sample_rw(g, pool, g.labels[pool], seeds_per_label=2, n=15, seed=4)
        pool_set = set(pool.tolist())
        for s in samples:
            verts = s.vertices.tolist()
            assert len(set(verts)) == len(verts)
            assert set(verts) <= pool_set

    def test_walk_stops_once_it_has_seen_every_vertex_it_can_reach(self, monkeypatch):
        # components of 6, 2 and 2 vertices and n = 50: each walk ran all 50,000
        # steps of its budget; it now stops soon after 10 * 6 steps, 6 being the
        # pool size, with the sample it would have returned anyway
        g = Graph.from_edges(10, [(i, i + 1) for i in range(5)] + [(6, 7), (8, 9)],
                             labels=[0, 1] * 5)
        pool = np.array([0, 1, 3, 5, 6, 8])
        steps = []
        real = Graph.neighbors
        monkeypatch.setattr(Graph, "neighbors", lambda self, v: steps.append(v) or real(self, v))
        early = sample_rw(g, pool, g.labels[pool], seeds_per_label=1, n=50, walk_len=3,
                          alpha=0.1, seed=2)
        assert 0 < len(steps) <= 2 * shift.RW_REACH_CHECK_FACTOR * 50
        monkeypatch.setattr(shift, "RW_REACH_CHECK_FACTOR", shift.RW_STEP_BUDGET_FACTOR + 1)
        full = sample_rw(g, pool, g.labels[pool], seeds_per_label=1, n=50, walk_len=3,
                         alpha=0.1, seed=2)
        for a, b in zip(early, full, strict=True):
            assert np.array_equal(a.vertices, b.vertices) and a.flagged and b.flagged
            within = graph.bfs_distances(g, [a.start])[0] <= 3
            assert sorted(a.vertices) == [v for v in pool if within[v]]

    def test_reach_is_not_counted_while_the_walk_keeps_up(self, monkeypatch):
        def spy(*args):
            pytest.fail("a walk that found n vertices counted its component")
        monkeypatch.setattr(shift, "bfs_distances", spy)
        g = generate_sbm([40, 40], 0.2, 0.05, seed=6)
        samples = sample_rw(g, np.arange(80), g.labels, seeds_per_label=2, n=60, seed=8)
        assert all(len(s.vertices) == 60 and not s.flagged for s in samples)

    def test_huge_n_on_a_small_pool_counts_reach_after_ten_steps_per_pool_vertex(self, monkeypatch):
        # n = 10**6 and 6 pool vertices: each walk counted its reach only after
        # 10 * n = 10**7 steps, and now after 10 * 6
        g = Graph.from_edges(10, [(i, i + 1) for i in range(5)] + [(6, 7), (8, 9)],
                             labels=[0, 1] * 5)
        pool = np.array([0, 1, 3, 5, 6, 8])
        bound = 2 * 2 * shift.RW_REACH_CHECK_FACTOR * len(pool)  # two samples
        steps = []
        real = Graph.neighbors

        def spy(self, v):
            steps.append(v)
            if len(steps) > bound:
                pytest.fail(f"RW took more than {bound} steps on a pool of {len(pool)}")
            return real(self, v)
        monkeypatch.setattr(Graph, "neighbors", spy)
        samples = sample_rw(g, pool, g.labels[pool], seeds_per_label=1, n=10 ** 6, walk_len=3,
                            alpha=0.1, seed=2)
        for s in samples:
            within = graph.bfs_distances(g, [s.start])[0] <= 3
            assert s.flagged and sorted(s.vertices) == [v for v in pool if within[v]]

    def test_deterministic(self):
        g = generate_sbm([40, 40], 0.2, 0.05, seed=6)
        a = sample_rw(g, np.arange(80), g.labels, seeds_per_label=2, n=20, seed=8)
        b = sample_rw(g, np.arange(80), g.labels, seeds_per_label=2, n=20, seed=8)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.vertices, s2.vertices)


class TestPoolIds:
    """Every sampler's pool goes through check_vertex_ids; a bad id used to be
    sampled (BFS/RW: -2 came back in a sample) or silently kept (PPS: id 99
    on a 40-vertex graph)."""

    @pytest.mark.parametrize("sampler", [sample_bfs, sample_rw])
    @pytest.mark.parametrize("pool", [[-1, -2, 3, 4], [3, 4, 40], [0.0, 1.0]])
    def test_start_vertex_samplers_reject_bad_pool(self, sampler, pool):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
        with pytest.raises(DataError, match="sampling pool"):
            sampler(g, pool, np.zeros(len(pool), dtype=np.int64), seeds_per_label=1, n=3,
                    num_classes=2)

    @pytest.mark.parametrize("pool,match", [([0.5, 1.7, 2.2], "must be integers"),
                                            ([0, -1, 2], "negative vertex id -1")])
    def test_pps_rejects_bad_pool(self, pool, match):
        # called directly, PPS drew vertices [0 2] from the first pool
        with pytest.raises(DataError, match=f"PPS sampling pool: .*{match}"):
            sample_pps(pool, [0, 1, 1], 2, num_dists=1, n=2, seed=0)

    @pytest.mark.parametrize("sampler", [sample_bfs, sample_rw])
    def test_start_vertex_samplers_reject_empty_pool_before_inferring_classes(self, sampler):
        # without graph labels K comes from the pool labels; an empty pool
        # stops before that, so no sampler runs with K = 0
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DataError, match="sampling pool"):
            sampler(g, [], [], seeds_per_label=1, n=2)

    @pytest.mark.parametrize("kind", ["pps", "bfs", "rw"])
    def test_draw_samples_rejects_out_of_range_pool(self, kind):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
        pool = np.array([0, 1, 25, 99])
        with pytest.raises(DataError, match="vertex id 99 out of range for n=40"):
            draw_samples(ShiftConfig(name=kind, kind=kind, n=3, num_dists=2, seeds_per_label=1),
                         g, pool, np.array([0, 0, 1, 1]), seed=0, num_classes=2)


class TestPoolLabels:
    """The start-vertex samplers check pool labels like training labels. An
    unequal count used to raise IndexError or numpy's ValueError, 1.5 was
    truncated to class 1, label 2 with K=2 gave true prevalences of length 3,
    and -1 dropped the vertex from the pool (RW: numpy's ValueError). PPS keeps
    ignoring labels past K: criterion 08 draws two of three classes that way."""

    @pytest.mark.parametrize("labels,match", [([0, 1, 1], "one pool label per pool vertex"),
                                              ([0, 1, 1.5, 0], "integers"),
                                              ([0, -1, 1, 0], "negative")])
    def test_bad_pps_pool_labels_rejected(self, labels, match):
        # PPS used to raise IndexError, truncate 1.5 to class 1 and drop the -1 vertex
        g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
        with pytest.raises(DataError, match=match):
            draw_samples(ShiftConfig(name="pps", kind="pps", n=3, num_dists=2),
                         g, np.array([0, 1, 25, 30]), np.array(labels), seed=0, num_classes=2)

    def test_pps_ignores_labels_past_num_classes(self):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
        samples = draw_samples(ShiftConfig(name="pps", kind="pps", n=3, num_dists=4),
                               g, np.array([0, 1, 25, 30]), np.array([0, 1, 2, 0]),
                               seed=0, num_classes=2)
        assert all(25 not in s.vertices for s in samples)

    @pytest.mark.parametrize("kind", ["bfs", "rw"])
    @pytest.mark.parametrize("labels,match", [([1], "one pool label per pool vertex"),
                                              ([0, 1, 1], "one pool label per pool vertex"),
                                              ([0, 1, 1.5, 0], "integers"),
                                              ([0, 1, 2, 0], "out of range"),
                                              ([0, -1, 1, 0], "out of range")])
    def test_bad_pool_labels_rejected(self, kind, labels, match):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
        with pytest.raises(DataError, match=match):
            draw_samples(ShiftConfig(name=kind, kind=kind, n=3, num_dists=2, seeds_per_label=1),
                         g, np.array([0, 1, 25, 30]), np.array(labels), seed=0, num_classes=2)


class TestSamplerParameters:
    """Sizes below one are configuration errors, raised before any drawing: a
    walk length of 0 used to loop forever (the step budget never advanced), and
    other sizes failed inside numpy or gave empty or misleading results."""

    @pytest.mark.parametrize("walk_len", [0, -1])
    def test_rw_walk_len_below_one_rejected(self, walk_len):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
        with pytest.raises(ConfigError, match="walk_len >= 1"):
            sample_rw(g, np.arange(40), g.labels, seeds_per_label=1, n=3, walk_len=walk_len)

    @pytest.mark.parametrize("sampler", [sample_bfs, sample_rw])
    @pytest.mark.parametrize("n,seeds_per_label", [(0, 1), (-1, 1), (3, 0), (3, -2)])
    def test_start_vertex_sizes_below_one_rejected(self, sampler, n, seeds_per_label):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
        with pytest.raises(ConfigError, match="n >= 1 and seeds_per_label >= 1"):
            sampler(g, np.arange(40), g.labels, seeds_per_label=seeds_per_label, n=n)

    @pytest.mark.parametrize("n,num_dists", [(0, 2), (-1, 2), (3, 0), (3, -2)])
    def test_pps_sizes_below_one_rejected(self, n, num_dists):
        vertices, labels = labeled_pool([10, 10])
        with pytest.raises(ConfigError, match="n >= 1 and num_dists >= 1"):
            sample_pps(vertices, labels, 2, num_dists=num_dists, n=n)


class TestSbm:
    @pytest.mark.parametrize("blocks", [[], [-5, 30]])
    def test_empty_or_negative_blocks_rejected(self, blocks):
        with pytest.raises(ConfigError, match="non-negative sizes"):
            generate_sbm(blocks, 0.3, 0.05, seed=1)

    @pytest.mark.parametrize("block_labels", [[0, -1], [0]])
    def test_negative_or_missing_block_label_rejected(self, block_labels):
        # a negative label reached Graph and was a data error
        with pytest.raises(ConfigError, match="one non-negative label per block"):
            generate_sbm([3, 3], 0.3, 0.05, block_labels=block_labels, seed=1)

    def test_vertex_total_past_the_limit_rejected_before_the_graph_is_built(self, monkeypatch):
        # the label array and the edge draw came first; at the real limit that
        # asks numpy for gigabytes, so the limit is lowered here
        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        assert generate_sbm([5, 5], 0.3, 0.05, seed=1).n == 10

        def spy(*args, **kwargs):
            pytest.fail("Graph.from_edges reached with too many vertices")
        monkeypatch.setattr(Graph, "from_edges", spy)
        with pytest.raises(DataError, match="vertex limit"):
            generate_sbm([6, 5], 0.3, 0.05, seed=1)

    def test_disjoint_triangles(self):
        g = generate_sbm([3, 3], 1.0, 0.0, seed=0)
        assert g.num_edges == 6
        assert list(connected_components(g)) == [0, 0, 0, 1, 1, 1]
        assert list(g.labels) == [0, 0, 0, 1, 1, 1]

    def test_empty_graph(self):
        g = generate_sbm([5, 5], 0.0, 0.0, seed=1)
        assert g.num_edges == 0

    def test_intra_block_density_concentrates(self):
        g = generate_sbm([200, 200], 0.05, 0.002, seed=2)
        within = 0
        for v in range(200):
            within += np.sum(g.neighbors(v) < 200)
        pairs = 200 * 199 / 2
        density = within / 2 / pairs
        sd = np.sqrt(0.05 * 0.95 / pairs)
        assert abs(density - 0.05) < 3 * sd

    def test_block_labels_override(self):
        g = generate_sbm([2, 2, 2], 0.0, 0.0, block_labels=[0, 1, 0], seed=3)
        assert list(g.labels) == [0, 0, 1, 1, 0, 0]

    def test_deterministic(self):
        a = generate_sbm([30, 30], 0.1, 0.01, seed=4)
        b = generate_sbm([30, 30], 0.1, 0.01, seed=4)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("blocks, seed", [([1, 63, 64], 1), ([65, 130], 2),
                                              ([130, 1, 64, 65], 3), ([500] * 4, 7)])
    def test_row_chunks_draw_the_dense_graph(self, blocks, seed):
        g = generate_sbm(blocks, 0.2, 0.05, seed=seed)
        expected = dense_draw_sbm(blocks, 0.2, 0.05, seed)
        assert np.array_equal(g.indptr, expected.indptr)
        assert np.array_equal(g.indices, expected.indices)
        assert np.array_equal(g.labels, expected.labels)


def dense_draw_sbm(blocks, p_in, p_out, seed):
    """The planted-partition graph with one dense b_i x b_j draw per block pair:
    the construction generate_sbm replaced, and its oracle."""
    offsets = np.cumsum([0] + blocks)
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            mask = rng.random((blocks[i], blocks[j])) < (p_in if i == j else p_out)
            us, vs = np.nonzero(np.triu(mask, k=1) if i == j else mask)
            edges.append(np.column_stack([us + offsets[i], vs + offsets[j]]))
    labels = np.repeat(np.arange(len(blocks)), blocks)
    return Graph.from_edges(sum(blocks), np.concatenate(edges), labels=labels)


class TestSerialization:
    def test_round_trip_sections(self, tmp_path):
        g = generate_sbm([30, 30], 0.2, 0.05, seed=7)
        samples = sample_rw(g, np.arange(60), g.labels, seeds_per_label=2, n=10, seed=5)
        path = tmp_path / "samples.txt"
        save_samples(samples, path)
        sections = load_sample_sections(path, g.n)
        assert len(sections) == len(samples)
        for (header, vertices), s in zip(sections, samples):
            assert header["sampler"] == s.sampler
            assert int(header["seed"]) == s.seed
            assert int(header["n"]) == len(s.vertices)
            assert np.array_equal(vertices, s.vertices)

    def test_byte_reproducible_under_seed(self, tmp_path):
        g = generate_sbm([40, 40], 0.15, 0.02, seed=8)
        blobs = []
        for run in range(2):
            samples = sample_pps(np.arange(80), g.labels, num_classes=2,
                                 num_dists=4, n=20, seed=13)
            path = tmp_path / f"s{run}.txt"
            save_samples(samples, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @settings(max_examples=300, deadline=None)
    @given(lines=samples_file_lines(), newline=NEWLINES)
    def test_load_accepts_and_rejects_like_line_oracle(self, tmp_path_factory, lines, newline):
        path = tmp_path_factory.mktemp("samples") / "samples.txt"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        got = outcome(load_sample_sections, path, 10)
        want = outcome(load_sample_sections_by_line, path, 10)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, list) and len(got) == len(want), got
            for (got_fields, got_ids), (want_fields, want_ids) in zip(got, want):
                assert got_fields == want_fields
                assert got_ids.dtype == np.int64 and np.array_equal(got_ids, want_ids)

    def test_header_token_without_value_is_data_error(self, tmp_path):
        # raised a ValueError from dict(), exit code 3
        path = tmp_path / "samples.txt"
        path.write_text("sampler=rw,seed=1\n3\nsampler=rw,oops\n4\n")
        with pytest.raises(DataError, match=r"samples.txt:3: expected 'key=value,...'"):
            load_sample_sections(path, 10)

    def test_manifest(self, tmp_path):
        g = generate_sbm([20, 20], 0.2, 0.05, seed=9)
        samples = sample_bfs(g, np.arange(40), g.labels, seeds_per_label=1, n=10, seed=6)
        save_samples(samples, tmp_path / "samples.txt")
        write_manifest(samples, tmp_path / "manifest.csv", tmp_path / "samples.txt")
        lines = (tmp_path / "manifest.csv").read_text().strip().splitlines()
        assert lines[0].startswith("section,sampler,seed,start,size,flagged")
        assert len(lines) == len(samples) + 1
