import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant.errors import DataError
from graphquant.graph import (Graph, UNREACHABLE, _parse_edge_file, _parse_features_file,
                              _parse_labels_file, bfs_distances, check_vertex_ids,
                              connected_components, load_graph, save_graph)


def random_graph(n, p, seed, labels=False):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, k=1)
    us, vs = np.nonzero(mask)
    edges = np.column_stack([us, vs])
    labs = rng.integers(0, 3, size=n) if labels else None
    if labs is not None and labs.max() == 0:
        labs[0] = 1
    return Graph.from_edges(n, edges, labels=labs)


@st.composite
def small_graphs(draw, max_n=24):
    """Random small graphs with isolated vertices and several components:
    edges only join vertices in the same residue class mod `parts`, and the
    last `isolated` vertices get no edges at all."""
    n = draw(st.integers(1, max_n))
    parts = draw(st.integers(1, 4))
    live = n - draw(st.integers(0, n // 3))
    vertex = st.integers(0, max(live - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return Graph.from_edges(n, [(u, v) for u, v in pairs if u % parts == v % parts])


def unique_rows_csr(n, edges):
    """CSR arrays by row-wise np.unique over both directions: the oracle for
    Graph.from_edges."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    both = np.concatenate([edges, edges[:, ::-1]], axis=0)
    if both.size:
        both = np.unique(both, axis=0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, both[:, 0] + 1, 1)
    return np.cumsum(indptr), both[:, 1].astype(np.int64)


def parse_edges_by_line(path):
    """Line-by-line edge parser: the oracle for _parse_edge_file."""
    edges = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer vertex id in {raw.strip()!r}")
            if u < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: negative vertex id")
            edges.append((u, v))
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def parse_labels_by_line(path):
    """Line-by-line labels parser: the oracle for _parse_labels_file."""
    labels = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected an integer label, got {line!r}")
    return np.asarray(labels, dtype=np.int64)


def parse_features_by_line(path, n):
    """Line-by-line features parser: the oracle for _parse_features_file."""
    rows = []
    arity = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric feature value")
            if arity is None:
                arity = len(row)
            elif len(row) != arity:
                raise DataError(f"{path}:{lineno}: expected {arity} columns, got {len(row)}")
            rows.append(row)
    if len(rows) != n:
        raise DataError(f"features file has {len(rows)} rows, expected {n}")
    return np.asarray(rows, dtype=np.float64)


def outcome(parse, *args):
    """The parsed value, or the message of the DataError the parser raised."""
    try:
        return parse(*args)
    except DataError as exc:
        return str(exc)


def patch_int_parse_via_float(monkeypatch):
    """Make np.loadtxt behave like numpy versions that parse an integer token
    such as '1.5' through float: truncate it, with only a DeprecationWarning."""
    loadtxt = np.loadtxt

    def via_float(fname, dtype=float, **kwargs):
        values = loadtxt(fname, dtype=np.float64, **kwargs)
        if np.dtype(dtype).kind == "i" and (values != np.trunc(values)).any():
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        return values.astype(dtype)
    monkeypatch.setattr(np, "loadtxt", via_float)


@st.composite
def edge_file_lines(draw):
    """Edge-file lines mixing valid pairs with comments, blank lines, tabs,
    negative ids, wrong column counts and non-integer tokens."""
    token = st.sampled_from(["0", "1", "3", "17", "+2", "-1", "x", "1.5", "07"])
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    pair = st.tuples(token, sep, token).map("".join)
    line = st.one_of(
        pair, pair, pair,
        st.lists(token, min_size=1, max_size=4).flatmap(
            lambda toks: sep.map(lambda s: s.join(toks))),
        st.sampled_from(["", "   ", "\t", "# header", "#"]),
        st.tuples(pair, st.sampled_from([" # note", "#x", "\t# 1 2 3"])).map("".join))
    return draw(st.lists(line, max_size=8))


BLANK_LINES = st.sampled_from(["", "   ", "\t", " \t "])
NEWLINES = st.sampled_from(["\n", "\r\n"])


@st.composite
def labels_file_lines(draw):
    """Labels-file lines mixing integers (signed, zero-padded, padded with blanks)
    with blank lines, comments, two labels on a line and non-integer tokens."""
    label = st.sampled_from(["0", "1", "2", "17", "+2", "-1", "07", " 3 ", "\t1", "1\t"])
    bad = st.sampled_from(["x", "1.5", "1e3", "# c", "1 2", "0x1", "2,1"])
    return draw(st.lists(st.one_of(label, label, label, BLANK_LINES, bad), max_size=8))


@st.composite
def features_file_lines(draw):
    """(lines, n) for a features file: rows of reals mixed with blank lines, a
    column too many or too few, non-numeric, empty and commented tokens; n is
    sometimes off by one."""
    width = draw(st.integers(1, 3))
    value = st.sampled_from(["0.5", "1", "-2.25", "1e-3", " 3.5 ", "\t7", "+4", ".5", "nan",
                             "inf", "-inf"])
    bad = st.sampled_from(["x", "", "1.5.2", "# c", "1 2"])
    token = st.one_of(value, value, value, value, bad)
    row = st.integers(width - 1, width + 1).flatmap(
        lambda k: st.lists(token, min_size=max(k, 1), max_size=max(k, 1)).map(",".join))
    lines = draw(st.lists(st.one_of(row, row, row, BLANK_LINES), max_size=8))
    n = sum(bool(line.strip()) for line in lines) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return lines, max(n, 0)


def write_lines(tmp_path_factory, name, lines, newline):
    path = tmp_path_factory.mktemp("files") / name
    path.write_bytes(newline.join(lines).encode("utf-8"))
    return path


def frontier_bfs(g, s):
    """Level-synchronous Python BFS: the oracle for bfs_distances."""
    dist = np.full(g.n, UNREACHABLE, dtype=np.int32)
    dist[s] = 0
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] == UNREACHABLE:
                    dist[w] = d
                    nxt.append(int(w))
        frontier = nxt
    return dist


def smallest_vertex_first_components(g):
    """Component ids numbered in order of each component's smallest vertex."""
    comp = np.full(g.n, -1, dtype=np.int64)
    next_id = 0
    for v in range(g.n):
        if comp[v] == -1:
            comp[frontier_bfs(g, v) != UNREACHABLE] = next_id
            next_id += 1
    return comp


def floyd_warshall(g):
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    src, dst = g.edge_arrays()
    d[src, dst] = 1.0
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


class TestConstruction:
    def test_symmetrization_collapses_duplicates(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\n1 0\n1 2\n")
        g = load_graph(path)
        assert g.n == 3
        assert g.num_edges == 2
        assert list(g.neighbors(1)) == [0, 2]

    def test_self_loop_dropped(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 0\n")
        g = load_graph(path)
        assert g.n == 1
        assert g.num_edges == 0

    def test_round_trip_identity(self, tmp_path):
        g = random_graph(50, 0.1, seed=3, labels=True)
        save_graph(g, tmp_path / "e.txt", labels_path=tmp_path / "y.txt")
        g2 = load_graph(tmp_path / "e.txt", labels_path=tmp_path / "y.txt")
        assert g2.n == g.n
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
        assert np.array_equal(g2.labels, g.labels)

    def test_round_trip_features(self, tmp_path):
        rng = np.random.default_rng(4)
        base = random_graph(20, 0.2, seed=4)
        g = Graph(n=base.n, indptr=base.indptr, indices=base.indices,
                  features=rng.normal(size=(20, 3)))
        save_graph(g, tmp_path / "e.txt", features_path=tmp_path / "x.txt")
        g2 = load_graph(tmp_path / "e.txt", features_path=tmp_path / "x.txt")
        assert np.array_equal(g2.features, g.features)

    def test_degree_sum_is_twice_edge_count(self):
        for seed in range(5):
            g = random_graph(40, 0.15, seed=seed)
            assert g.degrees.sum() == 2 * g.num_edges

    def test_neighbor_lists_sorted_unique(self):
        g = Graph.from_edges(4, [(2, 1), (1, 2), (3, 1), (1, 0)])
        assert list(g.neighbors(1)) == [0, 2, 3]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), data=st.data())
    def test_from_edges_bit_identical_to_unique_oracle(self, n, data):
        # self-loops, reversed pairs and duplicates all occur
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4 * n))
        repeats = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
        pairs += [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(repeats)]
        g = Graph.from_edges(n, pairs)
        indptr, indices = unique_rows_csr(n, pairs)
        assert g.indptr.dtype == indptr.dtype and g.indices.dtype == indices.dtype
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)

    @settings(max_examples=200, deadline=None)
    @given(lines=edge_file_lines(), newline=st.sampled_from(["\n", "\r\n"]))
    def test_edge_parser_accepts_and_rejects_like_line_oracle(self, tmp_path_factory, lines,
                                                               newline):
        path = tmp_path_factory.mktemp("edges") / "e.txt"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        got, want = outcome(_parse_edge_file, path), outcome(parse_edges_by_line, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(lines=labels_file_lines(), newline=NEWLINES)
    def test_labels_parser_accepts_and_rejects_like_line_oracle(self, tmp_path_factory, lines,
                                                                 newline):
        path = write_lines(tmp_path_factory, "y.txt", lines, newline)
        got, want = outcome(_parse_labels_file, path), outcome(parse_labels_by_line, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(case=features_file_lines(), newline=NEWLINES)
    def test_features_parser_accepts_and_rejects_like_line_oracle(self, tmp_path_factory, case,
                                                                   newline):
        lines, n = case
        path = write_lines(tmp_path_factory, "x.txt", lines, newline)
        got, want = outcome(_parse_features_file, path, n), outcome(parse_features_by_line, path, n)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            if want.size == 0:  # a file without rows: shape (0, 1) here, (0,) from the oracle
                assert got.shape == (0, 1)
            else:
                assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\nbogus line here\n")
        with pytest.raises(DataError, match=":2"):
            load_graph(path)

    def test_int_parsed_via_float_rejected(self, tmp_path, monkeypatch):
        patch_int_parse_via_float(monkeypatch)
        path = tmp_path / "e.txt"
        path.write_text("0 1\n2 1.5\n")
        with pytest.raises(DataError, match=r":2: non-integer vertex id"):
            load_graph(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# header\n0 1  # inline\n\n1\t2\n")
        g = load_graph(path)
        assert g.num_edges == 2

    def test_label_out_of_range_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "y.txt").write_text("0\n-1\n")
        with pytest.raises(DataError):
            load_graph(tmp_path / "e.txt", labels_path=tmp_path / "y.txt")

    def test_feature_row_count_mismatch(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.txt").write_text("1.0,2.0\n")
        with pytest.raises(DataError):
            load_graph(tmp_path / "e.txt", features_path=tmp_path / "x.txt")

    def test_labels_file_fixes_vertex_count(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "y.txt").write_text("0\n1\n0\n1\n")
        g = load_graph(tmp_path / "e.txt", labels_path=tmp_path / "y.txt")
        assert g.n == 4
        assert g.degrees[3] == 0


class TestCheckVertexIds:
    def test_valid_ids_pass_through(self):
        ids = check_vertex_ids([3, 0, 3], 4, "ids")
        assert ids.dtype == np.int64 and list(ids) == [3, 0, 3]
        assert list(check_vertex_ids(["2", " 1"], 4, "ids")) == [2, 1]

    @pytest.mark.parametrize("ids", [[-1], [4], [0, 99], [0.5], ["abc"], [[0, 1]], [True]])
    def test_bad_ids_rejected(self, ids):
        with pytest.raises(DataError):
            check_vertex_ids(ids, 4, "ids")

    def test_empty(self):
        assert check_vertex_ids([], 4, "ids").shape == (0,)
        with pytest.raises(DataError):
            check_vertex_ids([], 4, "ids", nonempty=True)


class TestBfs:
    def test_path_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        (row,) = bfs_distances(g, [0])
        assert list(row.dist) == [0, 1, 2]

    def test_unreachable_sentinel(self):
        g = Graph.from_edges(2, [])
        (row,) = bfs_distances(g, [0])
        assert row.dist[0] == 0
        assert row.dist[1] == UNREACHABLE

    def test_source_out_of_range(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(DataError):
            bfs_distances(g, [2])

    def test_matches_floyd_warshall_oracle(self):
        g = random_graph(30, 0.2, seed=7)
        oracle = floyd_warshall(g)
        for row in bfs_distances(g, range(g.n)):
            got = np.where(row.dist == UNREACHABLE, np.inf, row.dist.astype(float))
            assert np.array_equal(got, oracle[row.source])

    @pytest.mark.parametrize("sources", [[-1], [1.7, 2.2], [0.0], ["x"], [[0, 1]]])
    def test_bad_sources_rejected(self, sources):
        # fractional ids used to be truncated to vertex ids
        with pytest.raises(DataError):
            bfs_distances(random_graph(20, 0.2, seed=3), sources)

    def test_no_sources(self):
        assert bfs_distances(random_graph(5, 0.5, seed=1), []) == []

    def test_rows_are_int32_and_contiguous(self):
        rows = bfs_distances(random_graph(12, 0.3, seed=2), np.array([5, 0, 5]))
        assert [r.source for r in rows] == [5, 0, 5]
        for row in rows:
            assert row.dist.dtype == np.int32 and row.dist.flags.c_contiguous

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), g=small_graphs())
    def test_any_source_list_matches_frontier_oracle(self, data, g):
        vertex = st.integers(0, g.n - 1)
        # subsets in any order, lists with repeats, and no sources at all
        sources = data.draw(st.one_of(st.lists(vertex, unique=True),
                                      st.lists(vertex, max_size=2 * g.n),
                                      st.just([])))
        rows = bfs_distances(g, sources)
        assert [r.source for r in rows] == sources
        for row in rows:
            expected = frontier_bfs(g, row.source)
            assert row.dist.dtype == expected.dtype
            assert np.array_equal(row.dist, expected)

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs())
    def test_bit_identical_to_frontier_oracle(self, g):
        rows = bfs_distances(g, range(g.n))
        assert [r.source for r in rows] == list(range(g.n))
        for row in rows:
            expected = frontier_bfs(g, row.source)
            assert row.dist.dtype == expected.dtype
            assert np.array_equal(row.dist, expected)

    def test_matches_matrix_power_reachability(self):
        g = random_graph(25, 0.1, seed=11)
        a = g.adjacency_csr().toarray()
        (row,) = bfs_distances(g, [0])
        reach = np.eye(g.n)
        power = np.eye(g.n)
        for ell in range(1, g.n + 1):
            power = power @ a
            newly = (power[0] > 0) & (row.dist > ell - 1) & (row.dist != UNREACHABLE)
            for v in np.nonzero(newly)[0]:
                assert row.dist[v] <= ell
        # and every finite distance is witnessed by a walk of that length
        power = np.eye(g.n)
        for ell in range(1, int(row.dist[row.dist != UNREACHABLE].max()) + 1):
            power = power @ a
            for v in np.nonzero(row.dist == ell)[0]:
                assert power[0, v] > 0


class TestComponents:
    def test_empty_graph(self):
        g = Graph.from_edges(3, [])
        assert list(connected_components(g)) == [0, 1, 2]

    def test_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert list(connected_components(g)) == [0, 0, 0]

    def test_triangle_plus_isolated(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert list(connected_components(g)) == [0, 0, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs())
    def test_smallest_vertex_first_labelling(self, g):
        comp = connected_components(g)
        assert comp.dtype == np.int64
        assert np.array_equal(comp, smallest_vertex_first_components(g))

    def test_union_find_oracle(self):
        g = random_graph(60, 0.03, seed=13)
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        src, dst = g.edge_arrays()
        for u, v in zip(src, dst):
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                parent[ru] = rv
        comp = connected_components(g)
        roots = [find(v) for v in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                assert (comp[u] == comp[v]) == (roots[u] == roots[v])
        assert set(comp) == set(range(comp.max() + 1))
