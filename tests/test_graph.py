import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant import graph
from graphquant.errors import ConfigError, DataError
from graphquant.graph import (Graph, _parse_edge_file, _parse_features_file,
                              _parse_labels_file, bfs_distances, check_count, check_vertex_ids,
                              load_graph, save_graph)


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


BLANK_LINES = st.sampled_from(["", "   ", "\t", " \t "])
# tokens that np.loadtxt parses otherwise than int() and float(): it skips
# \x1c-\x1f as blanks and reads '1\u01fe' as 472, and int() reads '\u0661' as 1
ODD_INTS = ["1\x1c", "1\u01fe", "\u0661"]
NEWLINES = st.sampled_from(["\n", "\r\n"])
# every ASCII character but the line breaks, and a few non-ASCII ones: digits,
# blanks and a line separator
SWEEP_CHARS = ([chr(c) for c in range(1, 128) if chr(c) not in "\n\r"]
               + ["\u01fe", "\u0661", "\x85", "\xa0", "\u2028"])


@st.composite
def edge_file_lines(draw):
    """Edge-file lines mixing valid pairs with comments, blank lines, tabs,
    negative ids, wrong column counts, non-integer tokens and tokens that
    np.loadtxt and int() parse differently."""
    token = st.sampled_from(["0", "1", "3", "17", "+2", "-1", "x", "1.5", "07"] + ODD_INTS)
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    pair = st.tuples(token, sep, token).map("".join)
    line = st.one_of(
        pair, pair, pair,
        st.lists(token, min_size=1, max_size=4).flatmap(
            lambda toks: sep.map(lambda s: s.join(toks))),
        st.sampled_from(["", "   ", "\t", "# header", "#"]),
        st.tuples(pair, st.sampled_from([" # note", "#x", "\t# 1 2 3"])).map("".join))
    return draw(st.lists(line, max_size=8))


@st.composite
def labels_file_lines(draw):
    """Labels-file lines mixing integers (signed, zero-padded, padded with blanks)
    with blank lines, comments, two labels on a line, non-integer tokens and
    tokens that np.loadtxt and int() parse differently."""
    label = st.sampled_from(["0", "1", "2", "17", "+2", "-1", "07", " 3 ", "\t1", "1\t"]
                            + ODD_INTS)
    bad = st.sampled_from(["x", "1.5", "1e3", "# c", "1 2", "0x1", "2,1"])
    return draw(st.lists(st.one_of(label, label, label, BLANK_LINES, bad), max_size=8))


@st.composite
def features_file_lines(draw):
    """(lines, n) for a features file: rows of reals mixed with blank lines, a
    column too many or too few, non-numeric, empty and commented tokens, and
    tokens that np.loadtxt and float() parse differently; n is sometimes off by
    one."""
    width = draw(st.integers(1, 3))
    value = st.sampled_from(["0.5", "1", "-2.25", "1e-3", " 3.5 ", "\t7", "+4", ".5", "nan",
                             "inf", "-inf"] + ODD_INTS)
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
    """Level-synchronous Python BFS: the oracle for bfs_distances. Hop counts as
    floats, inf where there is no path."""
    dist = np.full(g.n, np.inf)
    dist[s] = 0
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] == np.inf:
                    dist[w] = d
                    nxt.append(int(w))
        frontier = nxt
    return dist


def as_distances(hops):
    """A bfs_distances hop block as floats, inf where it marks no path."""
    return np.where(hops == np.iinfo(hops.dtype).max, np.inf, hops.astype(np.float64))


def smallest_vertex_first_components(g):
    """Component ids numbered in order of each component's smallest vertex."""
    comp = np.full(g.n, -1, dtype=np.int64)
    next_id = 0
    for v in range(g.n):
        if comp[v] == -1:
            comp[np.isfinite(frontier_bfs(g, v))] = next_id
            next_id += 1
    return comp


def connected_components(g):
    """Component ids from scipy's csgraph, numbered in order of each component's
    smallest vertex: the component oracle of the graph and sampler tests."""
    from scipy.sparse.csgraph import connected_components as components

    return components(g.adjacency_csr(), directed=False)[1].astype(np.int64)


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

    def test_edge_id_misread_by_loadtxt_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\n0 1\u01fe\n", encoding="utf-8")  # np.loadtxt reads 472
        with pytest.raises(DataError, match=r"e\.txt:2: non-integer vertex id in '0 1\u01fe'"):
            load_graph(path)

    def test_label_misread_by_loadtxt_rejected(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("0\n1\u01fe\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"y\.txt:2: expected an integer label, got '1\u01fe'"):
            _parse_labels_file(path)

    def test_ids_and_features_read_as_int_and_float_do(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 \u0661\n", encoding="utf-8")
        (tmp_path / "x.txt").write_text("0.5,\u0661\n0.5,2\n", encoding="utf-8")
        edges = _parse_edge_file(tmp_path / "e.txt")
        assert edges.dtype == np.int64 and edges.tolist() == [[0, 1]]
        assert _parse_features_file(tmp_path / "x.txt", 2).tolist() == [[0.5, 1.0], [0.5, 2.0]]

    def test_value_past_int64_rejected_naming_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\n1 99999999999999999999\n")
        with pytest.raises(DataError, match=r"e\.txt:2: value out of range"):
            _parse_edge_file(path)

    @pytest.mark.parametrize("parse,oracle,line", [
        (_parse_edge_file, parse_edges_by_line, "0 {}"),
        (_parse_labels_file, parse_labels_by_line, "{}"),
        (lambda path: _parse_features_file(path, 1), lambda path: parse_features_by_line(path, 1),
         "0.5,{}"),
    ], ids=["edges", "labels", "features"])
    def test_every_character_parsed_like_line_oracle(self, tmp_path, parse, oracle, line):
        path = tmp_path / "f.txt"
        for c in SWEEP_CHARS:
            for token in (c, "1" + c, c + "1", "1" + c + "1"):
                path.write_text(line.format(token) + "\n", encoding="utf-8")
                got, want = outcome(parse, path), outcome(oracle, path)
                if isinstance(want, str):
                    assert got == want, repr(token)
                else:
                    assert isinstance(got, np.ndarray), (repr(token), got)
                    assert got.dtype == want.dtype and got.size == want.size, repr(token)
                    assert np.array_equal(got.ravel(), want.ravel(), equal_nan=True), repr(token)


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

    def test_bool_among_integers_rejected(self):
        # numpy reads a list that mixes bools into integers as the integers 0 and 1
        with pytest.raises(DataError, match="must be integers"):
            check_vertex_ids([0, True], 4, "ids")
        with pytest.raises(DataError, match="must be integers"):
            Graph.from_edges(4, [(0, 1), (1, False)])


class TestVertexLimit:
    def test_more_than_2_to_the_31_vertices_rejected_before_allocating(self):
        # Graph.from_edges keys an edge as u << 32 | v; 10**12 vertices used to end
        # in a MemoryError for the n + 1 row offsets
        with pytest.raises(DataError, match="vertex limit of 2\\*\\*31"):
            Graph.from_edges(10 ** 12, [(0, 1)])

    def test_vertex_index_past_free_memory_rejected_before_allocating(self, monkeypatch):
        # an id near 2*10**9 below the limit made from_edges build an indptr of
        # about 16 GB; free memory is set here, so no test asks for that much
        monkeypatch.setattr(graph, "available_memory", lambda: 2 ** 30)
        assert Graph.from_edges(4, [(0, 1), (2, 3)]).num_edges == 2
        with pytest.raises(DataError, match="2000000001 vertices need 29.8 GiB for the vertex "
                                            "index, more than the 1.0 GiB of free memory"):
            Graph.from_edges(2 * 10 ** 9 + 1, [(0, 1)])
        monkeypatch.setattr(graph, "available_memory", lambda: 16 * 5 - 1)
        with pytest.raises(DataError, match="free memory"):
            Graph.from_edges(4, [(0, 1)])

    def test_no_memory_figure_means_no_memory_check(self, monkeypatch):
        monkeypatch.setattr(graph, "available_memory", lambda: None)
        assert Graph.from_edges(4, [(0, 1)]).n == 4


def is_whole_oracle(value) -> bool:
    """An integer or a finite float or fraction equal to its floor; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        return False
    return math.isfinite(value) and value == math.floor(value)


class TestCheckCount:
    @given(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.floats(), st.booleans(),
                     st.fractions(), st.text(max_size=3), st.none(),
                     st.integers(-5, 5).map(float),
                     # fractions whose nearest float is a whole number
                     st.builds(Fraction, st.integers(2 ** 53, 2 ** 64), st.integers(1, 4))),
           st.integers(-2, 2))
    def test_accepts_exactly_the_whole_numbers_at_or_above_minimum(self, value, minimum):
        if is_whole_oracle(value) and value >= minimum:
            count = check_count(value, "count", minimum)
            assert type(count) is int and count == value
        else:
            with pytest.raises(ConfigError, match="count must be a whole number"):
                check_count(value, "count", minimum)

    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.float64(3.0)])
    def test_numpy_scalars_accepted(self, value):
        assert check_count(value, "count") == 3 and type(check_count(value, "count")) is int

    @pytest.mark.parametrize("value", [np.bool_(True), np.array(3), [3]])
    def test_numpy_bools_and_arrays_rejected(self, value):
        with pytest.raises(ConfigError):
            check_count(value, "count")


class TestBfs:
    def test_path_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert bfs_distances(g, [0]).tolist() == [[0, 1, 2]]

    def test_unreachable_sentinel(self):
        g = Graph.from_edges(2, [])
        assert bfs_distances(g, [0]).tolist() == [[0, 255]]

    def test_source_out_of_range(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(DataError):
            bfs_distances(g, [2])

    def test_matches_floyd_warshall_oracle(self):
        g = random_graph(30, 0.2, seed=7)
        assert np.array_equal(as_distances(bfs_distances(g, range(g.n))), floyd_warshall(g))

    @pytest.mark.parametrize("sources", [[-1], [1.7, 2.2], [0.0], ["x"], [[0, 1]]])
    def test_bad_sources_rejected(self, sources):
        # fractional ids used to be truncated to vertex ids
        with pytest.raises(DataError):
            bfs_distances(random_graph(20, 0.2, seed=3), sources)

    def test_no_sources(self):
        hops = bfs_distances(random_graph(5, 0.5, seed=1), [])
        assert hops.shape == (0, 5) and hops.dtype == np.uint8

    def test_block_is_uint8_and_contiguous(self):
        hops = bfs_distances(random_graph(12, 0.3, seed=2), np.array([5, 0, 5]))
        assert hops.shape == (3, 12) and hops.dtype == np.uint8 and hops.flags.c_contiguous
        assert np.array_equal(hops[0], hops[2])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), g=small_graphs())
    def test_any_source_list_matches_frontier_oracle(self, data, g):
        vertex = st.integers(0, g.n - 1)
        # subsets in any order, lists with repeats, and no sources at all
        sources = data.draw(st.one_of(st.lists(vertex, unique=True),
                                      st.lists(vertex, max_size=2 * g.n),
                                      st.just([])))
        hops = bfs_distances(g, sources)
        assert hops.shape == (len(sources), g.n) and hops.dtype == np.uint8
        for s, row in zip(sources, hops):
            assert np.array_equal(as_distances(row), frontier_bfs(g, s))

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs())
    def test_bit_identical_to_frontier_oracle(self, g):
        hops = bfs_distances(g, range(g.n))
        assert np.array_equal(as_distances(hops),
                              np.stack([frontier_bfs(g, s) for s in range(g.n)]))

    @pytest.mark.parametrize("num_sources", [1, 63, 64, 65, 130])
    def test_word_boundaries_match_frontier_oracle(self, num_sources):
        # 3 random components, 2 paths and 10 isolated vertices: 150 vertices in all
        parts = [random_graph(40, 0.08, seed=s) for s in range(3)]
        edges, offset = [], 0
        for part in parts:
            src, dst = part.edge_arrays()
            edges += [(u + offset, v + offset) for u, v in zip(src, dst)]
            offset += part.n
        edges += [(v, v + 1) for v in range(120, 129)] + [(v, v + 1) for v in range(130, 139)]
        g = Graph.from_edges(150, edges)
        # even vertices with repeats, the first one isolated
        sources = np.random.default_rng(num_sources).choice(75, num_sources) * 2
        sources[0] = 148
        hops = bfs_distances(g, sources)
        assert hops.dtype == np.uint8
        assert np.array_equal(as_distances(hops), np.stack([frontier_bfs(g, s) for s in sources]))

    def test_long_path_widens_to_uint16(self):
        g = Graph.from_edges(300, [(v, v + 1) for v in range(299)])
        hops = bfs_distances(g, [0, 299, 150])
        assert hops.dtype == np.uint16
        assert hops[0].tolist() == list(range(300))
        assert hops[1].tolist() == list(range(299, -1, -1))
        # no path is the uint16 maximum after widening
        g = Graph.from_edges(301, [(v, v + 1) for v in range(299)])
        hops = bfs_distances(g, [0, 300])
        assert hops.dtype == np.uint16
        assert hops[0, 299] == 299 and hops[0, 300] == np.iinfo(np.uint16).max
        assert hops[1].tolist() == [65535] * 300 + [0]

    def test_longest_path_below_255_stays_uint8(self):
        g = Graph.from_edges(255, [(v, v + 1) for v in range(254)])
        hops = bfs_distances(g, [0])
        assert hops.dtype == np.uint8 and hops[0].tolist() == list(range(255))

    def test_matches_matrix_power_reachability(self):
        g = random_graph(25, 0.1, seed=11)
        a = g.adjacency_csr().toarray()
        dist = as_distances(bfs_distances(g, [0])[0])
        power = np.eye(g.n)
        for ell in range(1, g.n + 1):
            power = power @ a
            newly = (power[0] > 0) & (dist > ell - 1) & np.isfinite(dist)
            for v in np.nonzero(newly)[0]:
                assert dist[v] <= ell
        # and every finite distance is witnessed by a walk of that length
        power = np.eye(g.n)
        for ell in range(1, int(dist[np.isfinite(dist)].max()) + 1):
            power = power @ a
            for v in np.nonzero(dist == ell)[0]:
                assert power[0, v] > 0


class TestComponents:
    """The csgraph component oracle, checked against BFS and union-find."""

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
