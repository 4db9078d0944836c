import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant.classifiers import (enq_predict, label_prop_predict, load_predictions,
                                    save_predictions)
from graphquant.errors import DataError
from graphquant.estimation import PredictionSet
from graphquant.graph import Graph

from test_graph import (ODD_INTS, SWEEP_CHARS, outcome, patch_int_parse_via_float,
                        small_graphs)


def load_predictions_by_line(path, n, K):
    """Line-by-line predictions parser: the oracle for load_predictions."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            rows.append((lineno, line.split(",")))
    if len(rows) != n:
        raise DataError(f"{path}: expected {n} prediction rows, got {len(rows)}")
    if n == 0:
        return PredictionSet.from_hard(np.empty(0, dtype=np.int64), K)
    arity = len(rows[0][1])
    if arity == 1:
        hard = np.empty(n, dtype=np.int64)
        for idx, (lineno, toks) in enumerate(rows):
            if len(toks) != 1:
                raise DataError(f"{path}:{lineno}: expected a single label")
            try:
                hard[idx] = int(toks[0])
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected an integer label, got {toks[0]!r}")
            if not 0 <= hard[idx] < K:
                raise DataError(f"{path}:{lineno}: label {hard[idx]} out of range for K={K}")
        return PredictionSet.from_hard(hard, K)
    if arity != K:
        raise DataError(f"{path}: rows must have 1 or {K} columns, got {arity}")
    soft = np.empty((n, K))
    for idx, (lineno, toks) in enumerate(rows):
        if len(toks) != K:
            raise DataError(f"{path}:{lineno}: expected {K} columns, got {len(toks)}")
        try:
            row = np.asarray([float(t) for t in toks])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric probability")
        if not np.isfinite(row).all():
            raise DataError(f"{path}:{lineno}: non-finite probability")
        if row.min() < 0:
            raise DataError(f"{path}:{lineno}: negative probability")
        s = row.sum()
        if abs(s - 1.0) > 1e-6:
            raise DataError(f"{path}:{lineno}: probabilities sum to {s:.8f}, not 1")
        if abs(s - 1.0) > 1e-12:
            row = row / s
        soft[idx] = row
    return PredictionSet.from_soft(soft)


@st.composite
def soft_row(draw, K):
    """K probabilities, sometimes off the simplex by 1e-9 or 1e-5, negative,
    non-numeric, non-finite, padded with blanks or with a column too many or
    too few."""
    weights = draw(st.lists(st.integers(0, 9), min_size=K, max_size=K))
    weights[0] += 1
    probs = [w / sum(weights) for w in weights]
    probs[0] += draw(st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 1e-5, -2.0]))
    toks = [repr(p) for p in probs]
    edit = draw(st.sampled_from(["none", "none", "none", "pad", "abc", "nan", "extra", "drop"]))
    if edit == "pad":
        toks = [f" {t}\t" for t in toks]
    elif edit == "abc":
        toks[-1] = "abc"
    elif edit == "nan":
        toks[-1] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif edit == "extra":
        toks.append("0.0")
    elif edit == "drop":
        toks.pop()
    return ",".join(toks)


@st.composite
def prediction_files(draw):
    """(lines, n, K) for a hard or soft predictions file with blank lines and
    malformed rows mixed in, and hard rows that np.loadtxt and int() parse
    differently; n is sometimes off by one."""
    K = draw(st.integers(2, 4))
    if draw(st.booleans()):
        row = st.sampled_from(["0", "1", str(K - 1), str(K), "-1", " 1 ", "x", "1.0", "0,1"]
                              + ODD_INTS)
    else:
        row = soft_row(K)
    rows = draw(st.lists(st.one_of(row, row, row, st.sampled_from(["", "  ", "\t"])),
                         max_size=8))
    n = sum(bool(r.strip()) for r in rows) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return rows, max(n, 0), K


def add_at_enq_predict(g, train_vertices, train_labels, K):
    """enq_predict with its counts summed by np.add.at: the body the bincount
    version replaced, and its oracle."""
    label_of = np.full(g.n, -1, dtype=np.int64)
    label_of[train_vertices] = train_labels
    src, dst = g.edge_arrays()
    labeled = label_of[dst] >= 0
    counts = np.zeros((g.n, K))
    np.add.at(counts, (src[labeled], label_of[dst[labeled]]), 1.0)
    totals = counts.sum(axis=1)
    global_hist = np.bincount(train_labels, minlength=K) / len(train_labels)
    soft = np.where(totals[:, None] > 0, counts / np.maximum(totals, 1.0)[:, None],
                    global_hist[None, :])
    return PredictionSet.from_soft(soft)


class TestEnq:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), g=small_graphs(), K=st.integers(2, 4))
    def test_bit_identical_to_add_at_oracle(self, data, g, K):
        train = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n))
        labels = data.draw(st.lists(st.integers(0, K - 1), min_size=len(train),
                                    max_size=len(train)))
        got = enq_predict(g, train, labels, num_classes=K)
        expected = add_at_enq_predict(g, np.asarray(train), np.asarray(labels), K)
        assert np.array_equal(got.soft, expected.soft)
        assert np.array_equal(got.hard, expected.hard)

    @pytest.mark.parametrize("fit", [enq_predict, label_prop_predict])
    @pytest.mark.parametrize("train", [[-1], [4], [1.5]])
    def test_bad_training_ids_rejected(self, fit, train):
        # [-1] used to label vertex 3, [4] raised IndexError, [1.5] labelled vertex 1
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(DataError):
            fit(g, train, [1], num_classes=2)

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
    def test_train_label_out_of_range_rejected(self, labels):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(DataError):
            enq_predict(g, [0, 1], labels, num_classes=2)

    def test_labeled_neighbor_histogram(self):
        # vertex 0 has labeled neighbors of classes {0, 0, 1}
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        preds = enq_predict(g, [1, 2, 3], [0, 0, 1], num_classes=2)
        assert np.allclose(preds.soft[0], [2 / 3, 1 / 3])
        assert preds.hard[0] == 0

    def test_isolated_vertex_gets_global_histogram(self):
        g = Graph.from_edges(3, [(0, 1)])
        preds = enq_predict(g, [0, 1], [0, 1], num_classes=2)
        assert np.allclose(preds.soft[2], [0.5, 0.5])
        assert preds.hard[2] == 0  # tie breaks to the lowest index

    def test_single_class_training(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        preds = enq_predict(g, [0, 1, 2, 3], [1, 1, 1, 1], num_classes=2)
        assert np.array_equal(preds.hard, [1, 1, 1, 1])

    def test_unlabeled_neighbors_ignored(self):
        # vertex 0 neighbors: labeled 1 (class 1) and unlabeled 2
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        preds = enq_predict(g, [1], [1], num_classes=2)
        assert np.array_equal(preds.soft[0], [0.0, 1.0])

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(0)
        g = Graph.from_edges(30, [(i, (i + 1) % 30) for i in range(30)])
        train = rng.choice(30, size=10, replace=False)
        preds = enq_predict(g, train, rng.integers(0, 3, size=10), num_classes=3)
        assert np.abs(preds.soft.sum(axis=1) - 1.0).max() < 1e-9
        assert np.array_equal(preds.hard, np.argmax(preds.soft, axis=1))

    def test_empty_training_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(DataError):
            enq_predict(g, [], [], num_classes=2)


PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestTrainLabels:
    @pytest.mark.parametrize("fit", [enq_predict, label_prop_predict])
    def test_label_count_mismatch_rejected(self, fit):
        # a single label used to be broadcast: class 1 for every vertex
        with pytest.raises(DataError, match="one train label per train vertex"):
            fit(PATH4, [0, 3], [1], num_classes=2)

    def test_negative_label_rejected_not_wrapped(self):
        # label propagation used to wrap -1 to class 1
        with pytest.raises(DataError, match="out of range"):
            label_prop_predict(PATH4, [0, 3], [0, -1], num_classes=2)

    def test_label_past_num_classes_rejected(self):
        # label propagation used to raise IndexError
        with pytest.raises(DataError, match="out of range"):
            label_prop_predict(PATH4, [0, 3], [0, 2], num_classes=2)

    @pytest.mark.parametrize("fit", [enq_predict, label_prop_predict])
    def test_fractional_label_rejected(self, fit):
        # 1.7 used to be truncated to class 1
        with pytest.raises(DataError, match="integers"):
            fit(PATH4, [0, 3], [0, 1.7], num_classes=2)


class TestLabelProp:
    def test_zero_iterations_is_initialization(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        preds = label_prop_predict(g, [0], [1], iterations=0, num_classes=2)
        assert np.array_equal(preds.soft[0], [0.0, 1.0])
        assert np.allclose(preds.soft[1], [0.5, 0.5])

    def test_symmetric_midpoint(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        preds = label_prop_predict(g, [0, 2], [0, 1], iterations=200, num_classes=2)
        assert np.allclose(preds.soft[1], [0.5, 0.5], atol=1e-9)

    def test_train_vertices_stay_clamped(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        train = [0, 2, 4]
        labels = [0, 1, 0]
        preds = label_prop_predict(g, train, labels, iterations=37, num_classes=2)
        assert np.array_equal(preds.hard[train], labels)
        for v, y in zip(train, labels):
            assert preds.soft[v, y] == 1.0

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(1)
        edges = [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.2]
        g = Graph.from_edges(20, edges)
        preds = label_prop_predict(g, [0, 1, 2], [0, 1, 2], iterations=13, num_classes=3)
        assert np.abs(preds.soft.sum(axis=1) - 1.0).max() < 1e-9
        assert preds.soft.min() >= 0.0

    def test_deterministic(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        a = label_prop_predict(g, [0, 5], [0, 1], iterations=10, num_classes=2)
        b = label_prop_predict(g, [0, 5], [0, 1], iterations=10, num_classes=2)
        assert np.array_equal(a.soft, b.soft)


class TestPredictionFiles:
    def test_hard_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1\n0\n")
        preds = load_predictions(path, n=2, K=2)
        assert list(preds.hard) == [1, 0]
        assert preds.soft is None

    def test_soft_rows_argmax(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.7,0.3\n0.2,0.8\n")
        preds = load_predictions(path, n=2, K=2)
        assert np.allclose(preds.soft[0], [0.7, 0.3])
        assert list(preds.hard) == [0, 1]

    def test_non_simplex_row_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.5,0.6\n0.5,0.5\n")
        with pytest.raises(DataError, match=":1"):
            load_predictions(path, n=2, K=2)

    def test_small_drift_renormalized(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.5000001,0.5\n0.5,0.5\n")
        preds = load_predictions(path, n=2, K=2)
        assert preds.soft[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_probability_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        # a NaN row passes both the negativity and the row-sum check
        path.write_text("0.5,0.5\nnan,nan\n")
        with pytest.raises(DataError, match=":2: non-finite probability"):
            load_predictions(path, n=2, K=2)
        path.write_text("inf,0\n0.5,0.5\n")
        with pytest.raises(DataError, match=":1: non-finite probability"):
            load_predictions(path, n=2, K=2)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1\n")
        with pytest.raises(DataError):
            load_predictions(path, n=2, K=2)

    def test_arity_mismatch(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.5,0.3,0.2\n0.1,0.8,0.1\n")
        with pytest.raises(DataError):
            load_predictions(path, n=2, K=2)

    def test_out_of_range_hard_label(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0\n5\n")
        with pytest.raises(DataError, match=":2"):
            load_predictions(path, n=2, K=2)

    def test_hard_label_parsed_via_float_rejected(self, tmp_path, monkeypatch):
        patch_int_parse_via_float(monkeypatch)
        path = tmp_path / "p.csv"
        path.write_text("0\n1.5\n")
        with pytest.raises(DataError, match=r":2: expected an integer label"):
            load_predictions(path, n=2, K=2)

    def test_hard_label_misread_by_loadtxt_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0\n1\u01fe\n", encoding="utf-8")  # np.loadtxt reads 472
        with pytest.raises(DataError, match=r":2: expected an integer label, got '1\u01fe'"):
            load_predictions(path, n=2, K=500)

    @pytest.mark.parametrize("line,K", [("{}", 500), ("0,{}", 2)], ids=["hard", "soft"])
    def test_every_character_parsed_like_line_oracle(self, tmp_path, line, K):
        path = tmp_path / "p.csv"
        for c in SWEEP_CHARS:
            for token in (c, "1" + c, c + "1", "1" + c + "1"):
                path.write_text(line.format(token) + "\n", encoding="utf-8")
                got = outcome(load_predictions, path, 1, K)
                want = outcome(load_predictions_by_line, path, 1, K)
                if isinstance(want, str):
                    assert got == want, repr(token)
                else:
                    assert not isinstance(got, str), (repr(token), got)
                    assert np.array_equal(got.hard, want.hard), repr(token)
                    assert (got.soft is None) == (want.soft is None), repr(token)
                    if want.soft is not None:
                        assert np.array_equal(got.soft, want.soft), repr(token)

    @settings(max_examples=300, deadline=None)
    @given(case=prediction_files())
    def test_accepts_and_rejects_like_line_oracle(self, tmp_path_factory, case):
        lines, n, K = case
        path = tmp_path_factory.mktemp("preds") / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        got = outcome(load_predictions, path, n, K)
        want = outcome(load_predictions_by_line, path, n, K)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got.K == want.K and np.array_equal(got.hard, want.hard)
            assert (got.soft is None) == (want.soft is None)
            if want.soft is not None:
                assert np.array_equal(got.soft, want.soft)

    def test_round_trip_soft(self, tmp_path):
        rng = np.random.default_rng(2)
        soft = rng.dirichlet(np.ones(3), size=10)
        from graphquant.estimation import PredictionSet
        preds = PredictionSet.from_soft(soft)
        save_predictions(preds, tmp_path / "p.csv")
        loaded = load_predictions(tmp_path / "p.csv", n=10, K=3)
        assert np.array_equal(loaded.soft, preds.soft)
        assert np.array_equal(loaded.hard, preds.hard)

    def test_round_trip_hard(self, tmp_path):
        from graphquant.estimation import PredictionSet
        preds = PredictionSet.from_hard([0, 2, 1, 1], K=3)
        save_predictions(preds, tmp_path / "p.csv")
        loaded = load_predictions(tmp_path / "p.csv", n=4, K=3)
        assert np.array_equal(loaded.hard, preds.hard)
