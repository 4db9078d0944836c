"""Shifted test-set samplers, the uniform split protocol, and a synthetic
planted-partition graph generator.

All samplers are pure functions of their seed: the same arguments always
produce identical samples. Ground truth for every sample is the realized
label histogram of the drawn vertices, never the target distribution.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .classifiers import check_labels
from .errors import ConfigError, DataError
from .graph import (Graph, bfs_distances, check_count, check_label_array, check_real,
                    check_vertex_ids, check_vertex_total, read_text, write_csv)

DEFAULT_SAMPLE_SIZE = 100
DEFAULT_SEEDS_PER_LABEL = 10
DEFAULT_ZIPF_EXPONENT = 1.0
DEFAULT_RW_WALK_LEN = 10
DEFAULT_RW_ALPHA = 0.1
RW_STEP_BUDGET_FACTOR = 1000  # steps allowed per requested sample vertex
RW_REACH_CHECK_FACTOR = 10    # steps per vertex of min(n, pool size) before RW counts its reach
SBM_CHUNK_ROWS = 64           # rows of a block pair drawn at once by generate_sbm


@dataclass(frozen=True)
class SplitSpec:
    classifier_train: np.ndarray
    quantifier_train: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class ShiftSample:
    vertices: np.ndarray        # sampled vertex ids (duplicates permitted)
    true_prev: np.ndarray       # realized label histogram of the vertices
    sampler: str
    seed: int
    params: dict = field(default_factory=dict)
    start: int | None = None    # seed vertex for BFS/RW samples
    flagged: bool = False       # fewer vertices than the n asked for


def largest_remainder_counts(total: int, shares) -> np.ndarray:
    """Integer counts summing to `total` that apportion it by the given shares."""
    shares = np.asarray(shares, dtype=np.float64)
    exact = total * shares
    counts = np.floor(exact).astype(np.int64)
    leftover = int(round(total - counts.sum()))
    if leftover > 0:
        remainders = exact - counts
        # ties break to the lowest index: stable argsort on negated remainders
        order = np.argsort(-remainders, kind="stable")
        counts[order[:leftover]] += 1
    return counts


def uniform_split(g: Graph, fractions, seed: int) -> SplitSpec:
    """Seeded uniformly random partition into classifier-train / quantifier-train
    / test at the given fractions (largest-remainder rounding)."""
    rule = "split fractions (three finite non-negatives summing to 1)"
    fractions = np.asarray(fractions, dtype=object)
    if fractions.shape == (3,):
        fractions = np.array([check_real(f, f"{rule}: each", "[0, 1]") for f in fractions])
    if fractions.shape != (3,) or abs(fractions.sum() - 1.0) > 1e-9:
        raise ConfigError(f"{rule}: got {fractions.tolist()}")
    sizes = largest_remainder_counts(g.n, fractions)
    perm = np.random.default_rng(check_count(seed, "split seed")).permutation(g.n)
    c, q = sizes[0], sizes[0] + sizes[1]
    return SplitSpec(classifier_train=np.sort(perm[:c]),
                     quantifier_train=np.sort(perm[c:q]),
                     test=np.sort(perm[q:]))


def _realized_prev(labels_of_sample: np.ndarray, num_classes: int) -> np.ndarray:
    return np.bincount(labels_of_sample, minlength=num_classes) / len(labels_of_sample)


def zipf_distribution(num_classes: int, exponent: float) -> np.ndarray:
    """Zipf mass function over ranks 1..K: q_i proportional to i^-exponent.
    An exponent of +inf puts all mass on rank 1; NaN and -inf are rejected."""
    exponent = check_real(exponent, "zipf exponent", "(-inf, inf]")
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        weights = ranks ** (-exponent)
    if np.isinf(weights).any():  # a large negative exponent: ranks scaled to at most 1
        weights = (ranks / num_classes) ** (-exponent)
    return weights / weights.sum()


def sample_pps(pool_vertices, pool_labels, num_classes: int, num_dists=None,
               n: int = DEFAULT_SAMPLE_SIZE, zipf_exponent: float = DEFAULT_ZIPF_EXPONENT,
               seed: int = 0) -> list[ShiftSample]:
    """Prior-probability-shift samples: draw target label distributions from a
    Zipf law (random label permutation per draw), then fill per-class quotas by
    uniform sampling without replacement inside each class of the pool.

    If a class cannot fill its quota, the deficit is redistributed to the
    remaining classes proportionally to their targets and the sample is
    flagged if it still comes up short. Pool vertex ids must be non-negative
    integers (there is no graph to bound them), and pool labels non-negative
    integers, one per pool vertex; labels >= num_classes are never drawn.
    """
    pool_vertices = check_vertex_ids(pool_vertices, np.iinfo(np.int64).max, "PPS sampling pool",
                                     nonempty=True)
    pool_labels = check_label_array(pool_vertices, pool_labels, what="pool")
    num_classes = check_count(num_classes, "PPS sampling num_classes", 1)
    sizes = "PPS sampling (n >= 1 and num_dists >= 1)"
    n = check_count(n, f"{sizes}: n", 1)
    num_dists = check_count(10 * num_classes if num_dists is None else num_dists,
                            f"{sizes}: num_dists", 1)
    seed = check_count(seed, "PPS sampling seed")
    base = zipf_distribution(num_classes, zipf_exponent)
    by_class = [pool_vertices[pool_labels == i] for i in range(num_classes)]
    capacity = np.asarray([len(c) for c in by_class])
    samples = []
    for idx in range(num_dists):
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        target = base[rng.permutation(num_classes)]
        counts = largest_remainder_counts(n, target)
        counts = _cap_and_redistribute(counts, capacity, target, n)
        chosen = [rng.choice(by_class[i], size=counts[i], replace=False)
                  for i in range(num_classes) if counts[i] > 0]
        vertices = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
        labels = np.repeat(np.arange(num_classes), counts)
        samples.append(ShiftSample(
            vertices=vertices, true_prev=_realized_prev(labels, num_classes),
            sampler="pps", seed=seed,
            params={"sample": idx, "n": n, "zipf_exponent": zipf_exponent,
                    "target": tuple(np.round(target, 12))},
            flagged=len(vertices) < n))
    return samples


def _cap_and_redistribute(counts: np.ndarray, capacity: np.ndarray,
                          target: np.ndarray, requested: int) -> np.ndarray:
    """Cap per-class counts at pool capacity and hand the deficit to classes
    with spare vertices, proportionally to their target shares."""
    counts = np.minimum(counts, capacity)
    deficit = requested - int(counts.sum())
    while deficit > 0:
        spare = capacity - counts
        open_classes = np.nonzero(spare > 0)[0]
        if len(open_classes) == 0:
            break  # pool exhausted; the sample stays short and gets flagged
        shares = target[open_classes]
        if shares.sum() <= 0:
            shares = np.ones(len(open_classes))
        add = largest_remainder_counts(deficit, shares / shares.sum())
        add = np.minimum(add, spare[open_classes])
        counts[open_classes] += add
        deficit = requested - int(counts.sum())
    return counts


def _start_vertex_samples(sampler: str, g: Graph, pool_vertices, pool_labels,
                          seeds_per_label: int, n: int, seed: int, num_classes, collect,
                          params: dict) -> list[ShiftSample]:
    """The start-vertex loop shared by the BFS and RW samplers: per label, pick
    up to seeds_per_label start vertices of that label from the pool, and build
    one sample of up to n vertices from each with
    collect(g, in_pool, start, n, rng) -> vertices.

    Labels absent from the pool are skipped with a warning.
    """
    sizes = f"{sampler.upper()} sampling (n >= 1 and seeds_per_label >= 1)"
    n = check_count(n, f"{sizes}: n", 1)
    seeds_per_label = check_count(seeds_per_label, f"{sizes}: seeds_per_label", 1)
    seed = check_count(seed, f"{sampler.upper()} sampling seed")
    pool_vertices = check_vertex_ids(pool_vertices, g.n, f"{sampler.upper()} sampling pool",
                                     nonempty=True)
    pool_labels, K = check_labels(g, pool_vertices, pool_labels, num_classes, what="pool")
    in_pool = np.zeros(g.n, dtype=bool)
    in_pool[pool_vertices] = True
    label_lookup = np.full(g.n, -1, dtype=np.int64)
    label_lookup[pool_vertices] = pool_labels
    samples = []
    for label in range(K):
        members = pool_vertices[pool_labels == label]
        if len(members) == 0:
            warnings.warn(f"{sampler.upper()} sampler: label {label} absent from the pool, skipped")
            continue
        rng_starts = np.random.default_rng(np.random.SeedSequence([seed, 0, label]))
        starts = rng_starts.choice(members, size=min(seeds_per_label, len(members)),
                                   replace=False)
        for start in starts:
            idx = len(samples)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 1, idx]))
            collected = collect(g, in_pool, int(start), n, rng)
            samples.append(ShiftSample(
                vertices=collected, true_prev=_realized_prev(label_lookup[collected], K),
                sampler=sampler, seed=seed,
                params={"sample": idx, "seeds_per_label": seeds_per_label, "n": n, **params,
                        "label": label},
                start=int(start), flagged=len(collected) < n))
    return samples


def sample_bfs(g: Graph, pool_vertices, pool_labels, seeds_per_label: int = DEFAULT_SEEDS_PER_LABEL,
               n: int = DEFAULT_SAMPLE_SIZE, seed: int = 0, num_classes=None) -> list[ShiftSample]:
    """Breadth-first covariate-shift samples: per label, pick start vertices of
    that label, then collect the first n pool vertices in BFS order from each
    start (each depth level visited in seeded-random order).

    Samples from components with fewer than n pool vertices are shorter and
    flagged; labels absent from the pool are skipped.
    """
    return _start_vertex_samples("bfs", g, pool_vertices, pool_labels, seeds_per_label, n, seed,
                                 num_classes, _bfs_collect, {})


def _bfs_collect(g: Graph, in_pool: np.ndarray, start: int, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    visited = np.zeros(g.n, dtype=bool)
    visited[start] = True
    collected, frontier = [], [start]
    while frontier:
        collected += [v for v in frontier if in_pool[v]][:n - len(collected)]
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
    return np.asarray(collected, dtype=np.int64)


def sample_rw(g: Graph, pool_vertices, pool_labels, seeds_per_label: int = DEFAULT_SEEDS_PER_LABEL,
              n: int = DEFAULT_SAMPLE_SIZE, walk_len: int = DEFAULT_RW_WALK_LEN,
              alpha: float = DEFAULT_RW_ALPHA, seed: int = 0, num_classes=None) -> list[ShiftSample]:
    """Random-walk covariate-shift samples: per start vertex, run teleporting
    walks of walk_len steps (teleport back to the start with probability alpha)
    until n distinct pool vertices have been visited or the step budget of
    1000*n runs out (then flagged). A walk still short of n after 10*m steps,
    m the smaller of n and the pool size, counts, once, the pool vertices its
    walks can reach (those in the start's component within walk_len hops), and
    stops, flagged, once it has visited all of them.
    """
    alpha = check_real(alpha, "RW sampling alpha", "[0, 1]")
    walk_len = check_count(walk_len, "RW sampling (walk_len >= 1): walk_len", 1)
    return _start_vertex_samples("rw", g, pool_vertices, pool_labels, seeds_per_label, n, seed,
                                 num_classes, partial(_rw_collect, walk_len=walk_len, alpha=alpha),
                                 {"walk_len": walk_len, "alpha": alpha})


def _rw_collect(g: Graph, in_pool: np.ndarray, start: int, n: int, rng: np.random.Generator,
                walk_len: int, alpha: float) -> np.ndarray:
    seen = {start: None}  # the pool vertices visited, in the order first visited
    reach_at = RW_REACH_CHECK_FACTOR * min(n, np.count_nonzero(in_pool))
    limit = n  # min(n, the pool vertices the walks can reach), once those are counted
    for step in range(RW_STEP_BUDGET_FACTOR * n if g.degrees[start] else 0):
        if step == reach_at and len(seen) < n:
            hops = bfs_distances(g, [start])[0]  # its maximum marks no path
            radius = walk_len if alpha < 1.0 else 0  # alpha 1 teleports back every step
            limit = min(n, np.count_nonzero(
                in_pool & (hops < min(radius + 1, np.iinfo(hops.dtype).max))))
        if len(seen) == limit:
            break
        if rng.random() < alpha:
            current = start
        else:  # a new walk sets out from the start every walk_len steps
            nbrs = g.neighbors(start if step % walk_len == 0 else current)
            current = int(nbrs[rng.integers(len(nbrs))])
        if in_pool[current]:
            seen[current] = None
    return np.array(list(seen), dtype=np.int64)


def generate_sbm(blocks, p_in: float, p_out: float, block_labels=None, seed: int = 0) -> Graph:
    """Planted-partition random graph: intra-block edges with probability p_in,
    inter-block with p_out; vertex labels follow their block (or an explicit
    block-to-label assignment)."""
    if len(blocks) == 0:
        raise ConfigError(f"blocks must be one or more non-negative sizes, got {blocks}")
    blocks = [check_count(b, f"blocks (one or more non-negative sizes): blocks[{i}]")
              for i, b in enumerate(blocks)]
    p_in = check_real(p_in, "SBM p_in", "[0, 1]")
    p_out = check_real(p_out, "SBM p_out", "[0, 1]")
    if block_labels is None:
        block_labels = range(len(blocks))
    if len(block_labels) != len(blocks):
        raise ConfigError(f"block_labels must be one non-negative label per block, "
                          f"got {block_labels}")
    block_labels = [check_count(y, f"block_labels (one non-negative label per block): "
                                   f"block_labels[{i}]") for i, y in enumerate(block_labels)]
    n = check_vertex_total(sum(blocks))
    offsets = np.cumsum([0] + blocks)
    labels = np.concatenate([np.full(b, lab, dtype=np.int64)
                             for b, lab in zip(blocks, block_labels)])
    rng = np.random.default_rng(check_count(seed, "SBM seed"))
    edge_chunks = []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            p = p_in if i == j else p_out
            if p == 0.0 or blocks[i] == 0 or blocks[j] == 0:
                continue
            # the b_i x b_j draw in chunks of SBM_CHUNK_ROWS rows: the same random
            # stream, without a dense float64 array per block pair
            for r0 in range(0, blocks[i], SBM_CHUNK_ROWS):
                mask = rng.random((min(SBM_CHUNK_ROWS, blocks[i] - r0), blocks[j])) < p
                if i == j:  # the upper triangle of the whole block, k=1
                    mask = np.triu(mask, k=1 + r0)
                us, vs = np.nonzero(mask)
                if len(us):
                    edge_chunks.append(np.column_stack([us + offsets[i] + r0,
                                                        vs + offsets[j]]))
    edges = np.concatenate(edge_chunks) if edge_chunks else np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(n, edges, labels=labels)


def save_samples(samples: list[ShiftSample], path) -> None:
    """Write samples as sections: a header line per sample followed by one
    vertex id per line."""
    lines = []
    for s in samples:
        fields = [f"sampler={s.sampler}", f"seed={s.seed}", f"n={len(s.vertices)}",
                  f"flagged={int(s.flagged)}"]
        if s.start is not None:
            fields.append(f"start={s.start}")
        for key, val in sorted(s.params.items()):
            fields.append(f"{key}={_fmt_param(val)}")
        lines.append(",".join(fields))
        lines.extend(str(int(v)) for v in s.vertices)
    Path(path).write_text("".join(line + "\n" for line in lines))


def _fmt_param(val):
    if isinstance(val, tuple):
        return "|".join(repr(float(x)) for x in val)
    return str(val)


# a line holding '=' is a sample header; every other non-blank line is one vertex id
_HEADER_LINE = re.compile(r"^(.*=.*)$", re.MULTILINE)


def load_sample_sections(path, n: int) -> list[tuple[dict, np.ndarray]]:
    """Parse a samples file back into (header fields, vertex ids) sections;
    ids must lie in 0..n-1. The ids of every section are views into one array."""
    # [text before the first header, header 1, its id lines, header 2, ...]
    text = read_text(path)
    parts = _HEADER_LINE.split(text)
    try:
        if parts[0].strip():
            raise ValueError("vertex id before any sample header")
        headers = [dict(tok.split("=", 1) for tok in header.strip().split(","))
                   for header in parts[1::2]]
        bodies = [list(filter(str.strip, body.split("\n"))) for body in parts[2::2]]
        # np.array parses each non-blank line as int() does
        ids = np.array([line for body in bodies for line in body], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise _sample_line_error(path, text, exc) from None
    sections = np.split(ids, np.cumsum([len(body) for body in bodies])[:-1])
    try:
        check_vertex_ids(ids, n, f"{path}: samples")
    except DataError:
        for i, section in enumerate(sections):  # name the first sample with a bad id
            check_vertex_ids(section, n, f"{path}: sample {i}")
        raise
    return list(zip(headers, sections))


def _sample_line_error(path, text: str, exc) -> DataError:
    """The error for the first line of a rejected samples file with contents
    `text` that is neither a 'key=value,...' header nor one vertex id after a
    header; the file is only scanned line by line here."""
    seen_header = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" in line:
            seen_header = True
            if not all("=" in tok for tok in line.split(",")):
                return DataError(f"{path}:{lineno}: expected 'key=value,...', got {line!r}")
        elif not seen_header:
            return DataError(f"{path}:{lineno}: vertex id before any sample header")
        else:
            try:
                int(line)
            except ValueError:
                return DataError(f"{path}:{lineno}: expected a vertex id, got {line!r}")
    return DataError(f"{path}: {exc}")


def write_manifest(samples: list[ShiftSample], manifest_path, samples_path) -> None:
    """One CSV row per sample of a run, pointing back into the samples file."""
    write_csv(manifest_path, ["section", "sampler", "seed", "start", "size", "flagged",
                              "params", "file"],
              ((i, s.sampler, s.seed, s.start, len(s.vertices), int(s.flagged),
                tuple(f"{k}={_fmt_param(v)}" for k, v in sorted(s.params.items())),
                str(samples_path)) for i, s in enumerate(samples)))
