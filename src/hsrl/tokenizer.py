"""Offline semantic-ID construction.

Learns L level-wise codebooks by residual-quantization k-means: cluster
the current residuals, subtract each point's nearest centroid, recurse.
Determinism is enforced three ways: seeded k-means++ initialization,
lexicographic canonical ordering of centroid rows after fitting (k-means
label order is arbitrary), and fitting on a lexicographically sorted copy
of the data so the learned centroids do not depend on catalog order.
Nearest-centroid ties resolve to the lowest token index.

`codebook.bin` (little-endian): magic "HSRLCB1\\0", u32 levels L, u32 dim,
L u32 vocab sizes, per level a (T_l, dim) float64 row-major centroid block,
u64 item count, then per item in ascending id order a u64 id and L u16
tokens. Centroids are finite, ids unique and within int64, and tokens below
their level's vocab size, so save(load(f)) is byte-identical to f.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import int_ids
from .checkpoint import BinaryReader, read_lines, write_atomic
from .errors import (ContractError, DataError, FormatError, ShapeError,
                     UnknownItemError, VocabTooLargeError)

KMEANS_MAX_ITERS = 100
KMEANS_REL_TOL = 1e-6
# Points per nearest-centroid block: bounds the (rows, T) screen arrays.
NEAREST_BLOCK_ROWS = 1024

CODEBOOK_MAGIC = b"HSRLCB1\x00"
# The codebook file stores each token in a uint16 field.
MAX_VOCAB_SIZE = 0xFFFF


def _int64_ids(ids, error: type[Exception]) -> np.ndarray:
    """`ids` as int64; `error` names the first that is no item id (`int_ids`)."""
    arr, bad = int_ids(ids)
    if bad:
        raise error(f"item id {bad[1]} is not an integer within int64")
    return arr


@dataclass
class ItemEmbeddings:
    """Catalog of item vectors sharing one dimension, rows sorted by id, so
    with dense ids row r holds item r whatever order the input came in."""

    ids: np.ndarray       # (N,) int64 item ids, ascending
    vectors: np.ndarray   # (N, d) float64

    def __post_init__(self):
        self.ids = _int64_ids(self.ids, DataError)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.ids.shape[0] != self.vectors.shape[0]:
            raise ShapeError("ids and vectors disagree on item count")
        if not np.isfinite(self.vectors).all():
            raise DataError("item embeddings contain NaN/Inf")
        if np.any(self.ids < 0):
            raise DataError("item ids must be non-negative")
        if len(np.unique(self.ids)) != len(self.ids):
            raise DataError("duplicate item ids in catalog")
        order = np.argsort(self.ids, kind="stable")
        self.ids, self.vectors = self.ids[order], self.vectors[order]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Codebook:
    """L levels of centroid tables; the fixed semantic action space."""

    dim: int
    vocab_sizes: tuple[int, ...]
    centroids: list[np.ndarray] = field(default_factory=list)  # level -> (T_l, d)

    @property
    def levels(self) -> int:
        return len(self.vocab_sizes)


class SidIndex:
    """The fixed item -> SID table, the one item -> SID lookup: read-only
    item ids, ascending, and their (N, L) int64 tokens. `sid_matrix` binary-
    searches it; the first id it does not hold, a non-id by `int_ids` (a float,
    a bool, an int past int64) included, raises `UnknownItemError` naming it."""

    def __init__(self, ids, tokens):
        ids = _int64_ids(ids, ContractError)
        tokens = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1 or tokens.ndim != 2 or len(tokens) != len(ids):
            raise ShapeError(f"tokens {tokens.shape} are not (N, L) for ids {ids.shape}")
        order = np.argsort(ids, kind="stable")
        self.ids, self.tokens = ids[order], tokens[order]
        if (repeat := np.flatnonzero(self.ids[1:] == self.ids[:-1])).size:
            raise ContractError(f"duplicate item id {self.ids[repeat[0]]}")
        self.ids.flags.writeable = self.tokens.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def sid_matrix(self, item_ids) -> np.ndarray:
        """(n, L) int64 tokens of a sequence of items, in the given order."""
        ids, bad = int_ids(item_ids)  # with a non-id, the ids before it
        pos = np.searchsorted(self.ids, ids)
        known = pos < len(self.ids)
        known[known] = self.ids[pos[known]] == ids[known]
        if not known.all() or bad:  # no index holds a non-id
            raise UnknownItemError(f"item {bad[1] if known.all() else ids[~known][0]} has no SID")
        return self.tokens.take(pos, axis=0)


@dataclass
class CollisionReport:
    n_items: int
    n_sids: int
    n_collided_sids: int
    max_bucket: int
    level_entropy: list[float]


# ---------------------------------------------------------------------------
# k-means core
# ---------------------------------------------------------------------------


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared row norms for the screen; past ~1e154 they overflow to inf."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", a, a)


def _screen(points, points_sq, centers, centers_sq) -> tuple[np.ndarray, np.ndarray]:
    """(rows, T) bounds `lo <= exact <= hi` on the exact distance of every
    point to every centre, from the GEMM distance |x|^2 + |c|^2 - 2 x.c.

    In any summation order (so under any BLAS kernel) the GEMM distance and
    the exact formula each lie within about (d + 2) * eps/2 * (|x| + |c|)^2
    of the true distance, and underflow adds at most a few subnormal units
    per product; the slack doubles the first bound and adds d + 4 smallest
    normals. A pair whose screen overflows or turns NaN gets (-inf, inf).
    """
    d = points.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        approx = points_sq[:, None] + centers_sq - 2.0 * (points @ centers.T)
        norms = np.sqrt(points_sq)[:, None] + np.sqrt(centers_sq)
        slack = (2 * (d + 4) * np.finfo(np.float64).eps) * norms ** 2 \
            + (d + 4) * np.finfo(np.float64).tiny
        lo, hi = approx - slack, approx + slack
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    lo[unbounded], hi[unbounded] = -np.inf, np.inf
    return lo, hi


def _nearest(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centre (ties to the lowest index) and its
    squared distance `((x - c) ** 2).sum(axis=-1)`, bitwise.

    In blocks of NEAREST_BLOCK_ROWS points, `_screen` drops every centre
    whose lower bound exceeds the least upper bound of its row; only the
    pairs left take the exact formula, so no (rows, T, d) array is built.
    """
    t = len(centers)
    labels = np.empty(len(points), dtype=np.int64)
    min_d2 = np.empty(len(points))
    centers_sq = _sq_norms(centers)
    for start in range(0, len(points), NEAREST_BLOCK_ROWS):
        block = points[start:start + NEAREST_BLOCK_ROWS]
        lo, hi = _screen(block, _sq_norms(block), centers, centers_sq)
        rows, cols = np.divmod(np.flatnonzero(lo <= hi.min(axis=1, keepdims=True)), t)
        exact = ((block[rows] - centers[cols]) ** 2).sum(axis=-1)
        firsts = np.searchsorted(rows, np.arange(len(block)))  # every row has one
        best = np.minimum.reduceat(exact, firsts)
        stop = start + len(block)
        min_d2[start:stop] = best
        labels[start:stop] = np.minimum.reduceat(
            np.where(exact == best[rows], cols, t), firsts)
    return labels, min_d2


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=-1)
    points_sq = _sq_norms(points)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all points coincide with chosen centers
        centers[j] = points[idx]
        # Only a point the new centre may bring closer takes the exact formula.
        lo, _ = _screen(points, points_sq, centers[j:j + 1], _sq_norms(centers[j:j + 1]))
        rows = np.flatnonzero(lo[:, 0] < d2)
        d2[rows] = np.minimum(d2[rows], ((points[rows] - centers[j]) ** 2).sum(axis=-1))
    return centers


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means; returns centroids that are means of the final partition."""
    centers = _kmeanspp_init(points, k, rng)
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITERS):
        labels, d2 = _nearest(points, centers)
        inertia = d2.sum()
        new_centers = np.empty_like(centers)
        empty = []
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = points[mask].mean(axis=0)
            else:
                empty.append(j)
        if empty:
            # Reseed empty clusters at the points farthest from their
            # assigned centroid (deterministic: distance order, then index).
            order = np.argsort(-d2, kind="stable")
            for slot, j in enumerate(empty):
                new_centers[j] = points[order[slot]]
            centers = new_centers
            prev_inertia = np.inf
            continue
        centers = new_centers
        if prev_inertia - inertia <= KMEANS_REL_TOL * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    return centers


def _canonical_order(centers: np.ndarray) -> np.ndarray:
    return centers[np.lexsort(centers.T[::-1])]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def fit_codebook(items: ItemEmbeddings, vocab_sizes: tuple[int, ...],
                 seed: int) -> tuple[Codebook, SidIndex]:
    """Learn all level codebooks and assign every catalog item its SID."""
    if len(vocab_sizes) < 1 or any(t < 1 for t in vocab_sizes):
        raise DataError("vocab sizes must be positive")
    if len(items) < max(vocab_sizes):
        raise VocabTooLargeError(
            int(np.argmax(vocab_sizes)) + 1, len(items), max(vocab_sizes))

    rng = np.random.default_rng(seed)
    # Learn on a canonically ordered copy so catalog order cannot leak in;
    # row r of `learn` is catalog row order[r].
    order = np.lexsort(items.vectors.T[::-1])
    learn = items.vectors[order]
    tokens = np.empty((len(items), len(vocab_sizes)), dtype=np.int64)

    book = Codebook(dim=items.dim, vocab_sizes=tuple(int(t) for t in vocab_sizes))
    for lvl, t_l in enumerate(book.vocab_sizes):
        distinct = np.unique(learn, axis=0).shape[0]
        if distinct < t_l:
            raise VocabTooLargeError(lvl + 1, distinct, t_l)
        centers = _canonical_order(_lloyd(learn, t_l, rng))
        if (centers[1:] == centers[:-1]).all(axis=1).any():  # sorted: equal rows adjoin
            raise DataError(f"level {lvl + 1}: k-means produced duplicate centroids")
        book.centroids.append(centers)

        labels, _ = _nearest(learn, centers)
        tokens[order, lvl] = labels
        learn -= centers[labels]

    return book, SidIndex(items.ids, tokens)


def collision_report(index: SidIndex, vocab_sizes: tuple[int, ...]) -> CollisionReport:
    _, sizes = np.unique(index.tokens, axis=0, return_counts=True)
    entropy = []
    for lvl, t_l in enumerate(vocab_sizes):
        counts = np.bincount(index.tokens[:, lvl], minlength=t_l)
        p = counts[counts > 0] / counts.sum()
        entropy.append(float(-(p * np.log(p)).sum()))
    return CollisionReport(n_items=len(index), n_sids=len(sizes),
                           n_collided_sids=int((sizes > 1).sum()),
                           max_bucket=int(sizes.max(initial=0)), level_entropy=entropy)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _record_dtype(levels: int) -> np.dtype:  # one codebook.bin item record
    return np.dtype([("id", "<u8"), ("tokens", "<u2", (levels,))])


def save_codebook(path, book: Codebook, index: SidIndex) -> None:
    """Write `codebook.bin` in the layout of the module docstring."""
    if index.tokens.shape[1] != book.levels:
        raise ContractError(f"SIDs of {index.tokens.shape[1]} tokens for {book.levels} levels")
    if len(index) and index.ids[0] < 0:
        raise ContractError(f"item id {index.ids[0]} is negative; the file holds u64 ids")
    over = ((index.tokens < 0) | (index.tokens > 0xFFFF)).any(axis=0)
    if over.any():
        raise ContractError(f"token outside the u16 range at level {np.argmax(over) + 1}")
    records = np.empty(len(index), dtype=_record_dtype(book.levels))
    records["id"], records["tokens"] = index.ids, index.tokens
    parts = [CODEBOOK_MAGIC,
             struct.pack("<II", book.levels, book.dim),
             struct.pack(f"<{book.levels}I", *book.vocab_sizes)]
    for centers in book.centroids:
        parts.append(np.ascontiguousarray(centers, dtype="<f8").tobytes())
    parts += [struct.pack("<Q", len(records)), records.tobytes()]
    write_atomic(path, b"".join(parts))


def load_codebook(path) -> tuple[Codebook, SidIndex]:
    """Read `codebook.bin`; `FormatError` names the first bad record or level."""
    with open(path, "rb") as fh:
        rd = BinaryReader(fh.read(), "codebook file")
    if rd.take(len(CODEBOOK_MAGIC), "magic") != CODEBOOK_MAGIC:
        raise FormatError("bad codebook magic; not a codebook file or wrong version")
    levels, dim = struct.unpack("<II", rd.take(8, "header"))
    vocab_sizes = struct.unpack(f"<{levels}I", rd.take(4 * levels, "vocab sizes"))
    book = Codebook(dim=dim, vocab_sizes=tuple(int(t) for t in vocab_sizes))
    for lvl, t_l in enumerate(vocab_sizes):
        raw = rd.take(8 * t_l * dim, f"level {lvl + 1} centroid block")
        book.centroids.append(np.frombuffer(raw, dtype="<f8").reshape(t_l, dim).copy())
        if not np.isfinite(book.centroids[-1]).all():
            raise FormatError(f"level {lvl + 1} centroid block holds NaN or "
                              f"infinite values")
    (count,) = struct.unpack("<Q", rd.take(8, "item count"))
    rec = _record_dtype(levels)
    whole = min(count, (len(rd.blob) - rd.pos) // rec.itemsize)
    records = np.frombuffer(rd.blob, dtype=rec, count=whole, offset=rd.pos)
    ids, tokens = records["id"], records["tokens"]
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]  # an id's later records
    big = np.flatnonzero(ids > np.iinfo(np.int64).max)
    row = int(min(big.min(initial=whole), repeats.min(initial=whole)))
    if row < whole:  # the first bad record in file order
        raise FormatError(f"item record {row}: " + (
            f"id {ids[row]} does not fit int64" if row in big
            else f"duplicate item id {ids[row]}"))
    rd.take(count * rec.itemsize, f"item record {whole}")
    if rd.pos != len(rd.blob):
        raise FormatError("trailing bytes after codebook payload")
    over = (tokens >= np.array(vocab_sizes, dtype=np.int64)).any(axis=0)
    if over.any():
        raise FormatError(f"token out of range at level {int(np.argmax(over)) + 1}")
    return book, SidIndex(ids, tokens)


def save_embeddings(path, items: ItemEmbeddings) -> None:
    """Text format: header `d=<int>`, then `item_id<TAB>v1,v2,...,vd` lines."""
    with open(path, "w") as fh:
        fh.write(f"d={items.dim}\n")
        for i, vec in zip(items.ids, items.vectors):
            fh.write(f"{int(i)}\t{','.join(repr(float(v)) for v in vec)}\n")


def load_embeddings(path) -> ItemEmbeddings:
    lines = read_lines(path, FormatError)
    header = next(lines, "").strip()
    if not header.startswith("d="):
        raise FormatError("embeddings file must start with a d=<int> header")
    try:
        dim = int(header[2:])
    except ValueError:
        raise FormatError(f"bad embeddings header: {header!r}") from None
    ids, rows = [], []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            item, csv = line.split("\t")
            item_id = int(item)
            vec = [float(v) for v in csv.split(",")]
        except ValueError:
            raise FormatError(f"embeddings line {lineno} is malformed") from None
        if not -2 ** 63 <= item_id < 2 ** 63:
            raise FormatError(f"embeddings line {lineno}: id {item_id} "
                              f"does not fit int64")
        if len(vec) != dim:
            raise FormatError(f"embeddings line {lineno}: expected {dim} values")
        ids.append(item_id)
        rows.append(vec)
    if not ids:
        raise DataError("embeddings file holds no items")
    return ItemEmbeddings(np.array(ids), np.array(rows))
