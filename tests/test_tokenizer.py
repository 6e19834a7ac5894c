import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrl.errors import DataError, FormatError, VocabTooLargeError
from hsrl.tokenizer import (CODEBOOK_MAGIC, NEAREST_BLOCK_ROWS, ItemEmbeddings,
                            SidIndex, _assign, _kmeanspp_init, _nearest,
                            collision_report, fit_codebook, load_codebook,
                            load_embeddings, save_codebook, save_embeddings)


def _random_items(n=60, d=4, seed=5):
    rng = np.random.default_rng(seed)
    return ItemEmbeddings(np.arange(n), rng.normal(size=(n, d)))


def _bruteforce_residuals(book, vectors):
    """Tokens and per-level residuals by the residual recursion, one point
    and one centroid at a time (independent of the fit path); nearest-centroid
    ties go to the lowest token."""
    tokens, residuals = [], []
    for vec in vectors:
        sid, levels = [], []
        for centers in book.centroids:
            best = min(range(len(centers)),
                       key=lambda k: (np.sum((vec - centers[k]) ** 2), k))
            sid.append(best)
            vec = vec - centers[best]
            levels.append(vec)
        tokens.append(tuple(sid))
        residuals.append(levels)
    return tokens, np.array(residuals)  # (N, L, d)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_two_level_hand_example():
    # Four 1-D points cluster into {0.0, 0.1} and {1.0, 1.1}; residuals
    # +-0.05 split again at level two.
    items = ItemEmbeddings(np.arange(4), np.array([[0.0], [0.1], [1.0], [1.1]]))
    book, index = fit_codebook(items, (2, 2), seed=0)
    assert book.centroids[0].ravel() == pytest.approx([0.05, 1.05], abs=1e-12)
    assert book.centroids[1].ravel() == pytest.approx([-0.05, 0.05], abs=1e-12)
    assert index.sid_of(0) == (0, 0)
    assert index.sid_of(1) == (0, 1)
    assert index.sid_of(2) == (1, 0)
    assert index.sid_of(3) == (1, 1)


def test_identical_embeddings_single_centroid():
    items = ItemEmbeddings(np.arange(5), np.full((5, 3), 0.5))
    book, index = fit_codebook(items, (1,), seed=1)
    assert book.centroids[0] == pytest.approx(np.full((1, 3), 0.5), abs=1e-15)
    _, residuals = _bruteforce_residuals(book, items.vectors)
    assert (residuals ** 2).sum() == pytest.approx(0.0, abs=1e-24)
    assert all(index.sid_of(i) == (0,) for i in range(5))


def test_quantization_error_nonincreasing_in_depth():
    items = _random_items()
    errors = []
    for levels in range(1, 5):
        book, _ = fit_codebook(items, (4,) * levels, seed=3)
        _, residuals = _bruteforce_residuals(book, items.vectors)
        errors.append((residuals[:, -1] ** 2).sum())
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_monotone_residuals_within_one_fit():
    items = _random_items()
    book, _ = fit_codebook(items, (4, 4, 4, 4), seed=3)
    _, residuals = _bruteforce_residuals(book, items.vectors)
    norms = (residuals ** 2).sum(axis=2).mean(axis=0)
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_vocab_too_large_names_level():
    items = ItemEmbeddings(np.arange(4), np.array([[0.0], [0.0], [1.0], [1.0]]))
    with pytest.raises(VocabTooLargeError) as exc:
        fit_codebook(items, (2, 3), seed=0)
    assert exc.value.level == 2


def test_fit_determinism():
    items = _random_items()
    book1, index1 = fit_codebook(items, (8, 8), seed=9)
    book2, index2 = fit_codebook(items, (8, 8), seed=9)
    for c1, c2 in zip(book1.centroids, book2.centroids):
        assert np.array_equal(c1, c2)
    assert index1.item_to_sid == index2.item_to_sid


def test_item_order_does_not_change_sids():
    items = _random_items()
    perm = np.random.default_rng(100).permutation(len(items))
    shuffled = ItemEmbeddings(items.ids[perm], items.vectors[perm])
    _, index1 = fit_codebook(items, (6, 6), seed=2)
    _, index2 = fit_codebook(shuffled, (6, 6), seed=2)
    assert index1.item_to_sid == index2.item_to_sid


def test_centroids_canonically_sorted():
    items = _random_items()
    book, _ = fit_codebook(items, (8, 8), seed=4)
    for centers in book.centroids:
        order = np.lexsort(centers.T[::-1])
        assert np.array_equal(order, np.arange(len(centers)))


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


def _bruteforce_nearest(points, centers):
    """Labels and distances of the full (N, T, d) difference formula, with
    argmin's lowest-index ties."""
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(len(points)), labels]


def _assert_nearest_bitwise(points, centers):
    labels, min_d2 = _nearest(points, centers)
    want_labels, want_d2 = _bruteforce_nearest(points, centers)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(min_d2.view(np.int64), want_d2.view(np.int64))
    assert np.array_equal(_assign(points, centers), want_labels)


@pytest.mark.parametrize("dim", [5, 32])
def test_blocked_nearest_equal_one_block_formula(dim):
    rng = np.random.default_rng(dim)
    points = rng.normal(size=(2 * NEAREST_BLOCK_ROWS + 37, dim))
    centers = rng.normal(size=(9, dim))
    _assert_nearest_bitwise(points, centers)


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def nearest_cases(draw):
    """(points, centres) of one kind: Gaussian at scales 1e-150..1e150, a
    small integer grid (ties), duplicated centres with points on them, a
    cloud far from the origin (the GEMM distance cancels), subnormal
    distances, or coordinates near 1e154, where the screen overflows but
    the exact formula does not."""
    kind = draw(st.sampled_from(["scaled", "grid", "duplicates", "offset",
                                 "subnormal", "huge"]))
    d, n, t = draw(st.integers(1, 64)), draw(st.integers(1, 80)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-150, 150))
    if kind == "scaled":
        return rng.normal(size=(n, d)) * scale, rng.normal(size=(t, d)) * scale
    if kind == "grid":
        return (rng.integers(-2, 3, size=(n, d)) * scale,
                rng.integers(-2, 3, size=(t, d)) * scale)
    if kind == "duplicates":
        centers = (rng.normal(size=(t, d)) * scale)[rng.integers(t, size=t)]
        return (np.concatenate([centers[rng.integers(t, size=n)],
                                rng.normal(size=(n, d)) * scale]), centers)
    if kind == "offset":
        offset = rng.normal(size=d) * 10.0 ** draw(st.floats(0, 7))
        return (offset + rng.normal(size=(n, d)) * 1e-3,
                offset + rng.normal(size=(t, d)) * 1e-3)
    if kind == "subnormal":
        tiny = 10.0 ** draw(st.floats(-170, -155))
        return rng.normal(size=(n, d)) * tiny, rng.normal(size=(t, d)) * tiny
    spread = 1e152 / np.sqrt(d)
    return (1e154 + rng.normal(size=(n, d)) * spread,
            1e154 + rng.normal(size=(t, d)) * spread)


@FUZZ
@given(case=nearest_cases())
def test_nearest_and_assign_bitwise_equal_bruteforce(case):
    # the screen's own overflow stays inside it: Tier-1 turns any
    # RuntimeWarning into an error
    _assert_nearest_bitwise(*case)


def _bruteforce_kmeanspp(points, k, rng):
    """k-means++ seeding that updates every point's distance each round
    through the full difference formula."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points[:, None, :] - centers[None, :1, :]) ** 2).sum(axis=2).min(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(
            d2, ((points[:, None, :] - centers[None, j:j + 1, :]) ** 2).sum(axis=2).min(axis=1))
    return centers


@pytest.mark.parametrize("case", ["random", "duplicated", "offset"])
def test_kmeanspp_init_draws_as_bruteforce_seeding(case):
    # duplicated: 6 distinct rows for 10 centres, so the draws also reach
    # the all-zero-distance branch; offset: a cloud far from the origin,
    # where the screen's slack is wider than the distances themselves
    rng = np.random.default_rng(3)
    points = rng.normal(size=(300, 7)) * 3.0
    if case == "duplicated":
        points = points[rng.integers(6, size=300)]
    if case == "offset":
        points = 1e6 + points * 1e-4
    for seed in range(5):
        screened, full = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeanspp_init(points, 10, screened)
        assert got.tobytes() == _bruteforce_kmeanspp(points, 10, full).tobytes()
        assert screened.bit_generator.state == full.bit_generator.state


def test_assign_exact_centroid_match():
    centers = np.array([[0.0, 0.0], [4.0, 4.0], [1.0, 1.0]])
    points = np.array([[4.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    assert _assign(points, centers).tolist() == [1, 0, 2]


def test_assign_tie_breaks_to_lowest_token():
    centers = np.array([[1.0], [-1.0], [3.0], [-1.0]])
    points = np.array([[0.0], [2.0], [-1.0]])
    assert _assign(points, centers).tolist() == [0, 0, 1]


def test_assign_reproduces_fit_sids():
    # the residual recursion over three levels, checked against a brute force,
    # also on duplicated vectors under shuffled, non-contiguous ids
    items = _random_items(n=80, d=3, seed=12)
    rng = np.random.default_rng(13)
    duplicated = ItemEmbeddings(rng.permutation(np.arange(80) * 7 + 3),
                                items.vectors[rng.integers(30, size=80)])
    for case in (items, duplicated):
        book, index = fit_codebook(case, (5, 5, 5), seed=12)
        tokens, _ = _bruteforce_residuals(book, case.vectors)
        assert [index.sid_of(int(i)) for i in case.ids] == tokens


def test_single_level_matches_bruteforce_nearest_neighbor():
    items = _random_items(n=50, d=4, seed=21)
    book, index = fit_codebook(items, (7,), seed=21)
    tokens, _ = _bruteforce_residuals(book, items.vectors)
    assert [index.sid_of(int(i)) for i in items.ids] == tokens


# ---------------------------------------------------------------------------
# index (SID -> items) / collisions
# ---------------------------------------------------------------------------


def test_decode_singleton_and_empty():
    index = SidIndex({7: (0, 1), 9: (2, 2)})
    assert index.sid_to_items == {(0, 1): [7], (2, 2): [9]}  # no unused SIDs


def test_decode_collision_ascending_ids():
    index = SidIndex({9: (0, 0), 3: (0, 0), 5: (1, 1)})
    assert index.sid_to_items[(0, 0)] == [3, 9]


def test_partition_property():
    items = _random_items(n=70, d=3, seed=30)
    _, index = fit_codebook(items, (4, 4), seed=30)
    covered = sorted(i for bucket in index.sid_to_items.values() for i in bucket)
    assert covered == sorted(int(i) for i in items.ids)


def test_collision_report_distinct_sids():
    index = SidIndex({0: (0,), 1: (1,), 2: (2,)})
    report = collision_report(index, (4,))
    assert report.n_collided_sids == 0
    assert report.max_bucket == 1


def test_collision_report_degenerate_vocab():
    items = ItemEmbeddings(np.arange(6), np.random.default_rng(1).normal(size=(6, 2)))
    book, index = fit_codebook(items, (1, 1), seed=0)
    report = collision_report(index, book.vocab_sizes)
    assert report.n_sids == 1
    assert report.max_bucket == 6


def test_collision_report_uniform_entropy():
    index = SidIndex({i: (i % 4,) for i in range(16)})
    report = collision_report(index, (4,))
    assert report.level_entropy[0] == pytest.approx(np.log(4), abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_codebook_roundtrip_byte_exact(tmp_path):
    items = _random_items(n=40, d=3, seed=40)
    book, index = fit_codebook(items, (4, 4), seed=40)
    first = tmp_path / "cb.bin"
    second = tmp_path / "cb2.bin"
    save_codebook(first, book, index)
    loaded_book, loaded_index = load_codebook(first)
    save_codebook(second, loaded_book, loaded_index)
    assert first.read_bytes() == second.read_bytes()
    assert loaded_index.item_to_sid == index.item_to_sid
    for a, b in zip(book.centroids, loaded_book.centroids):
        assert np.array_equal(a, b)


def test_codebook_bad_magic(tmp_path):
    path = tmp_path / "cb.bin"
    items = _random_items(n=10, d=2, seed=41)
    book, index = fit_codebook(items, (2,), seed=41)
    save_codebook(path, book, index)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_codebook(path)


def test_codebook_missing_block_named(tmp_path):
    # header claims 3 levels but the file ends after two centroid blocks
    path = tmp_path / "cb.bin"
    items = _random_items(n=20, d=2, seed=42)
    book, index = fit_codebook(items, (3, 3, 3), seed=42)
    save_codebook(path, book, index)
    header = 8 + 8 + 4 * 3
    blocks2 = header + 8 * 3 * 2 * 2
    path.write_bytes(path.read_bytes()[:blocks2])
    with pytest.raises(FormatError, match="level 3 centroid block"):
        load_codebook(path)


def _crafted_codebook(path, item_ids):
    """One level of two 1-D centroids, then one record (token 0) per id."""
    blob = [CODEBOOK_MAGIC, struct.pack("<II", 1, 1), struct.pack("<I", 2),
            np.array([0.0, 1.0], dtype="<f8").tobytes(),
            struct.pack("<Q", len(item_ids))]
    blob += [struct.pack("<QH", item, 0) for item in item_ids]
    path.write_bytes(b"".join(blob))


def test_codebook_item_id_beyond_int64_rejected(tmp_path):
    path = tmp_path / "cb.bin"
    _crafted_codebook(path, [3, 2 ** 63])
    with pytest.raises(FormatError, match=f"id {2 ** 63} does not fit int64"):
        load_codebook(path)
    _crafted_codebook(path, [3, 2 ** 63 - 1])
    assert load_codebook(path)[1].sid_of(2 ** 63 - 1) == (0,)


def test_codebook_duplicate_item_record_rejected(tmp_path):
    path = tmp_path / "cb.bin"
    _crafted_codebook(path, [3, 5, 3])
    with pytest.raises(FormatError, match="record 2: duplicate item id 3"):
        load_codebook(path)


def test_embeddings_file_roundtrip(tmp_path):
    items = _random_items(n=12, d=5, seed=43)
    path = tmp_path / "emb.tsv"
    save_embeddings(path, items)
    loaded = load_embeddings(path)
    assert np.array_equal(loaded.ids, items.ids)
    assert np.array_equal(loaded.vectors, items.vectors)


def test_embeddings_bad_header(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("dim=3\n0\t1,2,3\n")
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_duplicate_item_ids_rejected():
    with pytest.raises(DataError):
        ItemEmbeddings(np.array([1, 1]), np.zeros((2, 2)))
