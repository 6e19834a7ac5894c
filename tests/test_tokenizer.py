import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsrl.errors import (ContractError, DataError, FormatError, ShapeError,
                         VocabTooLargeError)
from hsrl.tokenizer import (CODEBOOK_MAGIC, NEAREST_BLOCK_ROWS, Codebook,
                            ItemEmbeddings, SidIndex, _kmeanspp_init, _nearest, collision_report,
                            fit_codebook, load_codebook, load_embeddings,
                            save_codebook, save_embeddings)


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
    assert index.sid_matrix([0, 1, 2, 3]).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_identical_embeddings_single_centroid():
    items = ItemEmbeddings(np.arange(5), np.full((5, 3), 0.5))
    book, index = fit_codebook(items, (1,), seed=1)
    assert book.centroids[0] == pytest.approx(np.full((1, 3), 0.5), abs=1e-15)
    _, residuals = _bruteforce_residuals(book, items.vectors)
    assert (residuals ** 2).sum() == pytest.approx(0.0, abs=1e-24)
    assert index.sid_matrix(range(5)).tolist() == [[0]] * 5


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
    assert np.array_equal(index1.ids, index2.ids)
    assert np.array_equal(index1.tokens, index2.tokens)


def test_item_order_does_not_change_sids():
    items = _random_items()
    perm = np.random.default_rng(100).permutation(len(items))
    shuffled = ItemEmbeddings(items.ids[perm], items.vectors[perm])
    _, index1 = fit_codebook(items, (6, 6), seed=2)
    _, index2 = fit_codebook(shuffled, (6, 6), seed=2)
    assert np.array_equal(index1.ids, index2.ids)
    assert np.array_equal(index1.tokens, index2.tokens)


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
    assert _nearest(points, centers)[0].tolist() == [1, 0, 2]


def test_assign_tie_breaks_to_lowest_token():
    centers = np.array([[1.0], [-1.0], [3.0], [-1.0]])
    points = np.array([[0.0], [2.0], [-1.0]])
    assert _nearest(points, centers)[0].tolist() == [0, 0, 1]


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
        assert list(map(tuple, index.sid_matrix(case.ids).tolist())) == tokens


def test_single_level_matches_bruteforce_nearest_neighbor():
    items = _random_items(n=50, d=4, seed=21)
    book, index = fit_codebook(items, (7,), seed=21)
    tokens, _ = _bruteforce_residuals(book, items.vectors)
    assert list(map(tuple, index.sid_matrix(items.ids).tolist())) == tokens


# ---------------------------------------------------------------------------
# index table / collisions
# ---------------------------------------------------------------------------


def test_index_sorts_rows_by_id():
    index = SidIndex([9, 3, 5], [(0, 0), (0, 1), (1, 1)])
    assert index.ids.tolist() == [3, 5, 9]
    assert index.tokens.tolist() == [[0, 1], [1, 1], [0, 0]]
    assert len(index) == 3
    with pytest.raises(ValueError):  # the table is fixed once built
        index.tokens[0, 0] = 2


def test_index_rejects_duplicate_id():
    with pytest.raises(ContractError, match="duplicate item id 5"):
        SidIndex([9, 5, 3, 5, 9], [(0,), (1,), (0,), (2,), (1,)])


@pytest.mark.parametrize("ids, tokens", [
    ([1, 2], [0, 1]),              # tokens not (N, L)
    ([1, 2], [(0,), (1,), (2,)]),  # more rows than ids
    ([[1, 2]], [(0,), (1,)]),      # ids not (N,)
], ids=["tokens_1d", "more_rows", "ids_2d"])
def test_index_rejects_misshapen_table(ids, tokens):
    with pytest.raises(ShapeError):
        SidIndex(ids, tokens)


def test_partition_property():
    # every catalog item holds exactly one SID
    items = _random_items(n=70, d=3, seed=30)
    _, index = fit_codebook(items, (4, 4), seed=30)
    assert index.ids.tolist() == sorted(int(i) for i in items.ids)
    assert index.tokens.shape == (70, 2)


def test_collision_report_distinct_sids():
    index = SidIndex([0, 1, 2], [(0,), (1,), (2,)])
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
    index = SidIndex(np.arange(16), np.arange(16)[:, None] % 4)
    report = collision_report(index, (4,))
    assert report.level_entropy[0] == pytest.approx(np.log(4), abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_codebook_roundtrip_byte_exact(tmp_path):
    rng = np.random.default_rng(40)
    shuffled = ItemEmbeddings(rng.permutation(np.arange(5000) * 7 + 3),
                              rng.normal(size=(5000, 3)))
    for items in (_random_items(n=40, d=3, seed=40), shuffled):
        book, index = fit_codebook(items, (4, 4), seed=40)
        first = tmp_path / "cb.bin"
        second = tmp_path / "cb2.bin"
        save_codebook(first, book, index)
        loaded_book, loaded_index = load_codebook(first)
        save_codebook(second, loaded_book, loaded_index)
        assert first.read_bytes() == second.read_bytes()
        # the records: (u64 id, 2 x u16 token), ascending id
        records = b"".join(struct.pack("<Q2H", int(i), *index.sid_matrix([i])[0].tolist())
                           for i in sorted(items.ids))
        assert first.read_bytes().endswith(struct.pack("<Q", len(items)) + records)
        assert np.array_equal(loaded_index.ids, index.ids)
        assert np.array_equal(loaded_index.tokens, index.tokens)
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


def _crafted_codebook(path, item_ids, tokens=None, count=None, tail=b""):
    """One level of two 1-D centroids, an item count (`count`, else one per
    id), one record per id (token 0 unless `tokens` gives them), then `tail`."""
    tokens = [0] * len(item_ids) if tokens is None else tokens
    blob = [CODEBOOK_MAGIC, struct.pack("<II", 1, 1), struct.pack("<I", 2),
            np.array([0.0, 1.0], dtype="<f8").tobytes(),
            struct.pack("<Q", len(item_ids) if count is None else count)]
    blob += [struct.pack("<QH", item, z) for item, z in zip(item_ids, tokens)]
    path.write_bytes(b"".join(blob) + tail)


def test_codebook_item_id_beyond_int64_rejected(tmp_path):
    path = tmp_path / "cb.bin"
    _crafted_codebook(path, [3, 2 ** 63])
    with pytest.raises(FormatError, match=f"id {2 ** 63} does not fit int64"):
        load_codebook(path)
    _crafted_codebook(path, [3, 2 ** 63 - 1])
    assert load_codebook(path)[1].sid_matrix([2 ** 63 - 1]).tolist() == [[0]]


def test_codebook_duplicate_item_record_rejected(tmp_path):
    path = tmp_path / "cb.bin"
    _crafted_codebook(path, [3, 5, 3])
    with pytest.raises(FormatError, match="record 2: duplicate item id 3"):
        load_codebook(path)


@pytest.mark.parametrize("crafted, message", [
    (dict(item_ids=[3, 2 ** 63, 3]), f"item record 1: id {2 ** 63} does not fit int64"),
    (dict(item_ids=[3, 5, 3, 2 ** 63]), "item record 2: duplicate item id 3"),
    (dict(item_ids=[5, 3, 3], count=5), "item record 2: duplicate item id 3"),
    (dict(item_ids=[3, 5], count=4), "truncated while reading item record 2"),
    (dict(item_ids=[3, 5], count=3, tail=b"\0" * 5), "truncated while reading item record 2"),
    (dict(item_ids=[3, 5], tokens=[0, 2], tail=b"\0"), "trailing bytes"),
    (dict(item_ids=[3, 5], tokens=[0, 2]), "token out of range at level 1"),
], ids=["big_then_duplicate", "duplicate_then_big", "duplicate_then_truncated",
        "truncated", "partial_record", "trailing_then_token", "token"])
def test_codebook_names_first_fault_in_file_order(tmp_path, crafted, message):
    path = tmp_path / "cb.bin"
    _crafted_codebook(path, **crafted)
    with pytest.raises(FormatError, match=message):
        load_codebook(path)


def _recordwise_error(blob, vocab):
    """The error a record-by-record reader of `blob` (the item count and
    what follows it) meets first, or None."""
    levels = len(vocab)
    (count,) = struct.unpack_from("<Q", blob)
    pos, size, seen, sids = 8, 8 + 2 * levels, set(), []
    for row in range(count):
        if pos + size > len(blob):
            return f"codebook file truncated while reading item record {row}"
        item, *sid = struct.unpack_from(f"<Q{levels}H", blob, pos)
        pos += size
        if item >= 2 ** 63:
            return f"item record {row}: id {item} does not fit int64"
        if item in seen:
            return f"item record {row}: duplicate item id {item}"
        seen.add(item)
        sids.append(sid)
    if pos != len(blob):
        return "trailing bytes after codebook payload"
    for lvl, t_l in enumerate(vocab):
        if any(sid[lvl] >= t_l for sid in sids):
            return f"token out of range at level {lvl + 1}"
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), ids=st.lists(
    st.sampled_from([0, 1, 2, 3, 5, 8, 13, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]),
    max_size=6))
def test_codebook_records_fail_as_recordwise_reader(tmp_path, data, ids):
    vocab = (2, 3)
    tokens = [data.draw(st.tuples(st.integers(0, 2), st.integers(0, 3))) for _ in ids]
    count = data.draw(st.just(len(ids)) | st.integers(0, len(ids) + 2))
    records = (struct.pack("<Q", count)
               + b"".join(struct.pack("<Q2H", i, *z) for i, z in zip(ids, tokens))
               + data.draw(st.just(b"") | st.binary(max_size=13)))
    path = tmp_path / "cb.bin"
    path.write_bytes(CODEBOOK_MAGIC + struct.pack("<II2I", 2, 1, *vocab)
                     + np.arange(5, dtype="<f8").tobytes() + records)
    want = _recordwise_error(records, vocab)
    if want is None:
        loaded = load_codebook(path)[1]
        assert loaded.ids.tolist() == sorted(ids)
        assert loaded.tokens.tolist() == [list(z) for _, z in sorted(zip(ids, tokens))]
    else:
        with pytest.raises(FormatError) as err:
            load_codebook(path)
        assert str(err.value) == want


@pytest.mark.parametrize("ids, tokens, message", [
    ([2, -4], [(0, 1), (1, 0)], "item id -4 is negative"),
    ([1, 2], [(0, 1), (1, 2 ** 16)], "u16 range at level 2"),
    ([1, 2], [(0, -1), (1, 0)], "u16 range at level 2"),
    ([1, 2], [(0,), (1,)], "SIDs of 1 tokens for 2 levels"),
], ids=["negative_id", "token_past_u16", "negative_token", "levels_differ"])
def test_save_codebook_rejects_what_the_file_cannot_hold(tmp_path, ids, tokens, message):
    book = Codebook(dim=1, vocab_sizes=(2, 2),
                    centroids=[np.zeros((2, 1)), np.ones((2, 1))])
    with pytest.raises(ContractError, match=message):
        save_codebook(tmp_path / "cb.bin", book, SidIndex(ids, tokens))
    assert list(tmp_path.iterdir()) == []  # no file, not even a temporary one


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
