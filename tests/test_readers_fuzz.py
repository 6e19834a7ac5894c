"""Property tests of the file readers.

A file the writer produced reads back to the same values, and a damaged
file (truncated, with flipped bytes, or with bytes appended) either reads
or fails with `FormatError` or `DataError`, never with another exception.
The text readers get arbitrary bytes too, most of them not UTF-8.
Examples are derived from the test source, not drawn at random, and no
example database is written.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsrl.checkpoint import load_tensors, save_tensors
from hsrl.env import ingest_ml1m_style, load_records
from hsrl.errors import DataError, FormatError
from hsrl.tokenizer import (Codebook, ItemEmbeddings, SidIndex, load_codebook,
                            load_embeddings, save_codebook, save_embeddings)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)
shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)
named_tensors = st.dictionaries(
    st.text(max_size=8),
    shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=finite)),
    max_size=4)


@st.composite
def codebooks(draw):
    levels = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    vocab = tuple(draw(st.lists(st.integers(1, 4), min_size=levels, max_size=levels)))
    centroids = [draw(arrays(np.float64, (t, dim), elements=finite)) for t in vocab]
    ids = draw(st.sets(st.integers(0, 2 ** 63 - 1), max_size=6))
    sid = st.tuples(*(st.integers(0, t - 1) for t in vocab))
    items = sorted(ids)
    tokens = np.array([draw(sid) for _ in items], dtype=np.int64).reshape(len(items), levels)
    return Codebook(dim=dim, vocab_sizes=vocab, centroids=centroids), SidIndex(items, tokens)


@st.composite
def damaged(draw, blob):
    """`blob` truncated, with up to four bytes flipped, or with bytes appended."""
    kind = draw(st.sampled_from(["truncate", "flip", "extend"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + draw(st.binary(min_size=1, max_size=16))
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


def _read_or_reject(load, path):
    try:
        load(path)
    except (FormatError, DataError):
        pass


@FUZZ
@given(named=named_tensors)
def test_checkpoint_roundtrip(tmp_path, named):
    path = tmp_path / "x.ckpt"
    save_tensors(path, named)
    loaded = load_tensors(path)
    assert list(loaded) == list(named)
    for name, arr in named.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


@FUZZ
@given(data=st.data(), named=named_tensors)
def test_damaged_checkpoint_reads_or_fails_as_format_error(tmp_path, data, named):
    path = tmp_path / "x.ckpt"
    save_tensors(path, named)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    _read_or_reject(load_tensors, path)


@FUZZ
@given(built=codebooks())
def test_codebook_roundtrip(tmp_path, built):
    book, index = built
    path = tmp_path / "cb.bin"
    save_codebook(path, book, index)
    loaded_book, loaded_index = load_codebook(path)
    assert (loaded_book.dim, loaded_book.vocab_sizes) == (book.dim, book.vocab_sizes)
    for a, b in zip(loaded_book.centroids, book.centroids, strict=True):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(loaded_index.ids, index.ids)
    assert np.array_equal(loaded_index.tokens, index.tokens)


@FUZZ
@given(data=st.data(), built=codebooks())
def test_damaged_codebook_reads_or_fails_as_format_error(tmp_path, data, built):
    path = tmp_path / "cb.bin"
    save_codebook(path, *built)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    _read_or_reject(load_codebook, path)


int_lists = st.lists(st.integers(-2, 12), max_size=12).map(
    lambda xs: ",".join(map(str, xs)))
fields = st.one_of(st.just("-"), int_lists, st.text("0123456789,-\t x", max_size=6))
lines = st.lists(fields, min_size=1, max_size=5).map("\t".join)


@FUZZ
@given(text=st.lists(lines, max_size=4).map("\n".join))
def test_records_reader_accepts_or_rejects_as_data_error(tmp_path, text):
    path = tmp_path / "records.tsv"
    path.write_text(text, encoding="ascii")
    _read_or_reject(load_records, path)


@st.composite
def catalogs(draw):
    dim = draw(st.integers(1, 3))
    ids = sorted(draw(st.sets(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=6)))
    vectors = draw(arrays(np.float64, (len(ids), dim), elements=finite))
    return ItemEmbeddings(np.array(ids, dtype=np.int64), vectors)


@FUZZ
@given(items=catalogs())
def test_embeddings_roundtrip(tmp_path, items):
    path = tmp_path / "embeddings.tsv"
    save_embeddings(path, items)
    loaded = load_embeddings(path)
    assert loaded.ids.tolist() == items.ids.tolist()
    assert loaded.vectors.tobytes() == items.vectors.tobytes()


item_ids = st.one_of(st.integers(-3, 12).map(str),
                     st.sampled_from([-2 ** 63 - 1, 2 ** 63 - 1, 2 ** 63]).map(str),
                     st.text("0123456789-x ", max_size=4))
values = st.one_of(finite.map(repr), st.sampled_from(["nan", "-inf", "1e400", ""]),
                   st.text("0123456789.-e ", max_size=4))
embedding_lines = st.tuples(item_ids, st.lists(values, min_size=1, max_size=2).map(
    ",".join)).map("\t".join)
headers = st.sampled_from(["d=1", "d=1", "d=1", "d=2", "d=x", "d=-1", "1"])


@FUZZ
@given(header=headers, body=st.lists(embedding_lines, max_size=4).map("\n".join))
def test_embeddings_reader_accepts_or_rejects_as_format_error(tmp_path, header,
                                                              body):
    path = tmp_path / "embeddings.tsv"
    path.write_text(header + "\n" + body, encoding="ascii")
    _read_or_reject(load_embeddings, path)


ratings = st.tuples(st.integers(0, 1), st.integers(0, 5), st.integers(1, 5),
                    st.integers(0, 9)).map(lambda row: "\t".join(map(str, row)))
rating_fields = st.one_of(st.integers(0, 5).map(str),
                          st.sampled_from(["-1", str(2 ** 63), str(2 ** 64), "x", ""]))


@st.composite
def ratings_files(draw):
    """Ratings lines enough for a record or two, with up to two lines replaced
    by arbitrary fields."""
    lines = draw(st.lists(ratings, min_size=5, max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = "\t".join(draw(st.lists(rating_fields, max_size=5)))
    return "\n".join(lines)


@FUZZ
@given(text=ratings_files())
def test_ratings_reader_accepts_or_rejects_as_data_error(tmp_path, text):
    path = tmp_path / "ratings.tsv"
    path.write_text(text, encoding="ascii")
    _read_or_reject(ingest_ml1m_style, path)


TEXT_READERS = [load_embeddings, load_records, ingest_ml1m_style]


@pytest.mark.parametrize("load", TEXT_READERS)
@FUZZ
@given(blob=st.binary(max_size=64))
def test_text_readers_accept_or_reject_any_bytes(tmp_path, load, blob):
    path = tmp_path / "input.tsv"
    path.write_bytes(blob)
    _read_or_reject(load, path)


@pytest.mark.parametrize("load, error", zip(TEXT_READERS,
                                            [FormatError, DataError, DataError]))
def test_text_readers_reject_non_utf8_naming_the_path(tmp_path, load, error):
    path = tmp_path / "input.tsv"
    path.write_bytes(b"\xb0\t0\t1\t0\n")
    with pytest.raises(error, match="is not UTF-8 text") as info:
        load(path)
    assert str(path) in str(info.value)


RATINGS = "".join(f"7\t{i}\t{1 + i % 5}\t{100 + i}\n" for i in range(10))


@pytest.mark.parametrize("load, text", [
    (load_embeddings, "d=2\n0\t1.5,2.0\n3\t-1.0,4.25\n"),
    (load_records, "1\t-\t3,4\t1,0\n2\t3\t5,6\t0,1\n"),
    (ingest_ml1m_style, RATINGS),
])
def test_text_readers_read_crlf_as_lf(tmp_path, load, text):
    unix, dos = tmp_path / "unix.tsv", tmp_path / "dos.tsv"
    unix.write_bytes(text.encode())
    dos.write_bytes(text.replace("\n", "\r\n").encode())
    assert repr(load(dos)) == repr(load(unix))
