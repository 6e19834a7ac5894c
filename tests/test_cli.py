import csv
import json
import platform
import re
import shutil
import struct

import numpy as np
import pytest

from hsrl import autodiff as ad
from hsrl import env as env_mod
from hsrl import tokenizer as tok_mod
from hsrl.checkpoint import CHECKPOINT_MAGIC, load_tensors, save_tensors
from hsrl.cli import SWEEP_GRIDS, main
from hsrl.config import _blas_core
from hsrl.env import (SimFitConfig, constant_log_loss, held_out_log_loss,
                      load_records, load_response_model)
from hsrl.tokenizer import SidIndex, load_codebook, save_codebook


BASE_CONFIG = """
[data]
source = synthetic
n_items = 60
n_clusters = 4
embed_dim = 8
n_users = 16
slates_per_user = 4

[tokenizer]
levels = 2
vocab_size = 4

[policy]
d_model = 8
embed_dim = 8

[critic]
hidden = 6

[simulator]
embed_dim = 8
epochs = 1

[env]
slate_size = 3

[training]
iterations = 40
eval_every = 20
eval_episodes = 2
learning_rate = 0.01
num_seeds = 1
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return path


def _run(*argv):
    return main([str(a) for a in argv])


def _files_config(tmp_path, **paths):
    """BASE_CONFIG reading its catalog and logs from the given files."""
    cfg = tmp_path / "files.ini"
    lines = "".join(f"{key} = {path}\n" for key, path in paths.items())
    cfg.write_text(BASE_CONFIG.replace("source = synthetic",
                                       f"source = files\n{lines}"))
    return cfg


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_smoke(tmp_path, config_path, capsys):
    out = tmp_path / "tok"
    assert _run("tokenize", "--config", config_path, "--out", out) == 0
    assert (out / "codebook.bin").exists()
    printed = capsys.readouterr().out
    assert "token entropy" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["command"] == "tokenize"
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    build = np.show_config(mode="dicts")["Build Dependencies"]
    assert manifest["blas"] == build["blas"]
    assert manifest["blas"]["name"]
    assert manifest["blas_core"] == _blas_core() != ""


def test_tokenize_vocab_larger_than_catalog(tmp_path, config_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BASE_CONFIG.replace("vocab_size = 4", "vocab_size = 100"))
    out = tmp_path / "tok"
    assert _run("tokenize", "--config", cfg, "--out", out) == 3
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_tokenize_rerun_byte_identical(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run("tokenize", "--config", config_path, "--out", out1) == 0
    assert _run("tokenize", "--config", config_path, "--out", out2) == 0
    assert (out1 / "codebook.bin").read_bytes() == (out2 / "codebook.bin").read_bytes()


def test_tokenize_different_seed_changes_nothing_structural(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run("tokenize", "--config", config_path, "--out", out1,
                "--seed-tok", 7) == 0
    assert _run("tokenize", "--config", config_path, "--out", out2,
                "--seed-tok", 8) == 0
    assert (out1 / "codebook.bin").exists() and (out2 / "codebook.bin").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_zero_budget(tmp_path, config_path):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(BASE_CONFIG.replace("iterations = 40", "iterations = 0"))
    out = tmp_path / "train0"
    assert _run("train", "--config", cfg, "--out", out) == 0
    assert (out / "agent.ckpt").exists()
    rows = _read_csv(out / "metrics.csv")
    assert len(rows) == 1  # header only
    assert rows[0][:3] == ["iteration", "total_reward", "depth"]


def test_train_metrics_schema_and_monotone_iterations(tmp_path, config_path):
    out = tmp_path / "train"
    assert _run("train", "--config", config_path, "--out", out) == 0
    rows = _read_csv(out / "metrics.csv")
    header, body = rows[0], rows[1:]
    assert header == ["iteration", "total_reward", "depth", "loss_V",
                      "loss_PG", "H_en", "loss_BC", "w_0", "w_1", "w_2",
                      "seed"]
    iterations = [int(r[0]) for r in body]
    assert iterations == sorted(iterations)
    assert len(body) >= 1
    eval_rows = _read_csv(out / "eval_metrics.csv")
    assert eval_rows[0][0] == "iteration"
    assert len(eval_rows) >= 2  # at least one periodic evaluation fired


def test_train_rerun_bitwise_identical(tmp_path, config_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run("train", "--config", config_path, "--out", out1) == 0
    assert _run("train", "--config", config_path, "--out", out2) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "agent.ckpt").read_bytes() == (out2 / "agent.ckpt").read_bytes()
    assert (out1 / "eval_metrics.csv").read_bytes() == (out2 / "eval_metrics.csv").read_bytes()


def test_train_records_every_gradient_under_raising_flags(tmp_path, config_path,
                                                        monkeypatch):
    # no graph that records a gradient, the simulator fits' included, is
    # built outside `autodiff.checked()`: its flags stand in for a node scan
    states = []
    real_node = ad._node

    def node(data, parents, backward_fn):
        out = real_node(data, parents, backward_fn)
        if out.requires_grad:
            states.append(np.geterr())
        return out

    monkeypatch.setattr(ad, "_node", node)
    assert _run("train", "--config", config_path, "--out", tmp_path / "train") == 0
    loose = [s for s in states if {s["over"], s["invalid"], s["divide"]} != {"raise"}]
    assert states and not loose, f"{len(loose)} of {len(states)} nodes unchecked"


def test_train_seed_override_changes_outputs(tmp_path, config_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert _run("train", "--config", config_path, "--out", out1) == 0
    assert _run("train", "--config", config_path, "--out", out2,
                "--seed-agent", 99) == 0
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_deterministic(tmp_path, config_path, capsys):
    out = tmp_path / "train"
    assert _run("train", "--config", config_path, "--out", out) == 0
    eval1, eval2 = tmp_path / "e1", tmp_path / "e2"
    assert _run("eval", "--config", config_path, "--out", eval1,
                "--checkpoint", out / "agent.ckpt") == 0
    assert _run("eval", "--config", config_path, "--out", eval2,
                "--checkpoint", out / "agent.ckpt") == 0
    assert (eval1 / "eval_summary.csv").read_bytes() == \
        (eval2 / "eval_summary.csv").read_bytes()
    printed = capsys.readouterr().out
    assert "total_reward" in printed


def test_eval_checkpoint_codebook_mismatch(tmp_path, config_path):
    out = tmp_path / "train"
    assert _run("train", "--config", config_path, "--out", out) == 0
    other = tmp_path / "other.ini"
    other.write_text(BASE_CONFIG.replace("vocab_size = 4", "vocab_size = 6"))
    assert _run("eval", "--config", other, "--out", tmp_path / "e",
                "--checkpoint", out / "agent.ckpt") == 3


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    """agent.ckpt of a zero-budget BASE_CONFIG run (levels = 2, vocab 4)."""
    out = tmp_path_factory.mktemp("untrained")
    cfg = out / "zero.ini"
    cfg.write_text(BASE_CONFIG.replace("iterations = 40", "iterations = 0"))
    assert _run("train", "--config", cfg, "--out", out) == 0
    return out / "agent.ckpt"


@pytest.mark.parametrize("old, new", [
    ("levels = 2", "levels = 1"), ("levels = 2", "levels = 3"),
    ("vocab_size = 4", "vocab_size = 6"), ("hidden = 6", "hidden = 5"),
])
def test_eval_checkpoint_that_does_not_fit_config_names_block(
        tmp_path, capsys, untrained_checkpoint, old, new):
    cfg = tmp_path / "other.ini"
    cfg.write_text(BASE_CONFIG.replace(old, new))
    out = tmp_path / "e"
    assert _run("eval", "--config", cfg, "--out", out,
                "--checkpoint", untrained_checkpoint) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: checkpoint does not fit this config")
    assert re.search(r"\b(hpn|mlc)/", err)
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("command, extra", [
    ("fit-sim", []), ("train", []), ("ablate", []), ("sweep", ["--axis", "entropy"]),
])
def test_manifest_records_simulator_fit_quality(tmp_path, command, extra):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(BASE_CONFIG.replace("iterations = 40", "iterations = 0"))
    out = tmp_path / "o"
    assert _run(command, "--config", cfg, "--out", out, *extra) == 0
    fit = json.loads((out / "manifest.json").read_text())["simulator_fit"]
    # the train simulator, scored on the 20% of records it was not fitted on
    records = load_records(out / "records.tsv")
    split = int(0.8 * len(records))
    train_sim = load_response_model(out / "sim_train.ckpt", 60,
                                    SimFitConfig(embed_dim=8, epochs=1))
    rate = float(np.mean([y for rec in records[:split] for y in rec.labels]))
    assert fit == {
        "held_out_log_loss": held_out_log_loss(train_sim, records[split:]),
        "constant_log_loss": constant_log_loss(rate, records[split:]),
    }


def _assert_no_context_built(out):
    """An eval that fails on a file of its run writes nothing else."""
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert "simulator_fit" not in json.loads((out / "manifest.json").read_text())


def test_eval_reads_its_run_and_fits_nothing(tmp_path, config_path,
                                             untrained_checkpoint, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("eval fitted a table")

    monkeypatch.setattr(tok_mod, "fit_codebook", no_fit)
    monkeypatch.setattr(env_mod, "fit_response_model", no_fit)
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", untrained_checkpoint) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "embeddings.tsv", "eval_summary.csv", "manifest.json", "records.tsv"]
    assert "simulator_fit" not in json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("missing", ["codebook.bin", "sim_eval.ckpt"])
def test_eval_without_a_file_of_its_run_fails_as_data_error(
        tmp_path, config_path, capsys, untrained_checkpoint, missing):
    run = tmp_path / "run"
    run.mkdir()
    for name in ["agent.ckpt", "codebook.bin", "sim_eval.ckpt"]:
        if name != missing:
            shutil.copy(untrained_checkpoint.parent / name, run)
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", run / "agent.ckpt") == 3
    assert str(run / missing) in capsys.readouterr().err
    _assert_no_context_built(out)


@pytest.mark.parametrize("name, keep", [
    ("agent.ckpt", 100), ("codebook.bin", 50), ("sim_eval.ckpt", 100),
])
def test_eval_truncated_file_of_its_run_names_it(
        tmp_path, config_path, capsys, untrained_checkpoint, name, keep):
    run = tmp_path / "run"
    shutil.copytree(untrained_checkpoint.parent, run)
    (run / name).write_bytes((run / name).read_bytes()[:keep])
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", run / "agent.ckpt") == 3
    assert capsys.readouterr().err.startswith(f"data error: {run / name}: ")
    _assert_no_context_built(out)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["agent.ckpt", "sim_eval.ckpt", "codebook.bin"])
def test_eval_non_finite_value_in_a_file_of_its_run_names_file_and_block(
        tmp_path, config_path, capsys, untrained_checkpoint, name, value):
    run = tmp_path / "run"
    shutil.copytree(untrained_checkpoint.parent, run)
    if name == "codebook.bin":
        book, index = load_codebook(run / name)
        book.centroids[0][0, 0] = value
        save_codebook(run / name, book, index)
        block = "level 1 centroid block"
    else:
        named = load_tensors(run / name)
        block = next(iter(named))
        named[block].flat[0] = value
        save_tensors(run / name, named)
        block = f"block {block}"
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", run / "agent.ckpt") == 3
    assert capsys.readouterr().err == (
        f"data error: {run / name}: {block} holds NaN or infinite values\n")
    _assert_no_context_built(out)


@pytest.mark.parametrize("edit", ["item ids", "vocab sizes"])
def test_eval_codebook_that_does_not_fit_catalog_or_config(
        tmp_path, config_path, capsys, untrained_checkpoint, edit):
    run = tmp_path / "run"
    shutil.copytree(untrained_checkpoint.parent, run)
    book, index = load_codebook(run / "codebook.bin")
    ids = index.ids.copy()
    if edit == "item ids":  # the catalog holds items 0..59
        ids[ids == 59] = 60
    else:  # the config asks for vocab 4 at each level
        book.vocab_sizes = (5, 4)
        book.centroids[0] = np.vstack([book.centroids[0], book.centroids[0][:1]])
    save_codebook(run / "codebook.bin", book, SidIndex(ids, index.tokens))
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", run / "agent.ckpt") == 3
    assert capsys.readouterr().err == (
        f"data error: codebook {run / 'codebook.bin'} does not fit this config "
        f"and catalog\n")


def test_eval_checkpoint_with_overflowing_block_shape_fails_as_data_error(
        tmp_path, config_path, capsys):
    ckpt = tmp_path / "agent.ckpt"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"a"
                     + struct.pack("<B2I", 2, 2 ** 32 - 1, 2 ** 32 - 1))
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", ckpt) == 3
    assert "checkpoint truncated while reading block a data" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    _assert_no_context_built(out)


def test_eval_missing_checkpoint(tmp_path, config_path):
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", tmp_path / "nope.ckpt") == 3
    _assert_no_context_built(out)


def test_eval_checkpoint_directory_fails_as_data_error(tmp_path, config_path,
                                                       capsys):
    ckpt = tmp_path / "agent.ckpt"
    ckpt.mkdir()
    out = tmp_path / "e"
    assert _run("eval", "--config", config_path, "--out", out,
                "--checkpoint", ckpt) == 3
    assert capsys.readouterr().err.startswith(f"data error: cannot read checkpoint {ckpt}")
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    _assert_no_context_built(out)


# ---------------------------------------------------------------------------
# sweep / ablate
# ---------------------------------------------------------------------------


def test_sweep_grids_include_paper_points():
    assert SWEEP_GRIDS["entropy"] == [0.0, 0.1, 0.2, 0.3]
    assert 80 in SWEEP_GRIDS["vocab"]
    assert 4 in SWEEP_GRIDS["levels"]


def test_sweep_entropy_axis(tmp_path, config_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(BASE_CONFIG.replace("iterations = 40", "iterations = 10"))
    out = tmp_path / "sweep"
    assert _run("sweep", "--config", cfg, "--out", out, "--axis", "entropy") == 0
    rows = _read_csv(out / "sweep.csv")
    assert rows[0][0] == "axis"
    values = [float(r[1]) for r in rows[1:]]
    assert values == [0.0, 0.1, 0.2, 0.3]


def test_sweep_levels_axis_refits_codebook_and_reruns_bitwise(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(BASE_CONFIG.replace("iterations = 40", "iterations = 10"))
    outs = [tmp_path / "s1", tmp_path / "s2"]
    for out in outs:
        assert _run("sweep", "--config", cfg, "--out", out,
                    "--axis", "levels") == 0
    rows = _read_csv(outs[0] / "sweep.csv")
    assert [(r[0], int(r[1])) for r in rows[1:]] == [
        ("levels", v) for v in SWEEP_GRIDS["levels"]]
    for name in ("sweep.csv", "sim_train.ckpt", "sim_eval.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_vocab_grid_the_catalog_cannot_tokenize_fails_before_fitting(
        tmp_path, config_path, capsys):
    # the 60-item catalog cannot take vocab 64; no point may be trained first
    out = tmp_path / "sweep"
    assert _run("sweep", "--config", config_path, "--out", out,
                "--axis", "vocab") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")
    assert not list(out.glob("sim_*.ckpt"))
    assert not (out / "sweep.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_sweep_unknown_axis_usage_error(tmp_path, config_path):
    with pytest.raises(SystemExit) as exc:
        _run("sweep", "--config", config_path, "--out", tmp_path / "s",
             "--axis", "bogus")
    assert exc.value.code == 2


def test_ablate_schema(tmp_path, config_path):
    cfg = tmp_path / "ablate.ini"
    cfg.write_text(BASE_CONFIG.replace("iterations = 40", "iterations = 10"))
    out = tmp_path / "ablate"
    assert _run("ablate", "--config", cfg, "--out", out) == 0
    rows = _read_csv(out / "ablation.csv")
    assert [r[0] for r in rows[1:]] == ["full", "no_entropy", "flat_policy",
                                        "no_bc", "single_critic"]
    full_row = rows[1]
    assert float(full_row[3]) == 0.0  # delta of full vs itself
    assert float(full_row[4]) == 0.0


# ---------------------------------------------------------------------------
# gen-data and config validation
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes abort
def test_train_numeric_abort_exit_code_and_last_good_checkpoint(tmp_path):
    cfg = tmp_path / "explode.ini"
    cfg.write_text(BASE_CONFIG.replace("learning_rate = 0.01",
                                       "learning_rate = 1e280"))
    out = tmp_path / "boom"
    assert _run("train", "--config", cfg, "--out", out) == 4
    load_tensors(out / "agent.ckpt")  # kept, and every parameter is finite
    assert (out / "abort.json").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_tokenize_desk_scale_config(tmp_path):
    cfg = tmp_path / "desk.ini"
    cfg.write_text("""
[data]
n_items = 300
n_clusters = 8

[tokenizer]
levels = 3
vocab_size = 16
""")
    out = tmp_path / "desk"
    assert _run("tokenize", "--config", cfg, "--out", out) == 0
    assert (out / "codebook.bin").exists()


def test_gen_data_writes_files(tmp_path, config_path):
    out = tmp_path / "data"
    assert _run("gen-data", "--config", config_path, "--out", out) == 0
    assert (out / "embeddings.tsv").exists()
    assert (out / "records.tsv").exists()
    assert (out / "clusters.tsv").exists()


def test_gen_data_feeds_files_mode(tmp_path, config_path):
    data_dir = tmp_path / "data"
    assert _run("gen-data", "--config", config_path, "--out", data_dir) == 0
    files_cfg = _files_config(tmp_path, embeddings_path=data_dir / "embeddings.tsv",
                              records_path=data_dir / "records.tsv")
    out = tmp_path / "tok"
    assert _run("tokenize", "--config", files_cfg, "--out", out) == 0


def _fit_sim_with_edited_record(tmp_path, config_path, field, value):
    """gen-data, put `value` first in one field of the fourth record, then
    fit-sim on the files; returns (exit code, output directory)."""
    data_dir = tmp_path / "data"
    assert _run("gen-data", "--config", config_path, "--out", data_dir) == 0
    records = (data_dir / "records.tsv").read_text().splitlines()
    fields = records[3].split("\t")
    fields[field] = f"{value}," + fields[field].split(",", 1)[1]
    records[3] = "\t".join(fields)
    (data_dir / "records.tsv").write_text("\n".join(records) + "\n")
    files_cfg = _files_config(tmp_path, embeddings_path=data_dir / "embeddings.tsv",
                              records_path=data_dir / "records.tsv")
    out = tmp_path / "sim"
    return _run("fit-sim", "--config", files_cfg, "--out", out), out


def test_slate_larger_than_files_catalog_fails_before_fitting(tmp_path, capsys):
    (tmp_path / "embeddings.tsv").write_text(
        "d=2\n0\t1.0,0.0\n1\t0.0,1.0\n2\t1.0,1.0\n")
    (tmp_path / "records.tsv").write_text(
        "".join(f"{u}\t-\t0,1,2\t1,0,1\n{u}\t0,1\t2,0,1\t0,1,0\n"
                for u in range(4)))
    cfg = _files_config(tmp_path, embeddings_path=tmp_path / "embeddings.tsv",
                        records_path=tmp_path / "records.tsv")
    cfg.write_text(cfg.read_text().replace("slate_size = 3", "slate_size = 4"))
    out = tmp_path / "run"
    assert _run("train", "--config", cfg, "--out", out) == 3
    assert capsys.readouterr().err == (
        "data error: slate size 4 exceeds the 3 items of the embeddings catalog\n")
    assert not (out / "codebook.bin").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("command", ["fit-sim", "train", "ablate"])
def test_catalog_with_missing_ids_fails_before_any_table(tmp_path, capsys, command):
    (tmp_path / "embeddings.tsv").write_text(
        "d=2\n0\t1.0,0.0\n1\t0.0,1.0\n1000000\t1.0,1.0\n")
    (tmp_path / "records.tsv").write_text(
        "".join(f"{u}\t-\t0,1,1000000\t1,0,1\n{u}\t0,1\t1000000,0,1\t0,1,0\n"
                for u in range(4)))
    cfg = _files_config(tmp_path, embeddings_path=tmp_path / "embeddings.tsv",
                        records_path=tmp_path / "records.tsv")
    cfg.write_text(cfg.read_text().replace("vocab_size = 4", "vocab_size = 2"))
    out = tmp_path / "run"
    assert _run(command, "--config", cfg, "--out", out) == 3
    assert capsys.readouterr().err == (
        "data error: item ids must be 0..N-1 with none missing; "
        "id 2 is missing from the catalog\n")
    assert not (out / "codebook.bin").exists()
    assert not list(out.glob("sim_*.ckpt"))
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("bad_item", [999, -1])
def test_records_naming_unknown_items_fail_as_data_error(tmp_path, config_path,
                                                          capsys, bad_item):
    code, out = _fit_sim_with_edited_record(tmp_path, config_path, 2, bad_item)
    assert code == 3
    assert f"item {bad_item}" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("label", [2, -1])
def test_records_with_non_binary_labels_fail_as_data_error(tmp_path, config_path,
                                                            capsys, label):
    code, out = _fit_sim_with_edited_record(tmp_path, config_path, 3, label)
    assert code == 3
    assert "click labels must be 0 or 1" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("key, kind", [
    ("embeddings_path", "missing"), ("records_path", "missing"),
    ("ratings_path", "missing"), ("embeddings_path", "directory"),
    ("records_path", "directory"), ("ratings_path", "directory"),
    ("embeddings_path", "not_utf8"), ("records_path", "not_utf8"),
    ("ratings_path", "not_utf8"),
])
def test_unreadable_data_file_fails_as_data_error(tmp_path, config_path, capsys,
                                                  key, kind):
    data_dir = tmp_path / "data"
    assert _run("gen-data", "--config", config_path, "--out", data_dir) == 0
    bad = tmp_path / "bad.tsv"
    if kind == "directory":
        bad.mkdir()
    elif kind == "not_utf8":
        bad.write_bytes(b"\xff\xfe0\t1\n")
    paths = {"embeddings_path": data_dir / "embeddings.tsv",
             "records_path": data_dir / "records.tsv"}
    if key == "ratings_path":
        del paths["records_path"]
    paths[key] = bad
    out = tmp_path / "sim"
    assert _run("fit-sim", "--config", _files_config(tmp_path, **paths),
                "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_embeddings_with_non_integer_item_id_fail_as_format_error(
        tmp_path, config_path, capsys):
    data_dir = tmp_path / "data"
    assert _run("gen-data", "--config", config_path, "--out", data_dir) == 0
    embeddings = (data_dir / "embeddings.tsv").read_text().splitlines()
    embeddings[1] = "x" + embeddings[1][embeddings[1].index("\t"):]
    (data_dir / "embeddings.tsv").write_text("\n".join(embeddings) + "\n")
    out = tmp_path / "tok"
    assert _run("tokenize", "--config",
                _files_config(tmp_path, embeddings_path=data_dir / "embeddings.tsv",
                              records_path=data_dir / "records.tsv"),
                "--out", out) == 3
    assert capsys.readouterr().err == (f"data error: {data_dir / 'embeddings.tsv'}: "
                                       "embeddings line 2 is malformed\n")
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("key, name, text, message", [
    ("ratings_path", "ratings.tsv", "0\t1\t1\n",
     "ratings line 1: expected 4 tab-separated fields, got 3"),
    ("records_path", "records.tsv", "0\t\t1,2\t1\n", "records line 1: "),
    ("embeddings_path", "embeddings.tsv", "d=8\n", "embeddings file holds no items"),
])
def test_unusable_data_file_names_its_path(tmp_path, config_path, capsys, key,
                                           name, text, message):
    data_dir = tmp_path / "data"
    assert _run("gen-data", "--config", config_path, "--out", data_dir) == 0
    bad = tmp_path / name
    bad.write_text(text)
    paths = {"embeddings_path": data_dir / "embeddings.tsv",
             "records_path": data_dir / "records.tsv", key: bad}
    if key == "ratings_path":
        del paths["records_path"]
    assert _run("tokenize", "--config", _files_config(tmp_path, **paths),
                "--out", tmp_path / "tok") == 3
    assert capsys.readouterr().err.startswith(f"data error: {bad}: {message}")


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[training]\nlearning_rte = 0.1\n")
    assert _run("train", "--config", cfg, "--out", tmp_path / "o") == 2


def test_unknown_config_section_rejected(tmp_path, capsys):
    # configparser would spread [DEFAULT]'s keys over the other sections
    cfg = tmp_path / "bad.ini"
    for text, section in [("[experiment]\nname = x\n", "experiment"),
                          ("[DEFAULT]\nlearning_rate = 5\n", "DEFAULT"),
                          ("[DEFAULT]\nhidden = 7\n[critic]\n", "DEFAULT")]:
        cfg.write_text(text)
        assert _run("train", "--config", cfg, "--out", tmp_path / "o") == 2, text
        assert capsys.readouterr().err == (
            f"config error: unknown config section [{section}]\n")


@pytest.mark.parametrize("text, code", [
    pytest.param("[training]\ngamma = 1.5\n", 2, id="gamma"),
    pytest.param("[training]\nlearning_rate = 0\n", 2, id="learning_rate"),
    pytest.param("[training]\ntarget_tau = 0\n", 2, id="target_tau_zero"),
    pytest.param("[training]\ntarget_tau = 1.5\n", 2, id="target_tau_above_one"),
    pytest.param("[simulator]\nbatch_size = 0\n", 2, id="sim_batch_size"),
    pytest.param("[simulator]\nlearning_rate = 0\n", 2, id="sim_learning_rate"),
    pytest.param("[simulator]\nepochs = 0\n", 2, id="sim_epochs"),
    pytest.param("[simulator]\nembed_dim = 0\n", 2, id="sim_embed_dim"),
    pytest.param("[policy]\nd_model = 1\n", 2, id="policy_d_model"),
    pytest.param("[policy]\nembed_dim = 0\n", 2, id="policy_embed_dim"),
    pytest.param("[data]\nembed_dim = 0\n", 2, id="data_embed_dim"),
    pytest.param("[env]\nslate_size = 0\n", 2, id="slate_size"),
    pytest.param("[critic]\nhidden = 0\n", 2, id="critic_hidden"),
    pytest.param("[env]\nhistory_window = 0\n", 2, id="history_window"),
    pytest.param("[training]\neval_every = -20\n", 2, id="eval_every"),
    pytest.param("[data]\nn_items = 0\n", 2, id="data_n_items"),
    pytest.param("[data]\nn_clusters = 0\n", 2, id="data_n_clusters"),
    pytest.param("[data]\nn_users = 0\n", 2, id="data_n_users"),
    pytest.param("[data]\nslates_per_user = 0\n", 2, id="data_slates_per_user"),
    pytest.param("[data]\np_preferred = 1.5\n", 2, id="data_p_preferred"),
    pytest.param("[data]\np_other = -0.1\n", 2, id="data_p_other"),
    pytest.param("[data]\nnoise = -1.0\n", 2, id="data_noise"),
    pytest.param("[training]\nadvantage_clip = nan\n", 2, id="advantage_clip_nan"),
    pytest.param("[training]\nlambda_bc = nan\n", 2, id="lambda_bc_nan"),
    pytest.param("[data]\nnoise = inf\n", 2, id="data_noise_inf"),
    pytest.param("[training]\nlearning_rate = -inf\n", 2, id="learning_rate_minus_inf"),
    pytest.param("[tokenizer]\nlevels = 0\n", 2, id="tokenizer_levels_zero"),
    pytest.param("[tokenizer]\nlevels = -1\n", 2, id="tokenizer_levels_negative"),
    pytest.param("[tokenizer]\nvocab_size = 0\n", 2, id="tokenizer_vocab_size"),
    pytest.param("[data]\nn_items = 4\nn_clusters = 2\n[env]\nslate_size = 5\n",
                 3, id="slate_exceeds_catalog"),
])
def test_bad_config_value_rejected(tmp_path, capsys, text, code):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert _run("train", "--config", cfg, "--out", out) == code
    err = capsys.readouterr().err
    if code == 2:  # rejected at load, before the manifest is written
        assert err.startswith("config error:")
        assert not (out / "manifest.json").exists()
    else:
        assert err.startswith("data error:")
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("command", ["train", "tokenize"])
@pytest.mark.parametrize("text", ["levels = 0", "levels = -1", "vocab_size = 0",
                                  "vocab_size = 65536", "vocab_sizes = 4,4"])
def test_bad_tokenizer_size_fails_at_load(tmp_path, capsys, command, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[tokenizer]\n{text}\n")
    out = tmp_path / "o"
    assert _run(command, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists()


def test_internal_error_fails_manifest_with_exit_5(tmp_path, config_path,
                                                   monkeypatch, capsys):
    from hsrl import cli
    from hsrl.errors import ContractError

    def broken(cfg, out, args):
        raise ContractError("broken invariant")

    monkeypatch.setitem(cli._COMMANDS, "tokenize", (broken, "tokenize"))
    out = tmp_path / "o"
    assert _run("tokenize", "--config", config_path, "--out", out) == \
        cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: ContractError: broken invariant"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == "ContractError: broken invariant"
    assert "raise ContractError" in manifest["traceback"]


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_out_naming_an_existing_file_is_a_config_error(tmp_path, config_path,
                                                      capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert _run(command, "--config", config_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error:")
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_missing_config_file(tmp_path):
    assert _run("train", "--config", tmp_path / "none.ini",
                "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_file(tmp_path, capsys, kind):
    cfg = tmp_path / "run.ini"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"\xff\xfe[data]\n")
    assert _run("train", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("config error: cannot read")


def test_files_mode_requires_paths(tmp_path):
    cfg = tmp_path / "files.ini"
    cfg.write_text("[data]\nsource = files\n")
    assert _run("tokenize", "--config", cfg, "--out", tmp_path / "o") == 3
