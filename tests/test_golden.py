"""Golden output digests: every output file of `gen-data`, `tokenize`,
`fit-sim`, `train`, `eval` and `ablate` on the tiny test configs must hash
to the sha256 recorded in `golden_digests.json`.

Bitwise results hold only for one Python, numpy and BLAS build, one
OpenBLAS core (the kernel set it picks for the CPU at run time, "unknown"
when the BLAS does not say) and one set of CPU SIMD extensions (which
numpy picks its kernels from), so the digests are keyed by all five. On a
key with no entry the test skips and prints the key. `manifest.json` is
left out: it holds wall-clock times and the git stamp.

A change that moves floats on purpose regenerates the entry for this build
with `PYTHONPATH=src python tests/test_golden.py` and logs the old and new
digests.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hsrl.cli import main
from hsrl.config import _blas_build, _blas_core

from test_cli import BASE_CONFIG

GOLDEN = Path(__file__).with_name("golden_digests.json")

TRAIN_CONFIG = BASE_CONFIG.replace("iterations = 40", "iterations = 200")
# (output directory, command, config text, extra arguments), run in order
# from the directory that holds every output directory.
RUNS = [
    ("gen-data", "gen-data", BASE_CONFIG, []),
    ("tokenize", "tokenize", BASE_CONFIG, []),
    ("fit-sim", "fit-sim", BASE_CONFIG, []),
    ("train", "train", TRAIN_CONFIG, []),
    ("train_bc_only", "train",
     TRAIN_CONFIG + "variant = bc_only\n", []),
    ("eval", "eval", TRAIN_CONFIG, ["--checkpoint", "train/agent.ckpt"]),
    ("ablate", "ablate", BASE_CONFIG, []),
]


def build_key() -> str:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = _blas_build() or {}
    simd = ",".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    return (f"python {platform.python_version()} | numpy {np.__version__} | "
            f"blas {blas.get('name')} {blas.get('version')} | core {_blas_core()} | "
            f"simd {simd}")


def output_digests() -> dict[str, str]:
    """Run every command of RUNS in the working directory; sha256 of each
    output file, keyed by its relative path."""
    for out, command, config, extra in RUNS:
        Path(f"{out}.ini").write_text(config)
        assert main([command, "--config", f"{out}.ini", "--out", out, *extra]) == 0, out
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for out, *_ in RUNS for p in sorted(Path(out).iterdir())
            if p.name != "manifest.json"}


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    key = build_key()
    expected = json.loads(GOLDEN.read_text()).get(key)
    if expected is None:
        pytest.skip(f"no golden digests for build {key!r}")
    monkeypatch.chdir(tmp_path)
    got = output_digests()
    changed = sorted(name for name in expected.keys() | got.keys()
                     if expected.get(name) != got.get(name))
    assert not changed, f"outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        table[build_key()] = output_digests()
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table[build_key()])} digests for {build_key()!r}",
          file=sys.stderr)
