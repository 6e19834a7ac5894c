"""Golden output digests: every output file of `gen-data`, `tokenize`,
`fit-sim`, `train`, `eval` and `ablate` on the tiny test configs must hash
to the sha256 recorded in `golden_digests.json`.

Bitwise results hold only for one Python, numpy and BLAS build, one
OpenBLAS core (the kernel set it picks for the CPU at run time, "unknown"
when the BLAS does not say) and one set of CPU SIMD extensions (which
numpy picks its kernels from), so the digests are keyed by all five. On a
key with no entry the test skips and prints the key. `manifest.json` is
left out: it holds wall-clock times and the git stamp.

Entries are kept for three kernel set-ups (`SETUPS`), each reached by
environment variables on a child process that runs every command: the
host's own kernels, OpenBLAS's Haswell kernels, and those with numpy's
AVX-512 kernels switched off, which is what an AVX2-only host runs.

A change that moves floats on purpose regenerates the entries of every
set-up with `PYTHONPATH=src python tests/test_golden.py` and logs the old
and new digests.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import hsrl
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


# set-up name -> environment variables of the child process that runs it
SETUPS = {
    "native": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "avx2": {"OPENBLAS_CORETYPE": "Haswell",
             "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
}


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


def child_digests(setup: str, workdir: Path) -> tuple[str, dict[str, str]]:
    """Build key and output digests of a child process that runs every
    command of RUNS in `workdir` under the environment of `setup`."""
    paths = [str(Path(hsrl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **SETUPS[setup], "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = workdir / "digests.json"
    subprocess.run([sys.executable, __file__, "--child", str(out)], cwd=workdir, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def _changed(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(name for name in expected.keys() | got.keys()
                  if expected.get(name) != got.get(name))


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    key = build_key()
    expected = json.loads(GOLDEN.read_text()).get(key)
    if expected is None:
        pytest.skip(f"no golden digests for build {key!r}")
    monkeypatch.chdir(tmp_path)
    changed = _changed(expected, output_digests())
    assert not changed, f"outputs differ from the golden digests: {changed}"


@pytest.mark.parametrize("setup", [name for name in SETUPS if name != "native"])
def test_outputs_match_golden_digests_under_other_kernels(setup, tmp_path):
    from numpy._core._multiarray_umath import __cpu_dispatch__

    disabled = SETUPS[setup].get("NPY_DISABLE_CPU_FEATURES", "")
    if any(f not in __cpu_dispatch__ for f in disabled.split(",") if f):
        pytest.skip(f"this numpy does not dispatch {disabled}")
    key, got = child_digests(setup, tmp_path)
    expected = json.loads(GOLDEN.read_text()).get(key)
    if expected is None:
        pytest.skip(f"no golden digests for build {key!r}")
    changed = _changed(expected, got)
    assert not changed, f"{setup}: outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        Path(sys.argv[2]).write_text(json.dumps([build_key(), output_digests()]))
        sys.exit(0)
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for setup in SETUPS:
        with tempfile.TemporaryDirectory() as tmp:
            key, table[key] = child_digests(setup, Path(tmp))
        print(f"{setup}: wrote {len(table[key])} digests for {key!r}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
