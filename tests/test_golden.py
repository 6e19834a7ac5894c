"""Golden output digests: every output file of `gen-data`, `tokenize`,
`fit-sim`, `train`, `eval`, `ablate` and `sweep` on the tiny test configs
must hash to the sha256 recorded in `golden_digests.json`, and so must
the tensors of the two simulators that criterion 6 fits (`SIMULATORS`):
six epochs of full batches, which the tiny configs barely reach, and
the centroids and SID matrix of the 5000-item benchmark codebook
(`CATALOG_CODEBOOK`), whose 64-token levels the tiny configs never fit.

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
from hsrl.env import SimFitConfig, SynthConfig, fit_simulators, generate_synthetic
from hsrl.tokenizer import fit_codebook

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
    ("sweep", "sweep", BASE_CONFIG, ["--axis", "levels"]),
]

# Digest key of criterion 6's simulators: synthetic data seeded [11, 100],
# both simulators fitted at seed 11 on the 300-item catalog.
SIMULATORS = "criterion6/simulators"
# Digest key of the `catalog_5k` benchmark codebook: 5000 items in 32
# clusters, dim 32, synthetic data seeded [11, 100], vocab (64, 64, 64)
# fitted at tokenizer seed 7.
CATALOG_CODEBOOK = "catalog/codebook"


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


def simulators_digest() -> str:
    """sha256 over the names and bytes of both criterion-6 simulators' tensors."""
    synth = generate_synthetic(SynthConfig(n_items=300, n_clusters=8), [11, 100])
    digest = hashlib.sha256()
    for sim in fit_simulators(synth.records, 300, SimFitConfig(), 11, synth.items.vectors):
        for name, tensor in sim.tensors().items():
            digest.update(name.encode())
            digest.update(tensor.data.tobytes())
    return digest.hexdigest()


def catalog_codebook_digest() -> str:
    """sha256 over the centroids and SID matrix of the `catalog_5k` codebook."""
    synth = generate_synthetic(SynthConfig(n_items=5000, n_clusters=32, dim=32), [11, 100])
    book, index = fit_codebook(synth.items, (64, 64, 64), 7)
    digest = hashlib.sha256()
    for centers in book.centroids:
        digest.update(centers.tobytes())
    digest.update(index.sid_matrix(synth.items.ids).tobytes())
    return digest.hexdigest()


def output_digests() -> dict[str, str]:
    """Run every command of RUNS in the working directory; sha256 of each
    output file, keyed by its relative path, and the digests of `SIMULATORS`
    and `CATALOG_CODEBOOK`."""
    for out, command, config, extra in RUNS:
        Path(f"{out}.ini").write_text(config)
        assert main([command, "--config", f"{out}.ini", "--out", out, *extra]) == 0, out
    digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
               for out, *_ in RUNS for p in sorted(Path(out).iterdir())
               if p.name != "manifest.json"}
    return {**digests, SIMULATORS: simulators_digest(),
            CATALOG_CODEBOOK: catalog_codebook_digest()}


def child_env(setup: str) -> dict[str, str]:
    """Environment of a child process that imports this hsrl under `setup`."""
    paths = [str(Path(hsrl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, **SETUPS[setup], "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def child_digests(setup: str, workdir: Path) -> tuple[str, dict[str, str]]:
    """Build key and output digests of a child process that runs every
    command of RUNS in `workdir` under the environment of `setup`."""
    out = workdir / "digests.json"
    subprocess.run([sys.executable, __file__, "--child", str(out)], cwd=workdir,
                   env=child_env(setup), check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def skip_undispatched(setup: str) -> None:
    from numpy._core._multiarray_umath import __cpu_dispatch__

    disabled = SETUPS[setup].get("NPY_DISABLE_CPU_FEATURES", "")
    if any(f not in __cpu_dispatch__ for f in disabled.split(",") if f):
        pytest.skip(f"this numpy does not dispatch {disabled}")


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
    skip_undispatched(setup)
    key, got = child_digests(setup, tmp_path)
    expected = json.loads(GOLDEN.read_text()).get(key)
    if expected is None:
        pytest.skip(f"no golden digests for build {key!r}")
    changed = _changed(expected, got)
    assert not changed, f"{setup}: outputs differ from the golden digests: {changed}"


# The product shapes of the tape's passes: 1-D@2-D, 2-D@1-D, 2-D@2-D, a
# stacked (B,T,k)@(k,n) and a batched (B,T,k)@(B,k,T).
PRODUCTS = [((16,), (16, 16)), ((16, 16), (16,)), ((10, 16), (16, 64)),
            ((32, 10, 16), (16, 16)), ((32, 10, 16), (32, 16, 10))]

# Under no_grad, and in grad mode under `checked()` with one operand a
# parameter, every product whose arithmetic overflows must raise
# NumericsError from the flags: one where each term overflows (1e200 *
# 1e200) and one where each term fits but their sum does not (1e154 *
# 1e154, k >= 2 terms). So must `backward`'s product for a finite graph
# whose gradient overflows: the loss scales the product by `fill`, and the
# parameter is the operand whose gradient then sums `fill * fill` over
# k >= 2 terms. Products of normal values, and their backward, must raise
# nothing. Prints the cases that fail.
FLAG_CHECK = f"""
import numpy as np
import hsrl.autodiff as ad
from hsrl.errors import NumericsError

def overflows(block, run):
    try:
        with block():
            run()
    except NumericsError as exc:
        return "overflow encountered" in str(exc)
    return False

failed = []
rng = np.random.default_rng(0)
for a, b in {PRODUCTS!r}:
    side = int(len(b) == 1)  # the parameter's side
    shapes = (a, b)[side], (a, b)[1 - side]

    def product(p, c):
        p, c = ad.parameter(np.full(shapes[0], p)), ad.constant(np.full(shapes[1], c))
        return ad.matmul(c, p) if side else ad.matmul(p, c)

    def backward(p, c, fill):
        ad.backward(ad.vsum(ad.scale(product(p, c), fill)))

    for fill in (1e200, 1e154):
        for case, block, run in (
                ("no_grad", ad.no_grad, lambda: product(fill, -fill)),
                ("checked", ad.checked, lambda: product(fill, -fill)),
                ("backward", ad.checked, lambda: backward(1 / fill, fill, fill))):
            if not overflows(block, run):
                failed.append((a, b, fill, case))
    normal = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
    with ad.no_grad():
        product(*normal)
    with ad.checked():
        backward(*normal, 1.0)
print(failed)
"""


@pytest.mark.parametrize("setup", SETUPS)
def test_no_grad_products_raise_on_overflow_under_every_kernel_setup(setup):
    skip_undispatched(setup)
    run = subprocess.run([sys.executable, "-c", FLAG_CHECK], env=child_env(setup),
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]", f"{setup}: no NumericsError for {run.stdout}"


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
