"""Benchmark of the hsrl training lab: one workload, one seed, one run.

    python3 benchmarks/run.py --workload desk_full --seed 0 --seconds 10 --trace 0

Load model: a closed loop with a single client. One process, pinned to one
BLAS/OpenMP thread, builds the experiment context SETUP_REPEATS times, trains
one agent for a fixed interaction budget (--seconds times the workload's
training rate on the reference host, so every result is deterministic per
seed), then repeats the final greedy eval EVAL_REPEATS times.

--trace 0 prints the end-to-end metrics. --trace 1 builds the context once
under the tracer, trains once untraced and once traced on it, checks the two
agree exactly, and prints the per-layer metrics plus the tracing overhead.
Times are read at the reference machine speed (see pace.py); the result file
also keeps the end-to-end times as raw wall-clock seconds.
The last stdout line is the JSON result; the lines before it are for people.
Each run also writes its result with provenance to .bench_out/.
"""

import os

# Before numpy is imported anywhere: one BLAS/OpenMP thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The package under test is this checkout's src/; without it there is nothing
# to measure, so exit non-zero before printing any result.
sys.path[:0] = [str(SRC), str(HERE)]
try:
    import hsrl  # noqa: E402
except ImportError as exc:
    sys.exit(f"benchmark: cannot import hsrl from {SRC}: {exc}")
if Path(hsrl.__file__).resolve().parent != SRC / "hsrl":
    sys.exit(f"benchmark: imported hsrl from {hsrl.__file__}, not {SRC}")

import numpy as np  # noqa: E402
from hsrl import trainer as tr  # noqa: E402

from pace import Pacer  # noqa: E402
from tracer import Summary, Tracer, node_counter, wall  # noqa: E402
from workloads import (AGENT_SEED, EVAL_REPEATS, SETUP_REPEATS,  # noqa: E402
                       WORKLOADS, Progress, build_context, check_run,
                       fingerprint, train_and_eval)

CRITIC_PROBE_EPISODES = 20


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": source_digest(),
    }


def source_digest() -> str:
    """Digest of the package sources, which identifies the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hsrl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_node_counts(key: str, counts: dict) -> list[str]:
    """Tape node counts are exact: every run of the same code, workload, seed
    and interaction budget must repeat them. The first run records them."""
    path = OUT / "node_counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return ([] if known[key] == counts else
                [f"node counts {counts} differ from an earlier run's {known[key]}"])
    known[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def setup(w, progress, timings, nodes, prints):
    n0, t0 = node_counter(), perf_counter()
    ctx = build_context(w)
    timings.append((t0, perf_counter()))
    nodes.append(node_counter() - n0)
    prints.add(fingerprint(ctx))
    progress.done += 1
    return ctx


def end_to_end(w, args, progress, bad, pacer) -> tuple[dict, dict]:
    timings, nodes, prints = [], [], set()
    for _ in range(SETUP_REPEATS):
        ctx = setup(w, progress, timings, nodes, prints)
    if len(prints) != 1 or len(set(nodes)) != 1:
        bad.append(f"set-ups disagree: {len(prints)} contexts, nodes {nodes}")
    run = train_and_eval(ctx, w, args.seed, w.iterations(args.seconds), progress)
    bad.extend(check_run(run))

    def timed(seconds):
        samples = run.update_ms_per_step(seconds)
        return {
            "setup_s": (statistics.median(seconds(a, b) for a, b in timings), "s"),
            "train_steps_per_s": (run.steps / run.train_seconds(seconds), "steps/s"),
            "train_update_ms_p50": (statistics.median(samples), "ms/step"),
            "train_update_ms_p90": (statistics.quantiles(samples, n=10)[-1],
                                    "ms/step"),
            "eval_steps_per_s": (statistics.median(run.eval_rates(seconds)),
                                 "steps/s"),
        }
    metrics = timed(pacer.seconds)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info = {
        "wall": timed(wall),
        "update_samples": len(run.log.rows),
        "eval_reward": run.eval_reward(),
        "eval_steps": run.eval_steps(),
        "steps": run.steps,
        "node_counts": {"setup": nodes[0], "train": run.train_nodes,
                        "eval": run.eval_nodes[0]},
    }
    return metrics, info


def critic_probe(ctx, run, seed, tracer) -> None:
    """Time the critic on an agent whose training never calls it (bc_only):
    one full-variant train_step per sampled episode, after all else is done."""
    agent = run.agent
    agent.cfg = replace(agent.cfg, variant="full")
    tracer.set_phase("probe")
    for episode in range(CRITIC_PROBE_EPISODES):
        rngs = [np.random.default_rng([seed, 1000 + stream, episode])
                for stream in (0, 1)]
        transitions, _ = tr.rollout(agent, ctx.train_env, "sample", *rngs)
        tr.train_step(agent, transitions)


def per_layer(w, args, progress, bad, pacer, spans_path) -> tuple[dict, dict]:
    tracer = Tracer()
    timings, nodes, prints = [], [], set()
    with tracer:
        ctx = setup(w, progress, timings, nodes, prints)
    iterations = w.iterations(args.seconds)
    plain = train_and_eval(ctx, w, args.seed, iterations, progress)
    with tracer:
        run = train_and_eval(ctx, w, args.seed, iterations, progress, tracer)
    bad.extend(check_run(plain) + check_run(run))
    if (plain.loss_trace() != run.loss_trace() or plain.evals != run.evals
            or plain.train_nodes != run.train_nodes
            or plain.eval_nodes != run.eval_nodes):
        bad.append("traced run differs from the untraced run")

    critic_phases = ("train", "eval")
    if Summary(tracer.spans).calls("critic.value") == 0:
        with tracer:
            critic_probe(ctx, run, args.seed, tracer)
        critic_phases = ("probe",)
    s = Summary(tracer.spans, pacer.seconds)
    tracer.write(spans_path)

    steps = run.steps
    evals = len(run.eval_spans)

    def us(name, self_time=False, phases=("train", "eval")):
        return 1e6 * s.per_call(name, phases, self_time)

    def ms(name):
        return 1e3 * s.per_call(name)

    def per_step(name):
        return s.calls(name) / steps

    rate = steps / run.train_seconds(pacer.seconds)
    plain_rate = steps / plain.train_seconds(pacer.seconds)
    fit_s = s.seconds("env.fit_response_model", ("setup",))
    metrics = {
        "autodiff.nodes_per_step": (run.train_nodes / steps, "count"),
        "autodiff.nodes_per_eval_step": (run.eval_nodes[0] / run.eval_steps(),
                                         "count"),
        "autodiff.rollout_nodes_per_step": (s.nodes("trainer.rollout") / steps,
                                            "count"),
        "autodiff.update_nodes_per_transition": (
            s.nodes("trainer.train_step") / steps, "count"),
        "autodiff.setup_nodes": (nodes[0], "count"),
        "autodiff.backward.calls": (s.calls("autodiff.backward"), "count"),
        "autodiff.backward.ms": (ms("autodiff.backward"), "ms"),
        "optim.step.calls": (s.calls("optim.step"), "count"),
        "optim.step.ms": (ms("optim.step"), "ms"),
        "tokenizer.fit_codebook.s": (
            s.seconds("tokenizer.fit_codebook", ("setup",)), "s"),
        "tokenizer.sid_matrix.calls_per_step": (per_step("tokenizer.sid_matrix"),
                                                "count"),
        "tokenizer.sid_matrix.us": (us("tokenizer.sid_matrix"), "us"),
        "encoder.encode.calls_per_step": (per_step("encoder.encode"), "count"),
        "encoder.encode.us": (us("encoder.encode"), "us"),
        "policy.forward.calls_per_step": (per_step("policy.forward"), "count"),
        "policy.forward.us": (us("policy.forward"), "us"),
        "policy.select_slate.us": (us("policy.select_slate", self_time=True), "us"),
        "policy.select_slate.candidates_per_call": (
            s.work("policy.select_slate") / s.calls("policy.select_slate"), "count"),
        "critic.value.calls_per_step": (per_step("critic.value"), "count"),
        "critic.value.us": (us("critic.value", phases=critic_phases), "us"),
        "critic.aggregate.us": (us("critic.aggregate", phases=critic_phases), "us"),
        "critic.target_value.us": (us("critic.target_value", phases=critic_phases),
                                   "us"),
        "critic.target_update.us": (us("critic.target_update",
                                       phases=critic_phases), "us"),
        "env.generate_synthetic.s": (
            s.seconds("env.generate_synthetic", ("setup",)), "s"),
        "env.fit_response_model.s": (fit_s, "s"),
        "env.fit_response_model.records_per_s": (
            s.work("env.fit_response_model", ("setup",)) / fit_s, "records/s"),
        "env.step.us": (us("env.step", self_time=True), "us"),
        "trainer.rollout.self_ms_per_step": (
            1e3 * s.self_seconds("trainer.rollout") / steps, "ms"),
        "trainer.train_step.self_ms_per_transition": (
            1e3 * s.self_seconds("trainer.train_step") / steps, "ms"),
        "trainer.evaluate.s": (s.seconds("trainer.evaluate", ("eval",)) / evals, "s"),
        "trainer.updates": (len(run.log.rows), "count"),
        "trainer.steps": (steps, "count"),
        "trainer.eval_reward": (run.eval_reward(), "reward"),
        "trace.train_steps_per_s": (rate, "steps/s"),
        "trace.untraced_train_steps_per_s": (plain_rate, "steps/s"),
        "trace.overhead_pct": (100.0 * (plain_rate / rate - 1.0), "%"),
        "trace.span_errors": (s.errors, "count"),
    }
    info = {
        "eval_reward": run.eval_reward(),
        "critic_phases": list(critic_phases),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "node_counts": {"setup": nodes[0], "train": plain.train_nodes,
                        "eval": plain.eval_nodes[0]},
    }
    return metrics, info


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}_seed{args.seed}_trace{args.trace}"
    trainings, setups = (2, 1) if args.trace else (1, SETUP_REPEATS)
    progress = Progress(planned=setups + trainings * EVAL_REPEATS * w.eval_episodes)
    bad: list[str] = []
    metrics, info = {}, {}
    pacer = Pacer()
    try:
        with pacer:
            if args.trace:
                metrics, info = per_layer(w, args, progress, bad, pacer,
                                          OUT / f"spans_{tag}.jsonl.gz")
            else:
                metrics, info = end_to_end(w, args, progress, bad, pacer)
        info["speed_samples"] = len(pacer.costs)
    except Exception:
        traceback.print_exc()
        bad.append("run aborted")
        metrics = {}
    attempted, failed = progress.counts()
    prov = provenance()
    if "node_counts" in info:
        bad.extend(check_node_counts(
            f"{w.name}/seed{args.seed}/{w.iterations(args.seconds)}steps/"
            f"src-{prov['src_sha256'][:16]}",
            info["node_counts"]))
    if failed:
        bad.append(f"{failed} of {attempted} operations failed")

    result = {"correct": not bad, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "problems": bad, "info": info,
              "provenance": prov, **result}
    (OUT / f"result_{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {w.name} variant {w.variant} seed {args.seed} "
          f"(agent seed {AGENT_SEED + args.seed}) trace {args.trace}")
    print(f"numpy {prov['numpy']}, python {prov['python']}, {prov['nproc']} cpus "
          f"({prov['cpu_model']}), threads {prov['threads']}")
    for key in ("eval_reward", "update_samples", "steps", "node_counts"):
        if key in info:
            print(f"{key}: {info[key]}")
    for name, (value, unit) in info.get("wall", {}).items():
        print(f"  {name + ' (wall clock)':45s} {value:14.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    for problem in bad:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
