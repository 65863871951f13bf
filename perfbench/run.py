#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nsslice CLI.

Run from the repository root:

    python3 perfbench/run.py --workload postproc-64 --seed 1 --seconds 14 --trace 0

The benchmark writes seeded inputs (untimed), then runs the workload's chain
of ``python3 -m nsslice.cli`` commands as child processes, one at a time,
for about --seconds (at least one chain).  Every invocation's outputs
are checked independently (checks.py).

--trace 0 reports the end-to-end metrics, measured with tracing off:
  wall_s               mean time from launching the chain to its last exit,
                       at the CPU's full speed (speed.py)
  setup_s              median of three fresh-interpreter ``import nsslice.cli``,
                       at the CPU's full speed
  peak_rss_mb          median over chains of the largest child max-RSS (wait4)
  ops_ok_ratio         invocations that passed every output check / attempted
  checks_passed_ratio  certificate verdicts reporting PASS / verdicts reported

--trace 1 runs one untraced chain and then the same chain with every command
run in-process under tracer.py, and reports per-layer metrics derived from
the spans and counters, plus the tracing overhead (traced minus untraced
full-speed wall).  Spans are written to .bench_work/traces/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the provenance.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; children inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 170.0    # the whole run, set-up included, must end within 180 s
SETUP_REPEATS = 3


@dataclass
class Chain:
    """One pass over a workload's commands."""

    start: float = 0.0
    end: float = 0.0
    full_s: float = 0.0     # end - start at the CPU's full speed
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    verdicts_passed: int = 0
    verdicts_reported: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)   # parsed span files of a traced chain


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["NSSLICE_LOG"] = "error"
    return env


def spawn(argv: list, log: Path, env: dict, deadline: float) -> tuple[int, float]:
    """Run one child to completion; returns (exit code, max RSS in MB).

    The child is killed at the deadline, which reads as a negative exit code.
    """
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_chain(wl: Workload, inp: dict, work: Path, env: dict, seed: int,
              deadline: float, traced: bool) -> Chain:
    work.mkdir(parents=True)
    chain = Chain()
    codes = []
    start = time.perf_counter()
    for i, cmd in enumerate(wl.commands):
        head = [sys.executable, str(HERE / "tracer.py"), str(work / f"spans-{i}.json")] \
            if traced else [sys.executable, "-m", "nsslice.cli"]
        argv = head + [cmd.name, "--out", str(work / cmd.out), "--seed", str(seed)]
        code, rss = spawn(argv + cmd.args(inp, work), work / f"log-{i}.txt", env, deadline)
        codes.append(code)
        chain.peak_rss_mb = max(chain.peak_rss_mb, rss)
    chain.start, chain.end = start, time.perf_counter()
    for i, (cmd, code) in enumerate(zip(wl.commands, codes)):
        outcome = checks.check(cmd.name, work / cmd.out, code, inp)
        if traced:
            try:
                chain.spans.append(json.loads((work / f"spans-{i}.json").read_text()))
            except (OSError, ValueError) as exc:
                outcome.failures.append(f"tracer wrote no spans: {exc}")
        chain.attempted += 1
        chain.failed += 0 if outcome.ok else 1
        chain.failures += [f"{cmd.name}: {msg}" for msg in outcome.failures]
        chain.verdicts_passed += outcome.verdicts_passed
        chain.verdicts_reported += outcome.verdicts_reported
    return chain


def measure_setup(env: dict, work: Path, deadline: float) -> list:
    """(start, end) of each fresh-interpreter import of nsslice.cli."""
    spans = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _ = spawn([sys.executable, "-c", "import nsslice.cli"],
                        work / f"setup-{i}.txt", env, deadline)
        spans.append((start, time.perf_counter()))
        if code != 0:
            raise RuntimeError(f"import nsslice.cli exited {code}")
    return spans


def provenance(root: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nsslice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "sympy": metadata.version("sympy"),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(chains: list, setup_s: float) -> dict:
    attempted = sum(c.attempted for c in chains)
    failed = sum(c.failed for c in chains)
    reported = sum(c.verdicts_reported for c in chains)
    return {
        "wall_s": metric(statistics.fmean(c.full_s for c in chains), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(statistics.median(c.peak_rss_mb for c in chains), "MB"),
        "ops_ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "checks_passed_ratio": metric(
            sum(c.verdicts_passed for c in chains) / reported if reported else 0.0, "ratio"
        ),
    }


def run_chains(wl: Workload, inp: dict, work: Path, env: dict, seed: int,
               deadline: float, seconds: float) -> list:
    """Repeat the chain for about `seconds`, at least once."""
    chains = []
    measure_start = time.perf_counter()
    while True:
        chains.append(run_chain(wl, inp, work / f"chain-{len(chains)}", env,
                                seed, deadline, False))
        shutil.rmtree(work / f"chain-{len(chains) - 1}")
        # run another chain only if it would end nearer to `seconds` than stopping now
        now = time.perf_counter()
        walls = [c.end - c.start for c in chains]
        if now - measure_start + 0.5 * statistics.median(walls) >= seconds:
            return chains
        if now + 1.25 * max(walls) > deadline:
            return chains


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32    # numpy and the CLI take nonnegative seeds
    deadline = time.perf_counter() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "nsslice" / "cli.py").is_file():
        print(f"error: {root} holds no src/nsslice; run from the repository root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    prov = provenance(root, seed)
    work = root / ".bench_work" / f"{wl.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env(root)
    cpu = speed.pin_to_one_cpu()
    try:
        with speed.SpeedProbe() as probe:
            inp = inputs.generate(wl.inputs, work / "inputs", seed)
            if args.trace:
                chains = [run_chain(wl, inp, work / "plain", env, seed, deadline, False),
                          run_chain(wl, inp, work / "traced", env, seed, deadline, True)]
            else:
                setup_spans = measure_setup(env, work, deadline)
                chains = run_chains(wl, inp, work, env, seed, deadline, args.seconds)
        for c in chains:
            c.full_s = probe.full_speed_s(c.start, c.end)
        if args.trace:
            metrics, trace = layers.per_layer(wl, chains[1].spans,
                                              chains[0].full_s, chains[1].full_s)
            failed = sum(c.failed for c in chains)
            attempted = sum(c.attempted for c in chains)
            metrics["ops_failed_ratio"] = metric(failed / attempted, "ratio")
            traces = root / ".bench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace["provenance"] = prov
            (traces / f"{wl.name}-s{seed}.json").write_text(json.dumps(trace))
        else:
            setup_s = statistics.median(probe.full_speed_s(start, end)
                                        for start, end in setup_spans)
            metrics = end_to_end(chains, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.attempted for c in chains)
    failed = sum(c.failed for c in chains)
    for c in chains:
        for msg in c.failures:
            print(f"check failed: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        label = " (computed)" if name in layers.COMPUTED else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{label}")
    print(json.dumps({
        "provenance": prov, "workload": wl.name, "why": wl.why, "cpu": cpu,
        "chain_walls_s": [c.end - c.start for c in chains],
        "chain_full_speed_s": [c.full_s for c in chains],
        "speed_samples": len(probe.times), "kernel_ms_median": 1e3 * statistics.median(probe.times),
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
