"""Benchmark of the pairtraj CLI on seeded synthetic workloads.

Run from the repository root:

    python3 bench/run.py --workload fit-mds --seed 0 --seconds 40 --trace 0

The package is imported from `src/` (it need not be installed).  One client
runs each workload closed-loop, as an analyst would: every subcommand is a
fresh `python -m pairtraj.cli` process started when the previous one exits,
with `--workers` at its default (all cores).  The benchmark starts no threads.

With `--trace 0` the run measures the end-to-end metrics with tracing off:
`pipeline_s` (the whole chain), `core_s` (the workload's heavy steps, see
`workloads.WORKLOADS`), `setup_s` (median of several input builds),
`import_x` (start-up of `pairtraj --version` as a multiple of a
`python -c "import numpy"` launch made just after it; median over pairs
spread across the run) and `peak_rss_mb` (the largest per-step child max
RSS).  The chain repeats while another pass is expected to end within
`--seconds`; times are medians over the passes.  Every metric exists on
every workload, so the per-step times (distances, cluster, stability,
segment, wasserstein), the final model's objective, the raw launch times
behind `import_x` and the failure rate are printed on the lines before the
result.
With `--trace 1` it runs the same chain untraced, then replays the same argv
lists in-process through `pairtraj.cli.main` with spans around every layer
boundary, and reports the per-layer metrics; the two runs' artifacts must be
byte-identical once `"created"` is blanked.  Both modes check every artifact.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers
import spans
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
MIN_IMPORT_PAIRS = 8
# the base of import_x: interpreter start-up plus numpy, none of the package
NUMPY_LAUNCH = (sys.executable, "-c", "import numpy")
STEP_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def launch(argv: list[str], cwd: str, log) -> dict:
    """Run one child to completion; wall time plus its own rusage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=_child_env(), stdout=subprocess.DEVNULL, stderr=log
    )
    deadline = start + STEP_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
    except BaseException:
        # interrupted (SIGTERM exits through here): the child must not outlive us
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def _cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "pairtraj.cli", *argv]


def _keep_model(run_dir: str, step: workloads.Step) -> None:
    out = os.path.join(run_dir, "out")
    if step.keep_model_as and os.path.exists(os.path.join(out, "model.json")):
        shutil.copyfile(os.path.join(out, "model.json"), os.path.join(out, step.keep_model_as))


def launch_pair(log) -> tuple[float, float]:
    """Wall times of `pairtraj --version` and, right after it, the numpy launch.

    The host's speed swings by tens of percent within seconds and minutes, and
    both launches of a pair swing together, so their ratio holds still where
    either time alone does not.
    """
    package = launch(_cli("--version"), ROOT, log)["wall_s"]
    return package, launch(list(NUMPY_LAUNCH), ROOT, log)["wall_s"]


def run_chain(workload: str, seed: int, run_dir: str, log, import_pairs=None) -> list[dict]:
    """One pass of the workload's CLI chain.

    With `import_pairs`, a launch pair follows every step, so the start-up
    samples spread over the whole run rather than one moment of it.
    """
    os.makedirs(run_dir)
    records = []
    for step in workloads.steps(workload, seed):
        record = launch(_cli(*step.argv), run_dir, log)
        records.append({"step": step.argv[0], "role": step.role, **record})
        _keep_model(run_dir, step)
        if import_pairs is not None:
            import_pairs.append(launch_pair(log))
    return records


def run_traced(workload: str, seed: int, run_dir: str, recorder: spans.Recorder) -> tuple[list, float]:
    """In-process replay of the chain; returns per-step records and its wall time."""
    from pairtraj import cli

    os.makedirs(run_dir)
    records = []
    here = os.getcwd()
    os.chdir(run_dir)
    start = time.perf_counter()
    try:
        for step in workloads.steps(workload, seed):
            index = recorder.open(f"cli.step.{step.argv[0]}")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(list(step.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            finally:
                recorder.close(index)
            span = recorder.spans[index]
            records.append({"step": step.argv[0], "exit": code, "wall_s": span["end"] - span["start"]})
            _keep_model(".", step)
    finally:
        wall = time.perf_counter() - start
        os.chdir(here)
    return records, wall


_CREATED = re.compile(rb'"created": "[^"]*"')


def _artifacts(out: str) -> dict[str, bytes]:
    found = {}
    for base, _, files in os.walk(out):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, out)] = _CREATED.sub(b'"created": "-"', handle.read())
    return found


def check_identical(tally: workloads.Tally, first: str, second: str) -> None:
    one, two = _artifacts(first), _artifacts(second)
    tally.check(sorted(one) == sorted(two), f"same artifact set: {sorted(one)} vs {sorted(two)}")
    for name in sorted(set(one) & set(two)):
        tally.check(one[name] == two[name], f"{name} is byte-identical across runs")


def timed_setup(workload: str, seed: int, work: str, tally: workloads.Tally) -> tuple[dict, float]:
    """Build the inputs SETUP_REPEATS times; median time, and the first copy kept."""
    times, truth = [], None
    for rep in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup-{rep}")
        start = time.perf_counter()
        planted = workloads.setup(workload, directory, seed)
        times.append(time.perf_counter() - start)
        truth = truth or planted
    first = os.path.join(work, "setup-0")
    _, mismatch, errors = filecmp.cmpfiles(
        first, os.path.join(work, f"setup-{SETUP_REPEATS - 1}"), os.listdir(first), shallow=False
    )
    tally.check(not mismatch and not errors, "inputs built twice from one seed are identical")
    os.rename(first, os.path.join(work, "inputs"))
    for rep in range(1, SETUP_REPEATS):
        shutil.rmtree(os.path.join(work, f"setup-{rep}"))
    return truth, statistics.median(times)


def _git_commit() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def end_to_end(spec, chains, setup_s, import_pairs) -> dict:
    """Medians over the run's chains; peak RSS is the largest of any step."""
    return {
        "pipeline_s": statistics.median(sum(r["wall_s"] for r in c) for c in chains),
        "core_s": statistics.median(
            sum(r["wall_s"] for r in c if r["role"] in spec.core_roles) for c in chains
        ),
        "setup_s": setup_s,
        "import_x": statistics.median(package / numpy for package, numpy in import_pairs),
        "peak_rss_mb": max(r["max_rss_mb"] for c in chains for r in c),
    }


def _scipy_import_s(work: str) -> float:
    """Cumulative `scipy.optimize` import time in a fresh interpreter (median of 3)."""
    values = []
    for _ in range(3):
        trace_file = os.path.join(work, "importtime.txt")
        with open(trace_file, "wb") as handle:
            launch([sys.executable, "-X", "importtime", "-c", "import pairtraj.cli"], work, handle)
        with open(trace_file) as handle:
            for line in handle:
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2] == "scipy.optimize":
                    values.append(int(parts[1]) / 1e6)
    return statistics.median(values) if values else 0.0


def traced_run(workload: str, seed: int, work: str, chain: list[dict], tally) -> tuple[dict, list]:
    spec = workloads.WORKLOADS[workload]
    recorder = spans.Recorder()
    patches = spans.Patches()
    layers.instrument(recorder, patches)
    try:
        replay, replay_wall = run_traced(workload, seed, os.path.join(work, "traced"), recorder)
    finally:
        patches.undo()

    summary = spans.summarize(recorder.spans)
    by_name = summary["by_name"]
    for name in spec.must_fire:
        tally.check(by_name.get(name, {}).get("calls", 0) > 0, f"{name} fired on {workload}")
    roots = [s for s in recorder.spans if s["parent"] is None]
    root_s = sum(s["end"] - s["start"] for s in roots)
    tally.check(
        all(s["name"].startswith("cli.step.") for s in roots) and summary["misnested"] == 0,
        "every span nests inside its parent; only CLI steps are roots",
    )
    self_s = sum(entry["self_s"] for entry in by_name.values()) - summary["overlap_s"]
    tally.check(
        abs(self_s - root_s) <= 1e-6 * root_s + 1e-6 and root_s >= 0.98 * replay_wall,
        f"self times {self_s:.4f}s account for the traced wall {replay_wall:.4f}s",
    )
    check_identical(tally, os.path.join(work, "cli-0", "out"), os.path.join(work, "traced", "out"))

    extra = {
        "nproc": len(os.sched_getaffinity(0)),
        "cli.step_overhead_s": sum(r["wall_s"] for r in chain) - sum(r["wall_s"] for r in replay),
        "trace.overhead_s": spans.span_cost_s() * len(recorder.spans),
        "cli.import.scipy_s": _scipy_import_s(work),
        "procrustes.distance_matrix.w1_s": 0.0,
        "segmentation.knot_recovery": 0.0,
    }
    if workload == "segment-compare":
        with open(os.path.join(work, "traced", "out", "knots.json")) as handle:
            found = json.load(handle)["encounters"]
        short = [v["knots"] for k, v in found.items() if k.startswith("enc-")]
        hits = sum(workloads.checks.knots_match(k, workloads.SHORT_KNOTS) for k in short)
        extra["segmentation.knot_recovery"] = hits / len(short)
    else:
        from pairtraj.procrustes import distance_matrix
        from pairtraj.trajectory import read_encounters_csv, resample

        rows = read_encounters_csv(os.path.join(work, "inputs", "data.csv"))
        data = [resample(inter, workloads.T_FAMILY) for _, inter in rows]
        start = time.perf_counter()
        distance_matrix(data, workers=1)
        extra["procrustes.distance_matrix.w1_s"] = time.perf_counter() - start

    with open(os.path.join(WORK, f"spans-{workload}-seed{seed}.json"), "w") as handle:
        json.dump(recorder.spans, handle)
    metrics = layers.layer_metrics(summary, recorder, extra)
    top = sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    for name, entry in top:
        print(f"self {entry['self_s']:9.4f} s  total {entry['s']:9.4f} s  calls {entry['calls']:6d}  {name}")
    return metrics, replay


def _final_objective(path: str) -> float | None:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)["objective"]


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so that children are killed and reaped and
    # the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "pairtraj", "cli.py")):
        print(f"bench: no package at {SRC}/pairtraj; run from the repository root", file=sys.stderr)
        return 2
    spec_file = _load_spec()
    sys.path.insert(0, SRC)

    spec = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = workloads.Tally()
    try:
        with open(os.path.join(work, "stderr.txt"), "wb") as log:
            facts = machine_facts()
            truth, setup_s = timed_setup(args.workload, args.seed, work, tally)
            measure_start = time.perf_counter()
            first = os.path.join(work, "cli-0")
            import_pairs = None if args.trace else []
            chains = [run_chain(args.workload, args.seed, first, log, import_pairs)]
            workloads.check_outputs(args.workload, tally, first, truth, args.seed)
            objective = _final_objective(os.path.join(first, "out", "model.json"))
            if args.trace:
                metrics, replay = traced_run(args.workload, args.seed, work, chains[0], tally)
                wanted = spec_file["per_layer"]
            else:
                # the chain repeats while another pass, launch pairs included, is
                # expected to end within --seconds, and every repeat must write
                # the first one's artifacts
                while (
                    (time.perf_counter() - measure_start) * (len(chains) + 1) / len(chains)
                    <= args.seconds
                ):
                    again = os.path.join(work, f"cli-{len(chains)}")
                    chains.append(run_chain(args.workload, args.seed, again, log, import_pairs))
                    check_identical(tally, os.path.join(first, "out"), os.path.join(again, "out"))
                while len(import_pairs) < MIN_IMPORT_PAIRS:
                    import_pairs.append(launch_pair(log))
                metrics = end_to_end(spec, chains, setup_s, import_pairs)
                wanted = spec_file["end_to_end"]
                replay = []
        steps_run = [r for c in chains for r in c] + replay
        failed_steps = [r for r in steps_run if r["exit"] != 0]
        attempted = len(steps_run) + tally.attempted
        failed = len(failed_steps) + len(tally.failures)
        if failed:
            with open(os.path.join(work, "stderr.txt"), errors="replace") as handle:
                sys.stderr.write(handle.read()[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for record in chains[0]:
        print(
            f"step {record['step']:<12} {record['role']:<12} exit {record['exit']}  "
            f"wall {record['wall_s']:8.4f} s  cpu {record['cpu_s']:8.4f} s  "
            f"rss {record['max_rss_mb']:7.1f} MB"
        )
    for k, chain in enumerate(chains):
        core = sum(r["wall_s"] for r in chain if r["role"] in spec.core_roles)
        print(f"chain {k}: pipeline {sum(r['wall_s'] for r in chain):.4f} s  core {core:.4f} s")
    for what in tally.failures:
        print(f"FAILED check: {what}", file=sys.stderr)
    for record in failed_steps:
        print(f"FAILED step: {record['step']} exit {record['exit']}", file=sys.stderr)
    summary = {
        f"{role}_s": statistics.median(
            sum(r["wall_s"] for r in c if r["role"] == role) for c in chains
        )
        for role in dict.fromkeys(r["role"] for r in chains[0])
    }
    summary["chains"] = len(chains)
    if objective is not None:
        summary["cluster_objective"] = objective
    print("steps: " + json.dumps(summary, sort_keys=True))
    if import_pairs:
        package, numpy_s = (statistics.median(times) for times in zip(*import_pairs))
        print(
            f"import_s: {package:.4f} s (median of {len(import_pairs)} `pairtraj --version` "
            f"launches; the numpy launch took {numpy_s:.4f} s)"
        )
    print(f"failure_rate: {failed / attempted:.6f} ({failed} of {attempted} steps and checks)")
    print("facts: " + json.dumps(facts, sort_keys=True))

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
