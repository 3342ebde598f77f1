"""polyharm benchmark: the real CLI, driven in process, one workload at a time.

Run from the repository root:

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Each workload calls ``polyharm.cli.main(argv)`` in a closed loop: one client,
the next invocation after the previous returns, every invocation identical.
With ``--trace 0`` the run reports the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics from a
separate traced phase.  The last line of stdout is one JSON object.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before NumPy and polyharm load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WORKLOADS = ("verify_small", "verify_large", "interp_eval", "field")
# A fresh process's speed depends on its memory layout and hash seed (here by
# up to a quarter between processes), so the timed loop of a run is split over
# several fresh worker processes, started one after another.
WORKERS = 3
MIN_ITERATIONS = 2    # timed invocations per worker or traced phase, even past the deadline
CHILD_TIMEOUT_S = 170


def bootstrap() -> None:
    """Pin BLAS and OpenMP to one thread and load polyharm from this checkout's src."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "polyharm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polyharm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyharm

    if not Path(polyharm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: polyharm loaded from {polyharm.__file__}, not {SRC}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


@dataclass
class Call:
    """One CLI invocation: timing, output digest and what went wrong, if anything."""

    wall: float
    cpu: float
    digest: str
    stdout: str
    error: str


def invoke(argv, outputs, tracer=None) -> Call:
    """Run ``polyharm.cli.main(argv)`` once, capturing stdout and hashing every output."""
    from polyharm import cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli"):
                    code = cli.main(argv)
    except Exception:
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0 and not error:
        error = f"exit code {code}: {err.getvalue()[-400:]}"
    stdout = out.getvalue()
    digest = hashlib.sha256(stdout.encode())
    written = len(stdout.encode())
    for path in outputs:
        try:
            data = path.read_bytes()
        except OSError as exc:
            error = error or f"missing output {path.name}: {exc}"
            continue
        digest.update(data)
        written += len(data)
    if tracer is not None:
        tracer.count("cli.bytes_out", written)
    return Call(wall, cpu, digest.hexdigest(), stdout, error)


def closed_loop(workload, seconds, reference, problems, tracer=None) -> list:
    """Invoke back to back until ``seconds`` have passed; mark calls whose output differs."""
    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_ITERATIONS or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.iteration = len(calls)
        call = invoke(workload.argv, workload.outputs, tracer)
        if tracer is not None:
            tracer.iteration = None
        if not call.error and call.digest != reference:
            call.error = "output bytes differ from the warm-up"
        if call.error:
            problems.append(f"timed invocation {len(calls)}: {call.error}")
        calls.append(call)
    return calls


def check_outputs(workload, warm, problems):
    """Oracles on the warm-up output, then the byte-identity of other thread counts.

    Returns the extra invocations and whether the warm-up output passed the oracles.
    """
    try:
        found = workload.check(warm.stdout)
    except Exception:
        found = ["output check raised:\n" + traceback.format_exc()]
    problems += found
    calls = []
    for argv in workload.same_output_argv:
        call = invoke(argv, workload.outputs)
        if not call.error and call.digest != warm.digest:
            call.error = f"output differs from the timed argv under: {' '.join(argv)}"
        if call.error:
            problems.append(call.error)
        calls.append(call)
    return calls, not found


@contextlib.contextmanager
def prepared(args):
    """Bootstrap, generate the inputs and run the warm-up: yields (workload, warm call)."""
    bootstrap()
    import workloads

    # the same path in every process: the CLI echoes its output paths to stdout
    workdir = OUT_DIR / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        yield workload, invoke(workload.argv, workload.outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_worker(args) -> int:
    """One fresh process of an end-to-end run: set-up, then a share of the timed loop."""
    with prepared(args) as (workload, warm):
        setup_s = time.perf_counter() - _T0
        problems = [f"warm-up: {warm.error}"] if warm.error else []
        calls, passed = [warm], True
        if args.worker == 0 and not warm.error:
            extra, passed = check_outputs(workload, warm, problems)
            calls += extra
        timed = closed_loop(workload, args.seconds, warm.digest, problems)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": warm.digest,
        "wall": [c.wall for c in timed],
        "cpu": [c.cpu for c in timed],
        "attempted": len(calls) + len(timed),
        "failed": sum(1 for c in calls + timed if c.error),
        "problems": problems,
        "oracles_passed": passed,
        "unit": workload.unit,
        "units": workload.units,
    }))
    return 0


def end_to_end(args):
    """Run the workers one after another; returns (metrics, attempted, failed, problems)."""
    bootstrap()
    workers, problems = [], []
    for index in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
               "--trace", "0", "--worker", str(index)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: worker {index} failed:\n{done.stderr[-2000:]}")
        workers.append(json.loads(done.stdout.splitlines()[-1]))
    attempted = sum(worker["attempted"] for worker in workers)
    failed = 0
    for index, worker in enumerate(workers):
        problems += [f"worker {index}: {p}" for p in worker["problems"]]
        if worker["digest"] != workers[0]["digest"]:
            problems.append(f"worker {index}: output bytes differ from worker 0")
            failed += worker["attempted"]
        else:
            failed += worker["failed"]
    if not workers[0]["oracles_passed"]:
        failed = attempted  # every invocation reproduced, or differed from, a wrong output
    walls = [w for worker in workers for w in worker["wall"]]
    cpus = [c for worker in workers for c in worker["cpu"]]
    units, unit = workers[0]["units"], workers[0]["unit"]
    metrics = {
        "throughput": median(units / w for w in walls),
        "cpu_s": median(cpus),
        "peak_rss_mb": median(worker["peak_rss_mb"] for worker in workers),
        "setup_s": median(worker["setup_s"] for worker in workers),
    }
    print(f"{args.workload}: {len(walls)} timed invocations in {WORKERS} fresh processes, "
          "closed loop, one client")
    print(f"  throughput   {metrics['throughput']:.6g} {unit}/s (median of {len(walls)}; "
          f"{units} {unit} per invocation)")
    print(f"  cpu_s        {metrics['cpu_s']:.6g} s per invocation (median of {len(cpus)})")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.6g} MiB (median of {WORKERS} processes)")
    print(f"  setup_s      {metrics['setup_s']:.6g} s (median of {WORKERS} set-ups)")
    return metrics, attempted, failed, problems


def per_layer(args, names):
    """Untraced then traced closed loops of half the run each, in this process."""
    import tracing

    with prepared(args) as (workload, warm):
        problems = [f"warm-up: {warm.error}"] if warm.error else []
        calls, passed = [warm], True
        if not warm.error:
            extra, passed = check_outputs(workload, warm, problems)
            calls += extra
        plain = closed_loop(workload, args.seconds / 2.0, warm.digest, problems)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            unwrapped = tracing.unwrapped_sites(tracer.originals)
            if unwrapped:
                problems.append(f"import sites left unwrapped: {unwrapped}")
            traced = closed_loop(workload, args.seconds / 2.0, warm.digest, problems, tracer)
        finally:
            tracer.uninstall()

    rows = tracing.layers_by_iteration(tracer)
    for it, row in rows.items():
        for name, want in workload.expected_calls.items():
            if row.get(f"{name}.calls", 0) != want:
                problems.append(f"traced invocation {it}: {row.get(f'{name}.calls', 0)} "
                                f"{name} calls, workload shape implies {want}")
    # a layer the workload never enters reads 0
    metrics = {name: median(row.get(name, 0) for row in rows.values()) for name in names}
    metrics["trace.overhead_s"] = median(c.wall for c in traced) - median(c.wall for c in plain)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}.spans.jsonl", "w") as handle:
        handle.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    print(f"{workload.name}: {len(plain)} untraced and {len(traced)} traced invocations")
    for name in names:
        print(f"  {name:48s} {metrics[name]:.6g}")
    calls += plain + traced
    failed = sum(1 for c in calls if c.error) if passed else len(calls)
    return metrics, len(calls), failed, problems


def run_workload(args) -> int:
    declared = declared_metrics()
    units = declared["per_layer"] if args.trace else declared["end_to_end"]
    if args.trace:
        metrics, attempted, failed, problems = per_layer(args, units)
    else:
        metrics, attempted, failed, problems = end_to_end(args)
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    env = environment(args.seed)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(f"  fail_ratio   {failed / attempted:.4g} ratio ({failed}/{attempted} CLI invocations)")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print("  env " + json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, environment=env,
                  problems=problems)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one table of the results."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=2 * args.seconds + CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    first = results[WORKLOADS[0]]["metrics"]
    print(f"\n{'metric':48s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for metric, spec in first.items():
        print(f"{metric:48s} {spec['unit']:6s}"
              + "".join(f"{results[w]['metrics'][metric]['value']:14.6g}" for w in WORKLOADS))
    print(f"{'fail_ratio':48s} {'ratio':6s}"
          + "".join(f"{results[w]['failed'] / results[w]['attempted']:14.6g}" for w in WORKLOADS))
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": {f"{w}.{m}": v for w, res in results.items() for m, v in res["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.worker is not None:
        return run_worker(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
