"""Benchmark of the cylinderstat command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 50 --trace 0

--trace 0 runs the workload's command mix as a closed loop, one client and
one `cylinderstat` child process at a time, and reports end-to-end metrics.
--trace 1 drives the same mix in-process through `cylinderstat.cli.main`,
alternating untraced and traced passes, and reports per-layer metrics from
spans recorded around the layer calls (see tracing.py).  Every command's
output goes through the correctness gate (gate.py).  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  Full
results, with provenance, go to .perfbench_out/results/, and spans to
.perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

COMMAND_METRICS = ("check", "check_dense", "solenoid", "reduce", "construct", "simulate")
# Reported on the last line: only metrics every workload measures, because
# the last line must carry the same names on every workload.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER = ("cli.import_s", "serialize.load_s", "serialize.load_calls",
             "families.construct_s", "families.construct_calls",
             "independence.grid_tuples", "independence.residual_calls",
             "independence.residual_tuples", "solenoid.pullback_tuples",
             "montecarlo.draws", "montecarlo.replicates",
             "cli.errors", "serialize.errors", "families.errors", "charfn.errors",
             "independence.errors", "solenoid.errors", "fdiff.errors",
             "montecarlo.errors")


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, work: Path, env: dict):
    """(exit code, wall seconds, max RSS in MB, stdout, stderr) of one child process.

    os.wait4 reads the child's own rusage, so the RSS is this child's peak.
    """
    out_path, err_path = work / ".stdout", work / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=work, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, elapsed, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def cli_args(op) -> list:
    return [sys.executable, "-m", "cylinderstat.cli", *op.args]


def judged(op, index: int, exit_code: int, stdout: str, stderr: str) -> dict:
    problems, report = gate.judge(op, exit_code, stdout, stderr)
    tuples = op.tuples
    if op.args[0] == "check" and report and not problems:
        tuples = report["independence"]["grid_size"]
    return {"op": index, "metric": op.metric, "exit": exit_code,
            "problems": problems, "tuples": tuples}


def build_inputs(work: Path, workload: str, seed: int):
    shutil.rmtree(work, ignore_errors=True)
    return workloads.build(work, workload, seed)


# --------------------------------------------------------------------------
# Untraced run: CLI children, end-to-end metrics


def untraced_run(work: Path, workload: str, seed: int, seconds: float):
    env = child_env()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = build_inputs(work, workload, seed)
        code, _, _, _, err = run_child([sys.executable, "-c", "import cylinderstat.cli"],
                                       work, env)
        if code != 0:
            raise RuntimeError(f"warm-up import failed:\n{err}")
        setup_times.append(time.perf_counter() - start)

    samples = []
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(ops)
        # After one full pass, start a command only if it should end in time.
        if k >= len(ops):
            last = next(s for s in reversed(samples) if s["op"] == i)
            if time.perf_counter() - start + last["elapsed"] > seconds:
                break
        code, elapsed, rss, out, err = run_child(cli_args(ops[i]), work, env)
        sample = judged(ops[i], i, code, out, err)
        sample.update(elapsed=elapsed, rss_mb=rss)
        samples.append(sample)
        k += 1
    measured = time.perf_counter() - start

    per_op = [[s["elapsed"] for s in samples if s["op"] == i] for i in range(len(ops))]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(statistics.fmean(xs) for xs in per_op),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
    }
    counts = {"setup_s": len(setup_times), "wall_s": len(samples),
              "peak_rss_mb": len(samples)}
    for name in COMMAND_METRICS:
        xs = [s["elapsed"] for s in samples if s["metric"] == name]
        if xs:
            metrics[f"{name}_s"] = statistics.fmean(xs)
            counts[f"{name}_s"] = len(xs)
    certified = [s for s in samples if s["metric"] in ("check", "check_dense", "solenoid")]
    if certified:
        metrics["tuples_per_s"] = (sum(s["tuples"] for s in certified)
                                   / sum(s["elapsed"] for s in certified))
        counts["tuples_per_s"] = len(certified)
    failed = sum(1 for s in samples if s["problems"])
    metrics["fail_ratio"] = failed / len(samples)
    counts["fail_ratio"] = len(samples)
    detail = {"measured_s": measured, "setup_runs_s": setup_times, "samples": counts,
              "commands": samples,
              "mix": [{"metric": op.metric, "args": list(op.args)} for op in ops]}
    return metrics, len(samples), failed, detail


# --------------------------------------------------------------------------
# Traced run: in-process passes, per-layer metrics


def run_inprocess(op, root_span):
    """(exit code, stdout, stderr) of one command run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with root_span:
                cylinderstat.cli.main(list(op.args), standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def import_seconds(cwd: Path) -> float:
    """Fresh-interpreter import of cylinderstat.cli minus a bare interpreter start."""
    env = child_env()
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_child([sys.executable, "-c", "pass"], cwd, env)[1])
        full.append(run_child([sys.executable, "-c", "import cylinderstat.cli"], cwd, env)[1])
    return statistics.median(full) - statistics.median(bare)


def empirical_nonull_seconds(ops) -> float:
    """empirical_independence with bootstrap=0 on the simulate fixtures, untraced.

    Draws the samples as the CLI does, then times only the call.
    """
    from cylinderstat import montecarlo, serialize
    seed, count = workloads.SIMULATE_SEED, workloads.SIMULATE_COUNT
    total = 0.0
    for op in ops:
        fixture = op.args[op.args.index("--fixture") + 1]
        fam = serialize.family_from_fixture(serialize.load(fixture))
        if fam.kind == "torus":
            samples = [montecarlo.sample_torus_twisted(cf, count, seed + j)
                       for j, cf in enumerate(fam.cfs)]
        else:
            samples = [montecarlo.sample_line_gaussian(float(cf.sigma), float(fam.omega),
                                                       count, seed + j)
                       for j, cf in enumerate(fam.cfs)]
        start = time.perf_counter()
        montecarlo.empirical_independence(samples, fam.matrix, bootstrap=0, seed=seed,
                                          kind=fam.kind)
        total += time.perf_counter() - start
    return total


def traced_run(work: Path, workload: str, seed: int, seconds: float, spans_path: Path):
    tracer = tracing.Tracer(workloads)
    import_s = import_seconds(OUT)
    walls = {False: [], True: []}
    pass_metrics, commands = [], []
    origin = start = time.perf_counter()
    n = 0
    while True:
        traced = n % 2 == 1
        # Passes come in pairs, untraced then traced; start a pair only if it fits.
        if n >= 2 and not traced and (time.perf_counter() - start
                                      + walls[False][-1] + walls[True][-1] > seconds):
            break
        first_span = len(tracer.spans)
        if traced:
            tracer.install()
        try:
            pass_start = time.perf_counter()
            setup_span = (tracer.root(f"p{n}.setup", "setup", "setup") if traced
                          else contextlib.nullcontext())
            with setup_span:
                ops = build_inputs(work, workload, seed)
            for i, op in enumerate(ops):
                root_span = (tracer.root(f"p{n}.op{i}", f"cli.{op.args[0]}", "cli")
                             if traced else contextlib.nullcontext())
                code, out, err = run_inprocess(op, root_span)
                commands.append(dict(judged(op, i, code, out, err), traced=traced, run=n))
            walls[traced].append(time.perf_counter() - pass_start)
        finally:
            tracer.uninstall()
        if traced:
            pass_metrics.append(tracing.layer_metrics(tracer.spans[first_span:]))
        n += 1
    tracer.write(spans_path, origin)

    metrics = {"cli.import_s": import_s}
    for name in pass_metrics[0]:
        values = [m[name] for m in pass_metrics if name in m]
        if len(values) == len(pass_metrics):
            metrics[name] = statistics.median(values)
    if workload == "simulate":
        metrics["montecarlo.empirical_nonull_s"] = empirical_nonull_seconds(ops)
    untraced_wall, traced_wall = statistics.median(walls[False]), statistics.median(walls[True])
    failed = sum(1 for c in commands if c["problems"])
    detail = {
        "passes": {"untraced_s": walls[False], "traced_s": walls[True]},
        "trace_overhead_s": traced_wall - untraced_wall,
        "trace_overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "samples": {"traced_passes": len(walls[True]), "import_repeats": IMPORT_REPEATS},
        "commands": commands,
    }
    return metrics, len(commands), failed, detail


# --------------------------------------------------------------------------
# Provenance and output


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, samples: dict) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "samples": samples,
    }


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    prov = result["provenance"]
    print(f"  {prov['nproc']} CPUs, {prov['cpu_model']}; Python {prov['python']}, "
          f"numpy {prov['numpy']}, click {prov['click']}; commit {prov['git_commit']}")
    for name, value in result["metrics"].items():
        n = prov["samples"].get(name)
        print(f"  {name:40s} {value:14.6g} {unit(name):6s}" + (f"  n={n}" if n else ""))
    if result["trace"]:
        d = result["detail"]
        print(f"  trace overhead {d['trace_overhead_s']:.4f} s "
              f"({100 * d['trace_overhead_share']:.1f}% of an untraced pass); "
              f"{d['spans']} spans in {d['spans_file']}")
    for c in result["detail"]["commands"]:
        if c["problems"]:
            print(f"  FAILED op {c['op']} ({c['metric']}): {'; '.join(c['problems'])}")
    print(f"  result file {result['result_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: the running child is killed and reaped,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cylinderstat" / "cli.py").is_file():
        print(f"error: no cylinderstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    global cylinderstat, tracing, workloads
    import cylinderstat.cli
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    for sub in ("results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed, detail = traced_run(
                work, args.workload, args.seed, args.seconds, OUT / "spans" / f"{tag}.jsonl")
            reported = PER_LAYER
        else:
            metrics, attempted, failed, detail = untraced_run(
                work, args.workload, args.seed, args.seconds)
            reported = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result_file = OUT / "results" / f"{tag}.json"
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": failed == 0, "attempted": attempted,
              "failed": failed, "result_file": str(result_file.relative_to(ROOT)),
              "provenance": provenance(args.seed, detail.pop("samples")),
              "metrics": metrics, "detail": detail}
    with open(result_file, "w") as fh:
        json.dump(result, fh, indent=1)
    print_summary(result)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit(name)} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
