"""quasitone benchmark: drives the command line entry point on a workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the repository root (or any checkout of it). The program is
imported from ./src, never from an installed copy. Each pass runs the
workload's fixed command list through quasitone.cli.cli_main in a fresh
child process, one command after another (a closed loop, one client), and
passes repeat until --seconds have gone by. Every artifact is then checked
against its oracle and its SHA-256 compared across the passes, outside the
timed intervals.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics, the tracing overhead,
and writes every span to .perfbench/trace-<workload>-<seed>.json. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread per process: the host has 2 cores and is shared,
# and the passes run one at a time.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3
# a run must end within 180 s: no pass may start that would likely end
# after RUN_CAP, and a pass that hangs is killed after PASS_TIMEOUT
RUN_CAP = 150.0
PASS_TIMEOUT = 100.0
# The end-to-end metrics of the result line (BENCHMARK.json). The command
# latency percentiles, audio_x_rt and fail_frac are printed only: each
# workload's commands fall into a few groups of very different cost, so a
# percentile across them lands on the edge of a group that the seed moves,
# and p90 has fewer than ten samples beyond it on sweep and transform.
RESULT_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def _child_env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def environment(args):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **THREAD_VARS,
    }


def _wait(proc, deadline):
    """Reap the child and return its wait status and rusage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return status, usage
        if time.monotonic() > deadline:
            raise RuntimeError(f"pass still running after {PASS_TIMEOUT} s")
        time.sleep(0.02)


def run_pass(workdir: Path, args, index: int, traced: bool) -> dict:
    """Launch one child pass and wait for it; returns its report plus peak RSS."""
    d = workdir / f"pass{index}"
    d.mkdir()
    with open(d / "child.err", "w", encoding="utf-8") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
             repr(started), "1" if traced else "0"],
            cwd=d, env=_child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            status, usage = _wait(proc, started + PASS_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (d / "child.err").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"pass {index} exited with {proc.returncode}:\n{tail}")
    report = json.loads((d / "pass.json").read_text(encoding="utf-8"))
    report["dir"] = d
    report["traced"] = traced
    report["rss_mb"] = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    return report


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _verdict(step, cmd, d: Path):
    """Problems and reported figures of one command's exit code and outputs."""
    import oracles

    if cmd["error"] is not None:
        return [cmd["error"]], {}
    if cmd["rc"] != step.expect_rc:
        return [f"exit {cmd['rc']}, want {step.expect_rc}: {cmd['stderr'].strip()}"], {}
    problems, figures = [], {}
    for check, kwargs in step.checks:
        try:
            figures.update(check(d, cmd["stdout"], **kwargs))
        except oracles.Mismatch as exc:
            problems.append(str(exc))
        except Exception as exc:  # unreadable artifact: report it, keep checking
            problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return problems, figures


def check_pass(report: dict, plan, first: dict, verdicts: dict) -> dict:
    """Oracle and hash checks of one finished pass; never inside a timed span.

    first maps each output to its digest in the first pass. verdicts caches
    the oracle verdict per (step, exit code, stdout, output digests): equal
    bytes give an equal verdict, so each distinct artifact is checked once.
    """
    d = report["dir"]
    failures, notes, audio_s = [], {}, 0.0
    for index, (step, cmd) in enumerate(zip(plan.steps, report["commands"], strict=True)):
        digests = tuple(_digest(d / name) for name in step.outputs)
        key = (index, cmd["rc"], cmd["error"], cmd["stdout"], digests)
        if key not in verdicts:
            verdicts[key] = _verdict(step, cmd, d)
        problems, figures = verdicts[key]
        problems = problems + [f"{name}: bytes differ from the first pass"
                               for name, digest in zip(step.outputs, digests)
                               if first.setdefault(name, digest) != digest]
        audio_s += figures.get("audio_s", 0.0)
        notes.update((k, v) for k, v in figures.items() if k != "audio_s")
        if problems:
            failures.append(f"{step.argv[0]}: {'; '.join(problems)}")
    return {"failures": failures, "notes": notes, "audio_s": audio_s}


def _p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quasitone" / "__init__.py").is_file():
        print(f"error: no quasitone sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    try:
        plan = workloads.build_plan(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args)))
    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    passes, first, verdicts = [], {}, {}
    try:
        begin = time.monotonic()
        last = longest = 0.0
        # after MIN_PASSES, start a pass only if one as long as the last
        # still ends within --seconds, so that every run lasts about as long
        while ((len(passes) < MIN_PASSES or time.monotonic() - begin + last <= args.seconds)
               and time.monotonic() - begin + longest < RUN_CAP):
            started = time.monotonic()
            report = run_pass(workdir, args, len(passes), bool(args.trace) and len(passes) % 2 == 0)
            report.update(check_pass(report, plan, first, verdicts))
            shutil.rmtree(report.pop("dir"))
            passes.append(report)
            last = time.monotonic() - started
            longest = max(longest, last)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for k, p in enumerate(passes):
        for failure in p["failures"]:
            print(f"FAIL pass {k}: {failure}")
    for key, value in sorted(passes[0]["notes"].items()):
        print(f"note {key} {value:.6g}")

    plain = [p for p in passes if not p["traced"]]
    for k, p in enumerate(passes):
        p["wall_s"] = p["commands"][-1]["end"] - p["commands"][0]["start"]
        print(f"pass {k}{' traced' if p['traced'] else ''}: setup {p['setup_s']:.4f} s, "
              f"wall {p['wall_s']:.4f} s, peak RSS {p['rss_mb']:.1f} MB")
    latencies = [c["end"] - c["start"] for p in plain for c in p["commands"]]
    wall_s = statistics.median(p["wall_s"] for p in plain)
    cmd_p90 = _p90(latencies)
    e2e = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (wall_s, "s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "cmd_p90_s": (cmd_p90, "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
        "audio_x_rt": (statistics.median(p["audio_s"] / p["wall_s"] for p in plain), "s/s"),
        "fail_frac": (failed / attempted, "1"),
    }
    beyond = sum(t > cmd_p90 for t in latencies)
    print(f"passes {len(passes)} ({len(plain)} untraced); command samples {len(latencies)}, "
          f"{beyond} beyond p90")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layers.layer_metrics(p["spans"]) for p in traced]
        metrics = {key: (statistics.median if layers.unit(key) == "s" else statistics.median_low)(
            [m[key] for m in per_pass]) for key in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall_s
        out_path = base / f"trace-{args.workload}-{args.seed}.json"
        spans = [
            {"pass": k, "id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "counts": s[4]}
            for k, p in enumerate(passes) if p["traced"] for i, s in enumerate(p["spans"])
        ]
        out_path.write_text(json.dumps({"env": environment(args), "spans": spans}) + "\n",
                            encoding="utf-8")
        print(f"spans written to {out_path.relative_to(ROOT)}")
        units = {key: layers.unit(key) for key in metrics}
        for key in sorted(metrics):
            print(f"{key} {metrics[key]:.6g} {units[key]}")
    else:
        metrics = {k: e2e[k][0] for k in RESULT_METRICS}
        units = {k: e2e[k][1] for k in RESULT_METRICS}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
