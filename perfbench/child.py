"""One timed pass of a workload, in a fresh process.

Usage: child.py <workload> <seed> <started> <trace 0|1>, run inside an
empty pass directory with the package's src directory on PYTHONPATH.
<started> is the parent's time.monotonic() when it launched this process,
so set-up time covers interpreter start, importing quasitone and writing
the generated inputs. A fresh process per pass starts every cache of the
program (the coverage reference lru_cache) empty, as each command line
invocation does.

Writes pass.json: set-up time, per-command exit code, latency and captured
output, and the spans of a traced pass.
"""

import sys

sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

from quasitone import cli  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402


def main(workload, seed, started, traced):
    plan = workloads.build_plan(workload, int(seed))
    for name, text in plan.inputs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    tracer = layers.Tracer()
    if traced == "1":
        layers.install(tracer)
    setup_s = time.monotonic() - float(started)
    commands = []
    for step in plan.steps:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.cli_main(list(step.argv))
        except Exception as exc:  # a traceback is a failed command, not a failed pass
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        commands.append({"rc": rc, "start": t0, "end": t1, "stdout": out.getvalue(),
                         "stderr": err.getvalue(), "error": error})
    with open("pass.json", "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "commands": commands, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
