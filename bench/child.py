"""One benchmark worker: set up steerdist once, then run a workload's CLI
calls on request, each in a fresh fork of the set-up process.

Usage: ``python bench/child.py SPEC_JSON``, where the spec names the source
directory, the config text and path, and whether to trace.  The worker
imports ``steerdist.cli`` and ``steerdist.experiments`` and resolves the
config, as a user's process does before it runs a command, then prints one
JSON line ``{"t_setup": ...}`` on standard output.

It then reads jobs from standard input, one JSON line each:
``{"run_id", "commands", "result"}``.  For each job it forks; the fork runs
the CLI calls through ``steerdist.cli.main`` and writes its timestamps, exit
codes, peak RSS and trace to the job's result file.  So every repetition
starts from the state a user's process has after set-up, and no cache
survives from one repetition to the next.  The worker answers each job with
one JSON line ``{"status": <fork's exit status>}`` and exits at the end of
its input.  Anything the CLI prints goes to standard error.

Timestamps use ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so the
parent can subtract its own spawn time from them.
"""

import json
import os
import resource
import sys
import time
import traceback


def run_job(job: dict, cli, tracer) -> None:
    """Body of the fork: run the job's CLI calls and write the result file."""
    if tracer is not None:
        tracer.reset(job["run_id"])
    t_start = time.perf_counter()
    codes = []
    for argv in job["commands"]:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    t_end = time.perf_counter()
    result = {
        "t_start": t_start,
        "t_end": t_end,
        "codes": codes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.dump() if tracer else None,
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


def main() -> int:
    spec = json.loads(sys.argv[1])
    # the protocol keeps the original standard output; the CLI's prints go to stderr
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer("setup")
        spans.install(tracer)
    import steerdist
    from steerdist import cli, experiments  # noqa: F401  (both count as set-up)
    from steerdist.config import load_config

    if not os.path.abspath(steerdist.__file__).startswith(spec["src"] + os.sep):
        print(f"steerdist imported from {steerdist.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 2
    with open(spec["config"], "w") as fh:
        fh.write(spec["ini"])
    load_config(spec["config"])
    t_setup = time.perf_counter()
    print(json.dumps({"t_setup": t_setup}), file=proto, flush=True)

    for line in sys.stdin:
        job = json.loads(line)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                run_job(job, cli, tracer)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), file=proto,
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
