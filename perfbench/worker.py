"""Worker interpreter for the in-process workloads.

Usage: python worker.py SPEC.json

A fresh interpreter imports liftwing and loads the workload's config; that
is the set-up time. With ``loop`` set it then calls ``liftwing.cli.main`` in
a closed loop, one argv after another, until ``seconds`` have passed, and
writes each call's wall time, exit code and output to the ``ops`` file.
Reference loops (see reference.py) run between the calls and after the last,
untimed. The worker checks nothing: the benchmark checks the outputs after
it exits.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import reference


def call_main(argv: list[str], around=contextlib.nullcontext) -> tuple:
    """Call ``liftwing.cli.main(argv)`` in-process, inside ``around()``.

    Returns (exit code, wall s, stdout, stderr). SystemExit gives its code;
    any other exception leaves the code None and its traceback in stderr.
    """
    import liftwing.cli
    out, err = io.StringIO(), io.StringIO()
    rc = None
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), around():
            rc = liftwing.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t, out.getvalue(), err.getvalue()


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import liftwing.cli
    from liftwing.config import load_config
    load_config(spec["config"])
    result = {"setup_s": time.perf_counter() - t0}

    if spec["loop"]:
        argvs = spec["argv"]
        # one record per line, written after each call, so held outputs do
        # not grow the worker's memory with the number of calls
        refs, wall = [], 0.0
        with open(spec["ops"], "w") as log:
            start = time.perf_counter()
            i = 0
            while i == 0 or time.perf_counter() - start < spec["seconds"]:
                refs.append(reference.loops_for(wall))
                out_dir = os.path.join(spec["tmp"], f"op{i}")
                argv = [a.replace("{out}", out_dir) for a in argvs[i % len(argvs)]]
                rc, wall, out, err = call_main(argv)
                log.write(json.dumps({"index": i % len(argvs), "out_dir": out_dir, "rc": rc,
                                      "wall_s": wall, "stdout": out, "stderr": err}) + "\n")
                i += 1
            refs.append(reference.loops_for(wall))
        # one list per call, taken just before it, and one after the last call
        result["ref_loop_s"] = refs

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
