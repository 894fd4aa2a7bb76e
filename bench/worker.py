"""One benchmark process: set up, then run one rep of a workload.

Started by run.py as `python3 worker.py '<json spec>'` in a fresh,
single-threaded interpreter. Set-up (importing numpy and polarkit, then the
workload's `construct` commands) is timed from the first import. The rep's
commands run in-process through `polarkit.cli.main`, optionally traced. The
result, including the command outputs that run.py checks, goes to the JSON
file named by the spec.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def run_command(cli, cmd, tracer):
    """Run one polarkit command line; a raise or a non-zero exit is recorded."""
    buf = io.StringIO()
    error = None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(list(cmd.argv))
            else:
                rc = tracer.call("cli", cli.main, list(cmd.argv))
    except SystemExit as exc:  # argparse rejects bad options this way
        rc, error = exc.code, "SystemExit"
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu_start
    return {
        "kind": cmd.kind,
        "label": cmd.label,
        "argv": list(cmd.argv),
        "rc": rc,
        "error": error,
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "stdout": buf.getvalue(),
    }


def attach_output(op, path: Path) -> None:
    """Add what run.py checks of a command's output file."""
    if not path.exists():
        return
    data = path.read_bytes()
    if op["kind"] == "survey":
        lines = data.decode().splitlines()
        op["csv_sha256"] = hashlib.sha256(data).hexdigest()
        op["csv_rows"] = len(lines) - 1
        op["csv_distinct_kernels"] = len({line.split(",", 1)[0] for line in lines[1:]})
    else:
        op["output"] = data.decode()


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import numpy

    from polarkit import cli

    if Path(cli.__file__).resolve().parent != (src / "polarkit").resolve():
        print(f"polarkit imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    ops = []
    for cmd in workload.setup_commands(workdir):
        op = run_command(cli, cmd, None)
        attach_output(op, cmd.out)
        ops.append(op)
    result = {
        "setup_s": time.perf_counter() - t0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer, install_polarkit_hooks, layer_metrics

            tracer = Tracer()
            install_polarkit_hooks(tracer)
        cmds = workload.timed_commands(workdir, spec["sim_seed"], spec["tag"])
        timed = [run_command(cli, cmd, tracer) for cmd in cmds]
        result["wall_s"] = sum(op["seconds"] for op in timed)
        result["cpu_s"] = sum(op["cpu_seconds"] for op in timed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.restore()
            result["layers"] = layer_metrics(tracer)
            result["missing_hooks"] = sorted(tracer.missing)
            tracer.write(spec["trace"])
        for cmd, op in zip(cmds, timed):
            attach_output(op, cmd.out)
        ops.extend(timed)
    result["ops"] = ops
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
