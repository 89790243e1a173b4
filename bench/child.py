"""Child-process bootstrap of the benchmark.

    python bench/child.py setup WORKLOAD SEED PASS
        import kgroth, generate the inputs of one pass, print them as JSON.
    python bench/child.py verify SEED PASS [SIDE_FILE]
        run the verify-suite pass in this process and print per-op results,
        each with the time of the in-process reference task (calib.py) run just
        before it;
        with SIDE_FILE, trace the package and write the trace there.
    python bench/child.py run ARG...
        `kgroth` call: run kgroth.cli.main(ARG...) as `python -m kgroth.cli`
        would.
    python bench/child.py cli OP_ID SIDE_FILE ARG...
        traced `kgroth` call: the same, and write the trace.

The runner (run.py) sets PYTHONPATH to the checkout's src, so `kgroth` is the code
under test.  A `kgroth` call ends its stderr with a line `PYTHON_SPAN t0 t1`:
the monotonic clock in ns at this file's first statement and after
kgroth.cli.main returns.  With it (and with `t_start` and `t_end` of `setup`)
the runner tells the time spent running Python code (importing and computing)
from that spent starting and ending the process, and scales each by its own
reference (calib.py).
"""

import time

T_START = time.monotonic_ns()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

PYTHON_SPAN = "PYTHON_SPAN"


def _import_kgroth() -> tuple[int, int]:
    t0 = time.monotonic_ns()
    import kgroth.cli  # noqa: F401

    return t0, time.monotonic_ns()


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_verify_op(op) -> tuple[bool, int, str]:
    """Run one suite or scan in process: (passed, instance count, digest)."""
    from kgroth import families

    kind, check, k, deg_max = op
    if kind == "verify":
        res = families.VERIFY_CHECKS[check](k, deg_max)
        payload = {"check": check, "params": {"k": k, "deg_max": deg_max},
                   "instances": res.instances, "failures": res.failures, "pass": res.ok}
        return res.ok, res.instances, digest(payload)
    report = families.SCANS[check](k, deg_max)
    return True, len(report["entries"]), digest(report)


def setup(workload: str, seed: int, pass_index: int) -> None:
    _import_kgroth()
    import workloads

    ops = workloads.generate(workload, seed, pass_index)
    print(json.dumps({"t_start": T_START, "t_end": time.monotonic_ns(), "ops": ops}))


def verify(seed: int, pass_index: int, side_file: str | None) -> None:
    import_t0, import_t1 = _import_kgroth()
    tracer = None
    if side_file:
        from tracer import Tracer

        tracer = Tracer(None)
        tracer.install()
    import calib
    import workloads

    ops = workloads.verify_ops(seed, pass_index)
    t_ready = time.monotonic_ns()
    results = []
    for index, op in enumerate(ops):
        ref_s = calib.task_s()
        t0 = time.monotonic_ns()
        if tracer:
            ok, count, dig = tracer.run_op(f"{pass_index}.{index}", run_verify_op, op)
        else:
            ok, count, dig = run_verify_op(op)
        results.append({"op": list(op), "t0": t0, "t1": time.monotonic_ns(), "ref_s": ref_s,
                        "ok": ok, "count": count, "digest": dig})
    ref_end_s = calib.task_s()
    if tracer:
        tracer.dump(side_file, t_start=T_START, import_span=[import_t0, import_t1],
                    t_ready=t_ready, t_end=time.monotonic_ns())
    print(json.dumps({"t_start": T_START, "t_ready": t_ready, "ref_end_s": ref_end_s,
                      "ops": results}))


def _main_timed(argv: list[str]) -> int:
    import kgroth.cli

    try:
        return kgroth.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"\n{PYTHON_SPAN} {T_START} {time.monotonic_ns()}\n")


def run(argv: list[str]) -> int:
    _import_kgroth()
    return _main_timed(argv)


def cli(op: str, side_file: str, argv: list[str]) -> int:
    import_t0, import_t1 = _import_kgroth()
    from tracer import Tracer

    tracer = Tracer(op)
    tracer.install()
    try:
        return _main_timed(argv)
    finally:
        tracer.dump(side_file, t_start=T_START, import_span=[import_t0, import_t1],
                    t_end=time.monotonic_ns())


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], int(rest[1]), int(rest[2]))
    elif mode == "verify":
        verify(int(rest[0]), int(rest[1]), rest[2] if len(rest) > 2 else None)
    elif mode == "run":
        sys.exit(run(rest))
    elif mode == "cli":
        sys.exit(cli(rest[0], rest[1], rest[2:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
