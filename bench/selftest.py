"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

For each workload it runs one pass and checks that every op passes and that
the printed metrics are exactly those BENCHMARK.json names; then it corrupts
one reference digest and checks that the run reports a failure; then it runs
one traced pass and checks the per-layer metrics and that module self times
plus the residual add up to the traced wall time.  Last, it checks that the
benchmark refuses to run, printing no result, where the sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads
from run import HERE, MODULES, OUT, PY, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, *extra: str, cwd=ROOT) -> tuple[int, dict | None]:
    cmd = [PY, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--max-passes", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def expect(cond: bool, what: str, problems: list[str]) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        problems.append(what)


def names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def main() -> int:
    problems: list[str] = []
    OUT.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    for workload in workloads.WORKLOADS:
        code, res = run(workload, "--trace", "0")
        expect(code == 0 and res is not None and res["correct"] and res["failed"] == 0
               and res["attempted"] > 0, f"{workload}: one pass, failed_frac 0", problems)
        if res:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == names("end_to_end"), f"{workload}: end-to-end metric names and units",
                   problems)

        corrupt = json.loads(json.dumps(reference))
        key = workloads.op_key(workloads.generate(workload, 1, 0)[0])
        corrupt["ops"][key]["digest"] = "0" * 64
        path = OUT / "corrupt-reference.json"
        path.write_text(json.dumps(corrupt))
        code, res = run(workload, "--trace", "0", "--reference", str(path))
        expect(res is not None and not res["correct"] and 0 < res["failed"] < res["attempted"],
               f"{workload}: a corrupted digest gives 0 < failed_frac < 1", problems)

        code, res = run(workload, "--trace", "1")
        ok = code == 0 and res is not None and res["correct"]
        expect(ok, f"{workload}: traced pass", problems)
        if ok:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == names("per_layer"), f"{workload}: per-layer metric names and units",
                   problems)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            total = sum(m[f"{mod}.self_s"] for mod in MODULES) + m["trace.residual_s"]
            expect(abs(total - m["trace.wall_s"]) < 1e-6 and m["trace.residual_s"] >= 0,
                   f"{workload}: module self times + residual = traced wall", problems)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, res = run("cli-oneshot", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None, "without sources: nonzero exit and no result", problems)

    print("selftest:", "PASS" if not problems else f"FAIL ({len(problems)} checks)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
