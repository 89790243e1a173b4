"""kgroth benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner repeats passes of one workload
for S seconds (and until the latency tail has enough samples), with at most
one child process at a time, checks every op against bench/reference.json
and prints a report whose last line is one JSON object.  With --trace 0 that
object holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, which alternates untraced and traced passes on the
same inputs.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = str(HERE / "child.py")
PY = sys.executable
# Children start without `site`: kgroth needs only the standard library, and
# what the host's site-packages does at start-up is not the program's cost.
BOOT = [PY, "-S", CHILD]

clock = time.monotonic_ns

OP_TIMEOUT_S = 60
# A failed op counts as taking the timeout, so it misses every latency limit.
FAILED_OP_MS = OP_TIMEOUT_S * 1000.0
TAIL_PERCENTILE = 90
MIN_LATENCY_SAMPLES = 100  # ten samples beyond the 90th percentile
MIN_PASSES = 3
HARD_CAP_S = 140
MAX_MERGED_SPANS = 500_000

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

MODULES = ("partitions", "words", "tableaux", "kostka", "symfunc", "families", "cli", "proc")
SELF_TIMES = (
    "partitions.check_partition", "words.apply_block", "tableaux.kostka_column",
    "tableaux.classical_kostka_column", "tableaux.count_semistandard",
    "tableaux.enumerate_tableaux", "kostka.affine_kostka", "symfunc.SymFunc.construct",
    "symfunc.arith", "symfunc.hall_inner", "symfunc.convert.to_m", "symfunc.convert.to_h",
    "symfunc.convert.to_e", "symfunc.convert.to_s", "families.kkschur",
    "families.dual_grothendieck", "families.omega_big", "families.expand_in_family",
    "families.expand_in_dual_family", "families.row_pieri", "families.column_pieri",
    "cli.main",
)
CALLS = (
    "partitions.check_partition", "words.apply_block", "tableaux.kostka_column",
    "tableaux.count_semistandard", "kostka.affine_kostka", "symfunc.hall_inner",
    "symfunc.convert.to_m", "symfunc.convert.to_h", "symfunc.convert.to_e",
    "symfunc.convert.to_s",
)
HIT_RATES = (
    "partitions.core_to_bounded", "partitions.bounded_to_core",
    "tableaux._strip_transitions", "kostka._column", "families.kkschur",
)


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{m}.self_s", "s") for m in MODULES]
    names += [("trace.wall_s", "s"), ("trace.residual_s", "s"),
              ("trace_overhead_frac", "ratio"), ("trace.dropped_spans", "count")]
    names += [(f"{n}.self_s", "s") for n in SELF_TIMES]
    names += [(f"{n}.calls", "count") for n in CALLS]
    for n in HIT_RATES:
        names += [(f"{n}.hit_rate", "ratio"), (f"{n}.hits", "count"), (f"{n}.misses", "count")]
    names += [
        ("kostka.build_affine_kostka.write_s", "s"), ("kostka.build_affine_kostka.read_s", "s"),
        ("kostka.cache_bytes", "B"), ("symfunc.SymFunc.constructed", "count"),
        ("symfunc.SymFunc.max_support", "terms"), ("cli.import_s", "s"),
        ("proc.spawn_s", "s"), ("cli.stdout_bytes", "B"),
    ]
    return names


class Failure(Exception):
    """The benchmark cannot run here at all."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("KGROTH_CACHE_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONHOME")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def python_span_s(proc: subprocess.CompletedProcess | None) -> float:
    """Seconds a `kgroth` call spent running Python code, from its last stderr line."""
    if proc is None:
        return 0.0
    tail = proc.stderr.rstrip().rsplit(b"\n", 1)[-1].split()
    if len(tail) != 3 or tail[0] != b"PYTHON_SPAN":
        return 0.0
    return (int(tail[2]) - int(tail[1])) / 1e9


def scaled_s(raw_s: float, python_s: float, spawn_refs: tuple, task_refs: tuple) -> float:
    """A time across a process launch at nominal speed: the part spent running
    Python code scaled by the task reference, the rest by the spawn reference."""
    return ((raw_s - python_s) * calib.scale(*spawn_refs, calib.NOMINAL_SPAWN_S)
            + python_s * calib.scale(*task_refs, calib.NOMINAL_TASK_S))


class Workload:
    """Runs passes of one workload and turns them into metrics."""

    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.seed = seed
        self.reference = reference
        self.env = child_env()
        self.side = OUT / "side.json"
        self.cache_dir = OUT / "cache"
        self.spans: list = []
        self.dropped_spans = 0
        self.log = OUT / "failures.log"

    # -- children ------------------------------------------------------------

    def child(self, cmd: list[str]) -> subprocess.CompletedProcess | None:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.note(cmd, "timeout", b"")
            return None
        if proc.returncode:
            self.note(cmd, f"exit {proc.returncode}", proc.stderr)
        return proc

    def note(self, cmd, what: str, stderr: bytes) -> None:
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"{what}: {' '.join(map(str, cmd))}\n{stderr.decode(errors='replace')[-2000:]}\n")

    def ref(self, op) -> dict:
        return self.reference[workloads.op_key(op)]

    # -- passes --------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> dict:
        if self.side.exists():
            self.side.unlink()
        if self.name == "verify-suite":
            return self.verify_pass(index, traced)
        return self.cli_pass(index, traced)

    def verify_pass(self, index: int, traced: bool) -> dict:
        ops = workloads.verify_ops(self.seed, index)
        cmd = [*BOOT, "verify", str(self.seed), str(index)]
        if traced:
            cmd.append(str(self.side))
        spawn_ref, task_ref = calib.spawn_s(), calib.task_s()
        t_launch = clock()
        proc = self.child(cmd)
        t_exit = clock()
        spawn_next = calib.spawn_s()
        attempted = sum(self.ref(op)["count"] for op in ops)
        try:
            data = json.loads(proc.stdout) if proc and proc.returncode == 0 else None
        except ValueError:
            data = None
        if data is None:
            elapsed = (t_exit - t_launch) / 1e9
            return {"setup_s": elapsed, "wall_s": elapsed, "raw_wall_s": elapsed,
                    "lat_ms": [FAILED_OP_MS] * len(ops),
                    "classes": workloads.op_classes(self.name, ops), "attempted": attempted,
                    "failed": attempted, "good": 0}
        recs = data["ops"]
        refs_s = [r["ref_s"] for r in recs] + [data["ref_end_s"]]
        lat, failed, raw_wall, wall = [], 0, 0.0, 0.0
        for i, rec in enumerate(recs):
            ref = self.ref(rec["op"])
            good = rec["ok"] and rec["count"] == ref["count"] and rec["digest"] == ref["digest"]
            if not good:
                failed += ref["count"]
                self.note(rec["op"], "wrong output", b"")
            raw = (rec["t1"] - rec["t0"]) / 1e9
            scaled = raw * calib.scale(refs_s[i], refs_s[i + 1], calib.NOMINAL_TASK_S)
            raw_wall += raw
            wall += scaled
            lat.append(scaled * 1e3 if good else FAILED_OP_MS)
        failed += attempted - sum(self.ref(r["op"])["count"] for r in recs)
        result = {
            "setup_s": scaled_s((data["t_ready"] - t_launch) / 1e9,
                                (data["t_ready"] - data["t_start"]) / 1e9,
                                (spawn_ref, spawn_next), (task_ref, refs_s[0])),
            "wall_s": wall, "raw_wall_s": raw_wall,
            "lat_ms": lat, "classes": workloads.op_classes(self.name, [r["op"] for r in recs]),
            "attempted": attempted, "failed": failed,
            "good": attempted - failed,
        }
        if traced:
            side = json.loads(self.side.read_text())
            layers = self.layers_from(side)
            layers["proc.spawn_s"] = (side["t_start"] - t_launch) / 1e9
            layers["cli.import_s"] = (side["import_span"][1] - side["import_span"][0]) / 1e9
            self.keep_spans(side["spans"], offset_parent=None)
            result["layers"] = self.finish_layers(layers, raw_wall)
        return result

    def cli_pass(self, index: int, traced: bool) -> dict:
        spawn_ref, task_ref = calib.spawn_s(), calib.task_s()
        t_launch = clock()
        setup = self.child([*BOOT, "setup", self.name, str(self.seed), str(index)])
        t_first = clock()
        if setup is None or setup.returncode:
            raise Failure(f"input generation failed: see {self.log}")
        spawn_next, task_next = calib.spawn_s(), calib.task_s()
        generated = json.loads(setup.stdout)
        setup_s = scaled_s((t_first - t_launch) / 1e9,
                           (generated["t_end"] - generated["t_start"]) / 1e9,
                           (spawn_ref, spawn_next), (task_ref, task_next))
        spawn_ref, task_ref = spawn_next, task_next
        ops = generated["ops"]
        extra = []
        cache_dir = self.cache_dir / str(index) / ("traced" if traced else "untraced")
        if self.name == "kostka-cache":
            cache_dir.mkdir(parents=True)
            extra = ["--cache-dir", str(cache_dir)]
        sides = []
        spawn_ns = import_ns = exit_ns = stdout_bytes = 0
        lat, failed, raw_wall, wall = [], 0, 0.0, 0.0
        for op_index, argv in enumerate(ops):
            op_id = f"{index}.{op_index}"
            ref = self.ref(argv)
            if traced:
                cmd = [*BOOT, "cli", op_id, str(self.side), *argv, *extra]
            else:
                cmd = [*BOOT, "run", *argv, *extra]
            t0 = clock()
            proc = self.child(cmd)
            t_reaped = clock()
            good = (proc is not None and proc.returncode == ref["exit"]
                    and sha256(proc.stdout) == ref["digest"])
            t1 = clock()
            spawn_next, task_next = calib.spawn_s(), calib.task_s()
            raw = (t1 - t0) / 1e9
            scaled = scaled_s(raw, python_span_s(proc), (spawn_ref, spawn_next),
                              (task_ref, task_next))
            spawn_ref, task_ref = spawn_next, task_next
            raw_wall += raw
            wall += scaled
            if not good:
                failed += 1
                if proc is not None and proc.returncode == ref["exit"]:
                    self.note(cmd, "wrong output", b"")
            lat.append(scaled * 1e3 if good else FAILED_OP_MS)
            if traced and self.side.exists():
                side = json.loads(self.side.read_text())
                self.side.unlink()
                sides.append(side)
                self.merge_op_spans(op_id, side, t0, t_reaped, t1)
                spawn_ns += side["t_start"] - t0
                import_ns += side["import_span"][1] - side["import_span"][0]
                exit_ns += t_reaped - side["t_end"]
                stdout_bytes += len(proc.stdout)
        cache_bytes = 0
        if extra:
            cache_bytes = sum(f.stat().st_size for f in cache_dir.iterdir() if f.is_file())
        result = {"setup_s": setup_s, "wall_s": wall, "raw_wall_s": raw_wall, "lat_ms": lat,
                  "classes": workloads.op_classes(self.name, ops), "attempted": len(ops),
                  "failed": failed, "good": len(ops) - failed}
        if traced:
            layers = self.layers_from(self.sum_sides(sides))
            layers["proc.spawn_s"] = spawn_ns / 1e9
            layers["proc.self_s"] = (spawn_ns + exit_ns) / 1e9
            layers["cli.import_s"] = import_ns / 1e9
            layers["cli.self_s"] += import_ns / 1e9
            layers["cli.stdout_bytes"] = float(stdout_bytes)
            layers["kostka.cache_bytes"] = float(cache_bytes)
            result["layers"] = self.finish_layers(layers, raw_wall)
        return result

    # -- trace merging -------------------------------------------------------

    @staticmethod
    def sum_sides(sides: list[dict]) -> dict:
        total = {"stats": {}, "caches": {}, "constructed": 0, "max_support": 0,
                 "dropped_spans": 0}
        for side in sides:
            for name, (calls, self_ns) in side["stats"].items():
                st = total["stats"].setdefault(name, [0, 0])
                st[0] += calls
                st[1] += self_ns
            for name, (hits, misses) in side["caches"].items():
                c = total["caches"].setdefault(name, [0, 0])
                c[0] += hits
                c[1] += misses
            total["constructed"] += side["constructed"]
            total["max_support"] = max(total["max_support"], side["max_support"])
            total["dropped_spans"] += side["dropped_spans"]
        return total

    @staticmethod
    def layers_from(side: dict) -> dict:
        stats = side["stats"]
        out: dict[str, float] = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                v[1] for k, v in stats.items() if k.split(".")[0] == mod) / 1e9
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = stats.get(name, [0, 0])[1] / 1e9
        for name in CALLS:
            out[f"{name}.calls"] = float(stats.get(name, [0, 0])[0])
        for name in HIT_RATES:
            hits, misses = side["caches"].get(name, [0, 0])
            out[f"{name}.hits"] = float(hits)
            out[f"{name}.misses"] = float(misses)
            out[f"{name}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        out["kostka.build_affine_kostka.write_s"] = stats.get("kostka._save", [0, 0])[1] / 1e9
        out["kostka.build_affine_kostka.read_s"] = stats.get("kostka._load", [0, 0])[1] / 1e9
        out["symfunc.SymFunc.constructed"] = float(side["constructed"])
        out["symfunc.SymFunc.max_support"] = float(side["max_support"])
        out["trace.dropped_spans"] = float(side["dropped_spans"])
        # measured by the caller where they apply
        out.update(dict.fromkeys(
            ("proc.spawn_s", "cli.import_s", "cli.stdout_bytes", "kostka.cache_bytes"), 0.0))
        return out

    @staticmethod
    def finish_layers(layers: dict, wall: float) -> dict:
        layers["trace.wall_s"] = wall
        layers["trace.residual_s"] = wall - sum(layers[f"{m}.self_s"] for m in MODULES)
        return layers

    def keep_spans(self, spans: list, offset_parent) -> None:
        base = len(self.spans)
        room = MAX_MERGED_SPANS - base
        if room < len(spans):
            self.dropped_spans += len(spans) - max(room, 0)
            spans = spans[:max(room, 0)]
        for name, t0, t1, parent, op, own in spans:
            parent = base + parent if parent >= 0 else offset_parent
            self.spans.append([name, t0, t1, parent, op, own])

    def merge_op_spans(self, op_id: str, side: dict, t0: int, t_reaped: int, t1: int) -> None:
        """Attach a child's spans under one runner-side root span of the op."""
        root = len(self.spans)
        children = side["spans"]
        self.spans.append(["bench.op", t0, t1, None, op_id, 0])
        self.spans.append(["proc.spawn", t0, side["t_start"], root, op_id,
                           side["t_start"] - t0])
        i0, i1 = side["import_span"]
        self.spans.append(["cli.import", i0, i1, root, op_id, i1 - i0])
        self.keep_spans(children, offset_parent=root)
        self.spans.append(["proc.exit", side["t_end"], t_reaped, root, op_id,
                           t_reaped - side["t_end"]])
        covered = (side["t_start"] - t0) + (i1 - i0) + (t_reaped - side["t_end"])
        covered += sum(s[2] - s[1] for s in children if s[3] < 0)
        self.spans[root][5] = (t1 - t0) - covered


# ---------------------------------------------------------------------------
# statistics and reporting


def tail_percentile(n: int) -> int:
    """TAIL_PERCENTILE, or the highest lower one with ten samples beyond it."""
    for p in (TAIL_PERCENTILE, 80, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values: robust to a stray slow sample
    like a median, but smooth where the values spread over several levels."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def src_lines() -> dict[str, int]:
    counts = {}
    for path in sorted((ROOT / "src" / "kgroth").glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.name] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def warm_up(env: dict[str, str]) -> None:
    """Compile bytecode and touch the sources once, outside any timing."""
    cmds = [
        [PY, "-m", "compileall", "-q", str(ROOT / "src" / "kgroth"), str(HERE)],
        [*BOOT, "setup", "cli-oneshot", "0", "0"],
    ]
    for cmd in cmds:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=OP_TIMEOUT_S)
        if proc.returncode:
            raise Failure(f"{' '.join(cmd)} failed:\n{proc.stderr.decode(errors='replace')}")


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of a run, from host-speed-scaled timings.

    Pass timings are the median over passes.  Each op takes the
    interquartile mean latency of its class (ops of one class cost about the
    same), and the latency percentiles are taken over the ops of the run.
    """
    by_class: dict[str, list[float]] = {}
    for p in passes:
        for cls, ms in zip(p["classes"], p["lat_ms"]):
            by_class.setdefault(cls, []).append(ms)
    class_ms = {cls: FAILED_OP_MS if FAILED_OP_MS in v else interquartile_mean(v)
                for cls, v in by_class.items()}
    lat = [class_ms[cls] for p in passes for cls in p["classes"]]
    p_tail = tail_percentile(len(lat))
    walls = [p["wall_s"] for p in passes]
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": statistics.median(p["good"] / p["wall_s"] for p in passes),
        "op_p50_ms": percentile(lat, 50),
        "op_tail_ms": percentile(lat, p_tail),
        "peak_rss_mib": peak_kib / 1024,
    }
    raw = [v for p in passes for v in p["lat_ms"]]
    details = {"tail_percentile": p_tail, "latency_samples": len(lat),
               "ops_per_pass": passes[0]["attempted"],
               "raw_median_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
               "unclassed_op_p50_ms": percentile(raw, 50),
               "unclassed_op_tail_ms": percentile(raw, p_tail),
               "pass_wall_s": walls, "class_ms": dict(sorted(class_ms.items()))}
    return metrics, details


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    names = [n for n, _ in per_layer_names()]
    metrics = {}
    for name in names:
        if name == "trace_overhead_frac":
            continue
        values = [p["layers"][name] for p in traced]
        metrics[name] = max(values) if name.endswith("max_support") else statistics.fmean(values)
    metrics["trace_overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in untraced))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="reference outputs to check against (self-test hook)")
    parser.add_argument("--max-passes", type=int, default=None,
                        help="stop after this many passes, ignoring the time (self-test hook)")
    args = parser.parse_args()

    if not (ROOT / "src" / "kgroth" / "cli.py").is_file():
        print(f"error: no kgroth sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)["ops"]
    OUT.mkdir(exist_ok=True)
    env_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    # The runner and its children share one CPU, so the reference task runs
    # on the CPU whose speed it stands for.  Only one process runs at a time.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    bench = Workload(args.workload, args.seed, reference)
    # Each kostka-cache pass gets its own empty cache dir.  They are removed
    # after the run, so no deletion runs between timed ops.
    shutil.rmtree(bench.cache_dir, ignore_errors=True)
    try:
        warm_up(bench.env)
        passes, traced = [], []
        start = clock()
        index = 0
        while True:
            if args.trace:
                passes.append(bench.run_pass(index, traced=False))
                traced.append(bench.run_pass(index, traced=True))
            else:
                passes.append(bench.run_pass(index, traced=False))
            index += 1
            elapsed = (clock() - start) / 1e9
            samples = sum(len(p["lat_ms"]) for p in passes)
            if args.max_passes is not None and index >= args.max_passes:
                break
            if elapsed >= args.seconds and (args.trace or (
                    samples >= MIN_LATENCY_SAMPLES and len(passes) >= MIN_PASSES)):
                break
            if elapsed >= HARD_CAP_S:
                break
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.cache_dir, ignore_errors=True)

    every = passes + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if args.trace:
        metrics = per_layer(traced, passes)
        units = dict(per_layer_names())
        details = {"traced_passes": len(traced)}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
            "dropped": bench.dropped_spans, "spans": bench.spans}))
        details["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics, details = end_to_end(passes)
        units = dict(END_TO_END)
    details.update(passes=len(passes), failed_frac=failed / attempted)
    env = {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "loadavg_start": env_start,
        "loadavg_end": os.getloadavg(),
        "commit": commit(),
        "src_lines": src_lines(),
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": details, "metrics": metrics}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} ops attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")
    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps({k: v for k, v in details.items()
                                   if k not in ("class_ms", "pass_wall_s")}, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
