"""Record the reference output of every op the workloads can send.

    python3 bench/record.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites bench/reference.json.  CLI ops store the SHA-256 of their stdout and
their exit code; verify-suite ops store the digest of their result and their
instance (or scan coefficient) count.  Every later run must reproduce these
byte for byte.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads
from run import HERE, OUT, PY, ROOT, child_env, commit, sha256

sys.path.insert(0, str(ROOT / "src"))

from child import run_verify_op  # noqa: E402


def main() -> int:
    env = child_env()
    cache_dir = OUT / "record-cache"
    refs = {}
    for workload, op in workloads.catalog():
        key = workloads.op_key(op)
        if workload == "verify-suite":
            ok, count, digest = run_verify_op(tuple(op))
            if not ok:
                print(f"error: {key} does not pass", file=sys.stderr)
                return 1
            refs[key] = {"digest": digest, "count": count}
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir.mkdir(parents=True)
            argv = op + (["--cache-dir", str(cache_dir)] if workload == "kostka-cache" else [])
            proc = subprocess.run([PY, "-m", "kgroth.cli", *argv], cwd=ROOT, env=env,
                                  capture_output=True, timeout=120)
            if proc.returncode:
                print(f"error: {key} exits {proc.returncode}", file=sys.stderr)
                return 1
            refs[key] = {"digest": sha256(proc.stdout), "exit": 0, "count": 1}
        print(f"{key}: {refs[key]['digest'][:12]}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"commit": commit(), "ops": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
