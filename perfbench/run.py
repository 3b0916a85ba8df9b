#!/usr/bin/env python3
"""Builds the femcam benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads: uniform_sharded,
clustered_routed_rw, fewshot_20w1s, or `all` (each in turn; the last line
then merges their results, metrics prefixed by workload). The build goes
to $CARGO_TARGET_DIR (default .bench_build); records are appended to
<target>/perfbench/history.jsonl, stamped with the source revision, the
seed, nproc and the CPU model. Cargo's output goes to stderr, so the last
line of stdout is always the benchmark's result; a failed build exits
non-zero without one.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["uniform_sharded", "clustered_routed_rw", "fewshot_20w1s"]
# Sources the benchmark builds from: what a revision stamp must cover.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def revision():
    """The git revision, or (outside a git checkout) a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", *SOURCES],
                cwd=ROOT, capture_output=True, text=True, check=False,
            ).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py")
        )
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return target / "release" / "femcam-perfbench", target / "perfbench"


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    done = subprocess.run([str(binary), *args], stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    for line in lines:
        print(line, flush=True)
    return done.returncode, lines


def main(argv):
    if "--workload" not in argv:
        sys.exit("usage: run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
    binary, out = build()
    extra = ["--rev", revision(), "--out", str(out)]
    at = argv.index("--workload") + 1
    if at >= len(argv) or argv[at] != "all":
        code, _ = run(binary, argv + extra)
        return code
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        args = argv[:at] + [name] + argv[at + 1:]
        code, lines = run(binary, args + extra)
        worst = worst or code
        if not lines:
            return code or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
