"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` with ``--tiny`` (a 64-image
MNIST split, throwaway weights in a temporary cache, one-second windows)
and checks that

* every end-to-end metric prints with its unit, and the traced run
  prints every per-layer metric, each once and nothing else;
* a run terminated while its server is up leaves no server process and
  no temporary directory behind;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TEMP_ROOT = ROOT / ".perfbench-tmp"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_argv(workload: str, trace: int, seconds: int = 1) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
            "--tiny"]


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(spec: dict) -> list[str]:
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(bench_argv(workload, trace), cwd=ROOT,
                                 capture_output=True, text=True, timeout=300)
            result = last_json(run.stdout)
            where = f"{workload} --trace {trace}"
            if run.returncode != 0 or not isinstance(result, dict):
                failures.append(f"{where}: exit {run.returncode}, no result"
                                f"\n{run.stderr[-2000:]}")
                continue
            if set(result) != RESULT_KEYS or not result["correct"]:
                failures.append(f"{where}: bad result keys or not correct")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: metric.get("unit")
                       for name, metric in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{where}: metrics differ from "
                                f"BENCHMARK.json {kind}: "
                                f"{sorted(set(printed) ^ set(expected))}")
            if not all(isinstance(m.get("value"), (int, float))
                       for m in result["metrics"].values()):
                failures.append(f"{where}: a metric value is not a number")
    return failures


def children_of(pid: int) -> dict[int, str]:
    """Live child processes of ``pid`` -> their command line."""
    found = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after ')'
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found[int(entry.name)] = cmdline.replace(b"\0", b" ").decode()
    return found


def alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


def check_cleanup() -> list[str]:
    before = set(TEMP_ROOT.iterdir()) if TEMP_ROOT.exists() else set()
    servers: dict[int, str] = {}
    # stdout goes to an unlinked file: a leaked server holding a pipe
    # open would otherwise hang the read
    with tempfile.TemporaryFile(mode="w+", dir=ROOT) as out:
        bench = subprocess.Popen(bench_argv("service-jobs", 0, seconds=120),
                                 cwd=ROOT, stdout=out, text=True)
        deadline = perf_counter() + 120
        try:
            while not servers and perf_counter() < deadline:
                servers = {pid: cmd
                           for pid, cmd in children_of(bench.pid).items()
                           if " serve " in cmd}
                sleep(0.05)
            bench.send_signal(signal.SIGTERM)
            bench.wait(timeout=60)
        finally:
            if bench.poll() is None:
                bench.kill()
                bench.wait(timeout=30)
        out.seek(0)
        stdout = out.read()
    failures = []
    if not servers:
        failures.append("cleanup: no server process was ever seen")
    if bench.returncode == 0 or last_json(stdout) is not None:
        failures.append("cleanup: a terminated run printed a result or "
                        "exited 0")
    for pid in servers:
        if alive(pid):
            failures.append(f"cleanup: server {pid} still alive")
            os.kill(pid, signal.SIGKILL)  # do not leak it ourselves
    after = set(TEMP_ROOT.iterdir()) if TEMP_ROOT.exists() else set()
    failures += [f"cleanup: temporary files left behind: {path}"
                 for path in after - before]
    return failures


def check_bare_directory() -> list[str]:
    TEMP_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=TEMP_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "fig4-float", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            TEMP_ROOT.rmdir()
        except OSError:
            pass
    if run.returncode == 0 or last_json(run.stdout) is not None:
        return ["bare directory: the benchmark exited 0 or printed a "
                "result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_bare_directory() + check_metrics(spec) \
        + check_cleanup()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
