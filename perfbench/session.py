"""One benchmark run's temporary directory and child processes.

A run's temporary files (server stores, journals, job and cell lists)
live under ``.perfbench-tmp/`` in the checkout and are removed on exit,
together with every child process, whether the run succeeds, fails or
is interrupted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    """The benchmark could not complete a run (no result is printed)."""


class Session:
    """Owns the temporary directory and every process a run starts."""

    def __init__(self, root: Path, tiny: bool):
        self.root = root
        self.tiny = tiny
        self.children: list[subprocess.Popen] = []
        self._base = root / ".perfbench-tmp"
        self._base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=self._base))
        path = [str(root / "src"), str(HERE), os.environ.get("PYTHONPATH")]
        self.env = {**os.environ,
                    "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        if tiny:
            self.env["PERFBENCH_TINY"] = "1"
            self.env["REPRO_CACHE_DIR"] = str(self.tmp / "cache")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, argv: list[str], env: dict | None = None,
              **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, cwd=self.root,
                                   env={**self.env, **(env or {})}, **kwargs)
        self.children.append(process)
        return process

    def worker(self, role: str, *args: str,
               timeout: float = 150.0) -> tuple[float | None, dict]:
        """Run one ``worker.py`` role; returns (seconds from spawn to its
        ``ready`` line, its result message)."""
        argv = [sys.executable, str(HERE / "worker.py"), role, *args]
        if self.tiny:
            argv.append("--tiny")
        start = perf_counter()
        process = self.spawn(argv, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(timeout, process.kill)
        watchdog.daemon = True
        watchdog.start()
        ready = result = None
        try:
            for line in process.stdout:
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue  # stray output is not protocol
                if not isinstance(message, dict):
                    continue
                if message.get("kind") == "ready":
                    ready = perf_counter() - start
                elif message.get("kind") == "result":
                    result = message
            code = process.wait()
        finally:
            watchdog.cancel()
            process.stdout.close()
        if code != 0 or result is None:
            raise BenchError(f"worker role {role!r} failed (exit {code})")
        return ready, result

    def close(self) -> None:
        """Kill every child still running, wait for all, drop the
        temporary directory."""
        for process in self.children:
            if process.poll() is None:
                process.kill()
        for process in self.children:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                print(f"perfbench: child {process.pid} did not exit",
                      file=sys.stderr)
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self._base.rmdir()
        except OSError:
            pass  # another run's temporary directory is still there
