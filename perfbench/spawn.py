"""Launch child processes from a small helper process and time them.

Linux starts a child with the memory map of its parent and carries that
map's peak RSS into the child's own rusage across ``exec``. A child
started straight from the benchmark, which holds numpy and in-process
analyses, would report the benchmark's peak instead of its own. The
helper is a fresh interpreter that imports only the standard library, so
the ``ru_maxrss`` that ``os.wait4`` returns for its children is theirs.

Protocol: one JSON request per line on the helper's stdin
(``{"cmd", "env", "log", "timeout"}``), one JSON reply per line on its
stdout (``{"seconds", "maxrss_kb", "code"}``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_child(cmd, env, log_path, timeout):
    """Run ``cmd`` to completion: (wall seconds, ru_maxrss in KiB, exit code)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # wait without reaping, so a late kill cannot hit a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            seconds = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
            killer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss, proc.returncode


def serve():
    for line in sys.stdin:
        req = json.loads(line)
        seconds, maxrss_kb, code = run_child(req["cmd"], req["env"],
                                             req["log"], req["timeout"])
        print(json.dumps({"seconds": seconds, "maxrss_kb": maxrss_kb,
                          "code": code}), flush=True)


class Spawner:
    """Client side: ``with Spawner() as sp: sp.run(cmd, env, log, timeout)``."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def run(self, cmd, env, log_path, timeout):
        """(wall seconds, peak RSS in MB, exit code) of one child run."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "env": env,
                                          "log": str(log_path),
                                          "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        reply = json.loads(reply)
        return reply["seconds"], reply["maxrss_kb"] / 1024.0, reply["code"]

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
