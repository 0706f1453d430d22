"""Jobs in fresh child processes, and children that die with the run.

    python3 perfbench/worker.py PARENT_PID   (started by :func:`run_jobs`)

:func:`run_jobs` runs ``module:function`` calls, each in a new Python
process, at most WORKERS at a time.  The call and its result cross the
child's stdin and stdout as pickles.  Every child is waited for before
:func:`run_jobs` returns or raises, so a run leaves no process behind.
(A ``multiprocessing`` pool would: its resource tracker outlives the
process that started it.)

A child calls :func:`die_with_parent` first, as does ``server.py``: if
the run is killed, the kernel kills its children too.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import pickle
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

#: ``prctl`` option: the signal this process gets when its parent dies.
PR_SET_PDEATHSIG = 1
#: Jobs at a time: one per core of a 2-core box.
WORKERS = 2


def die_with_parent(parent: int) -> None:
    """SIGKILL this process when ``parent`` dies (Linux); exit at once if
    it has already died."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (AttributeError, OSError):
        pass
    if os.getppid() != parent:
        sys.exit(1)


def run_jobs(target: str, arglists, timeout: float = 120.0) -> list:
    """``[module.function(*args) for args in arglists]``, where ``target``
    is ``"module:function"``, each call in a fresh process, all within
    ``timeout`` seconds.  Raises ``subprocess.TimeoutExpired`` past the
    timeout and ``subprocess.CalledProcessError`` when a job fails."""
    deadline = perf_counter() + timeout

    def one(args):
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(os.getpid())],
            input=pickle.dumps((target, tuple(args))),
            stdout=subprocess.PIPE, check=True,
            timeout=max(0.0, deadline - perf_counter()))
        return pickle.loads(done.stdout)

    with ThreadPoolExecutor(WORKERS) as threads:
        return list(threads.map(one, arglists))


def main() -> None:
    die_with_parent(int(sys.argv[1]))
    # The result goes to the real stdout; anything the job prints goes
    # to stderr.
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    target, args = pickle.load(sys.stdin.buffer)
    module, function = target.split(":")
    result = getattr(importlib.import_module(module), function)(*args)
    pickle.dump(result, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.close()


if __name__ == "__main__":
    main()
