"""Process-level plumbing for the benchmark: the checkout root, the Ray
session it owns, and the ``/proc`` readings (peak RSS, process tree).

Everything the benchmark writes lives under ``<root>/.perfbench/``. Ray's
session directory goes there too when its Unix socket paths fit the
107-byte ``AF_UNIX`` limit; a checkout whose path is too long for that
falls back to a fresh directory under the system temp dir, removed at exit.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import time

ROOT = os.getcwd()
STATE_DIR = os.path.join(ROOT, ".perfbench")

# <temp>/session_YYYY-MM-DD_HH-MM-SS_ffffff_<pid>/sockets/plasma_store,
# with a pid of up to 7 digits
_SOCKET_SUFFIX_LEN = len("/session_2026-01-01_00-00-00_000000_1234567") + len(
    "/sockets/plasma_store"
)
_AF_UNIX_MAX = 107


def require_program() -> None:
    """Exit non-zero (printing no result) unless the program's sources are
    in the working directory — the benchmark builds nothing else."""
    if not os.path.isfile(os.path.join(ROOT, "datacat_ray", "__init__.py")):
        print(f"perfbench: no datacat_ray package under {ROOT}; run from the "
              "root of a checkout", file=sys.stderr)
        sys.exit(2)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    # Ray workers import the program by module path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p
    )


def source_hash() -> str:
    """Digest of the program's source tree (``datacat_ray/``)."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    top = os.path.join(ROOT, "datacat_ray")
    for d, dirs, files in sorted(os.walk(top)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, top).encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def make_work_dir(tag: str) -> str:
    """A fresh per-invocation directory; scratch users (Python ``tempfile``,
    the program's spill root) are pointed at it so nothing lands outside
    the checkout."""
    d = os.path.join(STATE_DIR, "work", f"{tag}-{os.getpid()}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(os.path.join(d, "tmp"))
    os.environ["TMPDIR"] = os.path.join(d, "tmp")
    os.environ["DATACAT_SCRATCH"] = os.path.join(d, "tmp")
    tempfile.tempdir = None
    return d


def num_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, overridden
    by ``OMP_NUM_THREADS`` and capped by ``OMP_THREAD_LIMIT`` when set."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = min(n, v) if cap else v
    return n


def pin_cpus() -> None:
    """Keep this process, and the Ray processes it starts, on the first
    ``num_cpus()`` CPUs it may use: the run gets the CPUs ``nproc`` grants,
    and the host-speed probe shares them with the timed jobs."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:num_cpus()])


class RaySession:
    """Owns ``ray.init``/``ray.shutdown`` for one invocation and makes sure
    every process the session started has ended before the benchmark
    exits."""

    def __init__(self) -> None:
        temp = os.path.join(STATE_DIR, "r")
        self._own_temp = None
        if len(temp) + _SOCKET_SUFFIX_LEN > _AF_UNIX_MAX:
            temp = self._own_temp = tempfile.mkdtemp(prefix="pb", dir="/tmp")
        self.temp_dir = temp
        self._preexisting = set(os.listdir(temp)) if os.path.isdir(temp) else set()
        self._pids: set[int] = set()

    def start(self) -> None:
        import ray

        ray.init(
            address="local",
            num_cpus=num_cpus(),
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=300 * 1024 * 1024,
            _temp_dir=self.temp_dir,
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        from datacat_ray.config import PipelineConfig

        PipelineConfig().apply_data_context()

    def stop(self) -> None:
        import ray

        if ray.is_initialized():
            self._pids |= set(descendants())
            ray.shutdown()
        _wait_gone(self._pids)
        self._pids.clear()

    def close(self) -> None:
        """Stop Ray and remove the session directories this object made."""
        self.stop()
        if self._own_temp:
            shutil.rmtree(self._own_temp, ignore_errors=True)
        elif os.path.isdir(self.temp_dir):
            for name in set(os.listdir(self.temp_dir)) - self._preexisting:
                p = os.path.join(self.temp_dir, name)
                if os.path.islink(p) or not os.path.isdir(p):
                    os.unlink(p)
                else:
                    shutil.rmtree(p, ignore_errors=True)


def _wait_gone(pids: set[int], grace_s: float = 10.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL what outlives ``grace_s``."""
    deadline = time.monotonic() + grace_s
    alive = set(pids)
    while alive:
        alive = {p for p in alive if _alive(p)}
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    if state == "Z":
        try:  # our own zombie child: reap it
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return _exists(pid)
    return True


def _exists(pid: int) -> bool:
    return os.path.exists(f"/proc/{pid}")


# ---------------------------------------------------------------------------
# /proc readings (psutil is not available)
# ---------------------------------------------------------------------------

def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                out[int(name)] = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
    return out


def descendants(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), ()):
            out.append(c)
            stack.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except (FileNotFoundError, ProcessLookupError):
        return ""


def ray_worker_pids() -> list[int]:
    """Ray worker processes of this session (task workers and actors —
    their process titles start with ``ray::``)."""
    return [p for p in descendants() if _cmdline(p).startswith("ray::")]


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) in MiB; 0.0 if the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart ``VmHWM`` from the current RSS (``clear_refs`` mode 5)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass


def host_burn_s() -> float:
    """Single-thread calibration burn, the same 1500² matmul ×5 the repo's
    ``bench.py`` embeds, so a contended window shows in every result."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.RandomState(0).rand(1500, 1500)
    for _ in range(5):
        (a @ a).sum()
    return time.perf_counter() - t0
