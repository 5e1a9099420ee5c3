"""Process facts read from /proc: RSS, CPU time, process age,
descendants, box."""

from __future__ import annotations

import os
import platform
import time


def rss_mb(pid: int) -> float:
    """Resident set size of ``pid`` in MiB (0.0 if it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_age_s() -> float:
    """Seconds since this process started (clock-tick resolution)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat; 3 fields precede
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _cpu_clock_s(pid: int) -> float:
    """Process-wide CPU time of ``pid`` (all its threads, ns precision),
    read through the kernel's per-process CPU clock; 0.0 once it exits."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)  # CPUCLOCK_SCHED
    except OSError:
        return 0.0


def pids_cpu_s(pids) -> float:
    """CPU seconds (user + system, over every core) used so far by this
    process and the live processes ``pids``."""
    return time.process_time() + sum(_cpu_clock_s(p) for p in pids)


def worker_pids(titles: tuple[str, ...]) -> list[int]:
    """This process's descendants whose title starts with one of
    ``titles`` (Ray titles worker processes ``ray::<task or actor>``)."""
    return [p for p, cmd in descendants(os.getpid()).items()
            if cmd.startswith(titles)]


class CpuMeter:
    """CPU seconds used during a ``with`` block by this process and every
    Ray worker process (``ray::...``), including workers that start or
    exit inside the block, such as a build's merge actors.

    Ray workers are not reaped into their parent's child times, so a
    worker's CPU clock is polled every ``poll_s`` while the block runs
    and its last reading is kept; a worker that exits loses at most one
    poll interval. The process list is rescanned every ``scan_s``. Ray's
    daemons (GCS, raylet, agents) are left out: their time follows the
    wall clock, not the work.
    """

    def __init__(self, poll_s: float = 0.05, scan_s: float = 0.25) -> None:
        self.poll_s, self.scan_s = poll_s, scan_s
        self.cpu_s = 0.0

    def _scan(self) -> None:
        for p in worker_pids(("ray::",)):
            self.last.setdefault(p, 0.0)  # new since the start: from zero

    def _poll(self) -> None:
        for p in list(self.last):
            v = _cpu_clock_s(p)
            if v > 0.0:
                self.last[p] = v

    def _loop(self) -> None:
        next_scan = time.monotonic() + self.scan_s
        while not self._stop.wait(self.poll_s):
            if time.monotonic() >= next_scan:
                self._scan()
                next_scan = time.monotonic() + self.scan_s
            self._poll()

    def __enter__(self) -> "CpuMeter":
        import threading
        self.base = {p: _cpu_clock_s(p) for p in worker_pids(("ray::",))}
        self.last = dict(self.base)
        self.own = time.process_time()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._scan()
        self._poll()
        self.cpu_s = (time.process_time() - self.own
                      + sum(v - self.base.get(p, 0.0)
                            for p, v in self.last.items()))


def _ppid_and_cmd(pid: int) -> tuple[int, str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
    except (OSError, ValueError, IndexError):
        return None
    return ppid, cmd


def descendants(root: int) -> dict[int, str]:
    """pid → command line for every live descendant of ``root``."""
    info = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            got = _ppid_and_cmd(int(name))
            if got is not None:
                info[int(name)] = got
    out, frontier = {}, {root}
    while frontier:
        nxt = {p for p, (pp, _) in info.items() if pp in frontier}
        nxt -= set(out)
        for p in nxt:
            out[p] = info[p][1]
        frontier = nxt
    return out


def actor_rss_mb(prefix: str) -> float:
    """Summed RSS of this process's descendants whose title starts with
    ``prefix`` (Ray titles actor processes ``ray::ClassName...``)."""
    return sum(rss_mb(p) for p, cmd in descendants(os.getpid()).items()
               if cmd.startswith(prefix))


def box(extra: dict) -> dict:
    """The box descriptor printed with every run."""
    import numpy
    import pyarrow
    import ray
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"cpus_online": len(os.sched_getaffinity(0)),
            "ram_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, **extra}
