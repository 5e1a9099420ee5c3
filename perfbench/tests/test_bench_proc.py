"""The CPU meters count other processes' CPU, exited ones included."""

import subprocess
import sys
import time

import proc

BURN = "import time\nt = time.process_time()\nwhile time.process_time() - t < {s}: pass\ntime.sleep({z})"


def _spawn(burn_s: float, sleep_s: float, title: str | None = None):
    code = BURN.format(s=burn_s, z=sleep_s)
    if title is None:
        return subprocess.Popen([sys.executable, "-c", code])
    # exec -a sets argv[0], which is what the process title is read from
    return subprocess.Popen(["bash", "-c", f'exec -a "{title}" '
                             f'"{sys.executable}" -c "$0"', code])


def test_pids_cpu_s_reads_a_live_child():
    p = _spawn(0.3, 5.0)
    try:
        deadline = time.monotonic() + 4.0
        while proc.pids_cpu_s([p.pid]) - time.process_time() < 0.3:
            assert time.monotonic() < deadline and p.poll() is None
            time.sleep(0.05)
    finally:
        p.kill()
        p.wait()


def test_cpu_meter_keeps_a_worker_that_exits_inside_the_block():
    with proc.CpuMeter() as m:
        p = _spawn(0.4, 0.0, title="ray::FakeWorker")
        p.wait()
    assert m.cpu_s >= 0.3, m.cpu_s


def test_cpu_meter_ignores_other_processes():
    own = time.process_time()
    with proc.CpuMeter() as m:
        p = _spawn(0.3, 0.0)
        p.wait()
    assert m.cpu_s < 0.1 + (time.process_time() - own), m.cpu_s
