"""Probes measured outside the workload sessions: the fresh-process import
and the distance kernel on fixed blocks."""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

IMPORT_REPEATS = 3
KERNEL_REPEATS = 5
KERNEL_ROWS = 1000
DEFAULT_BLOCK = 2_000_000

_TIMED_IMPORT = ("import time; t = time.perf_counter(); import gproximity; "
                 "print(time.perf_counter() - t)")


def _python(args, env, cwd):
    proc = subprocess.run([sys.executable] + args, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout, proc.stderr


def scipy_share(importtime_stderr: str) -> float:
    """Seconds of the outermost ``scipy*`` entries of ``-X importtime``.

    The report prints a module after its imports, indented by depth, so read
    in reverse a parent precedes its children.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the column header
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    total, stack = 0, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(top for _d, top in stack):
            total += cumulative
        stack.append((depth, is_scipy))
    return total / 1e6


def import_metrics(env, cwd) -> dict:
    times = [float(_python(["-c", _TIMED_IMPORT], env, cwd)[0]) for _ in range(IMPORT_REPEATS)]
    _out, err = _python(["-X", "importtime", "-c", "import gproximity"], env, cwd)
    return {"import.s": statistics.median(times), "import.scipy_s": scipy_share(err)}


def kernel_metrics(gp) -> tuple:
    """Mpairs/s of ``_scan.cross_dists`` on one scan block of each kind.

    The block is the scanner's own block size; bytes are computed from the
    array sizes (inputs, gathered entries, output), not measured.
    Returns (metrics, absent names).
    """
    scan = sys.modules.get("gproximity._scan")
    cross = getattr(scan, "cross_dists", None)
    if cross is None:
        return {}, ["scan.cross_dists"]
    block = getattr(scan, "_BLOCK_ELEMS", DEFAULT_BLOCK)
    rows, cols = KERNEL_ROWS, max(1, block // KERNEL_ROWS)
    rng = np.random.default_rng(12345)
    kinds = {}
    for dim in (1, 2):
        p, q = rng.random((rows, dim)), rng.random((cols, dim))
        kinds[f"coord{dim}d"] = (gp.CoordinateSpace(dim), p, q,
                                 (rows + cols) * dim * 8 + rows * cols * 8)
    tab = gp.TabulatedSpace(rng.random((cols, cols)))
    kinds["gather"] = (tab, rng.integers(cols, size=rows), np.arange(cols),
                       (rows + cols) * 8 + 2 * rows * cols * 8)
    out, total_t, total_b = {}, 0.0, 0
    for kind, (space, p, q, nbytes) in kinds.items():
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            cross(space, p, q)
            times.append(time.perf_counter() - t0)
        t = statistics.median(times)
        out[f"scan.kernel.{kind}.mpairs_per_s"] = rows * cols / t / 1e6
        total_t += t
        total_b += nbytes
    out["scan.kernel.mpairs_per_s"] = len(kinds) * rows * cols / total_t / 1e6
    out["scan.kernel.bytes"] = total_b
    return out, []
