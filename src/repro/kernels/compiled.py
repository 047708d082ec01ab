"""The compiled Δ-bucket loop: ``buckets.c``, built at import, called with ctypes.

:func:`repro.sssp.fused.run_buckets` hands ``kernel="auto"`` runs to
:func:`run_buckets` here: the same light/heavy bucket loop as the NumPy
one, with the same distances and the same four counters, in one C call
instead of a NumPy dispatch per wave (the paper's §VI.B "Fused C impl.").

Importing this module builds the library once per source, compiler and
flags with the system C compiler — ``$CC``, else ``sysconfig``'s ``CC`` —
into ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), and loads
it; later imports load the cached file.  If neither is writable, the
build goes to a fresh temporary directory that is deleted once the
library is loaded.  If the build or the load fails, or the compiler runs
longer than :data:`BUILD_TIMEOUT_S`, one ``RuntimeWarning`` names the
command and the tail of its output, :func:`available` is false and
every caller keeps the NumPy loop (``CC=false`` forces that).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["available", "run_buckets"]

SOURCE = Path(__file__).with_name("buckets.c")
#: no fast-math and no FMA contraction: every sum and product must round
#: as NumPy rounds it
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
#: the C status codes, in order: ok, bucket index past 2**62, bad CSR, no memory
_ERRORS: tuple[tuple[type[Exception], str], ...] = (
    (OverflowError, "distance/delta ratio too large for bucket indexing; increase delta"),
    (ValueError, "CSR row or column out of range"),
    (MemoryError, "out of memory in the compiled bucket loop"),
)
_COUNTERS = ("steps", "phases", "relaxations", "updates")
#: a compiler that has not finished by then counts as a failed build
BUILD_TIMEOUT_S = 120

_CSR = tuple[NDArray[Any], NDArray[Any], NDArray[Any]]


def _cache_dir() -> tuple[Path, bool]:
    """The build cache, and whether it is a fresh temporary directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base, "repro")
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK):
            return path, False
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="repro-")), True


def _load() -> Any:
    """Build (or find) the library and return its entry point, or ``None``."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    key = hashlib.sha256(
        b"\0".join(
            [SOURCE.read_bytes(), *(s.encode() for s in (*cc, "|", *FLAGS, platform.machine()))]
        )
    ).hexdigest()[:16]
    cache, temporary = _cache_dir()
    lib = cache / f"buckets-{key}.so"
    cmd = [*cc, *FLAGS, "-o", str(lib), str(SOURCE), "-lm"]
    try:
        if not lib.exists():
            # build beside the target, then rename: concurrent builds are safe
            fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
            os.close(fd)
            try:
                cmd[cmd.index("-o") + 1] = tmp
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
                if proc.returncode:
                    tail = (proc.stderr or proc.stdout).strip()[-400:]
                    raise OSError(f"exit status {proc.returncode}: {tail}")
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        fn = ctypes.CDLL(str(lib)).repro_run_buckets
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        warnings.warn(
            f"compiled bucket loop unavailable, using the NumPy loop: "
            f"`{shlex.join(cmd)}` failed ({exc})",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    finally:
        if temporary:
            # nothing can reuse a per-process directory, and the loaded
            # mapping outlives its file
            shutil.rmtree(cache, ignore_errors=True)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [ptr, i64, ptr, i64, ctypes.c_double,
                   ptr, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr]
    fn.restype = ctypes.c_int
    return fn


_RUN = _load()


def available() -> bool:
    """Whether the compiled loop built and loaded."""
    return _RUN is not None


def _csr(part: _CSR) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.float64], int]:
    indptr, indices, weights = part
    p = np.ascontiguousarray(indptr, dtype=np.int64)
    i = np.ascontiguousarray(indices, dtype=np.int64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    return p, i, w, min(len(i), len(w))


def run_buckets(
    split: tuple[_CSR, _CSR], t: NDArray[Any], seeds: NDArray[Any], delta: float
) -> dict[str, int] | None:
    """The compiled :func:`repro.sssp.fused.run_buckets`, or ``None``.

    *t* holds one distance per vertex: ``len(t) == n`` with
    ``n = len(indptr) - 1``.  ``None`` means "run the NumPy loop": the
    library did not load, or the input is outside what the C code
    accepts — a *t* that is not a writable 1-D ``float64`` array of
    length *n*, a seed out of range, or a Δ that is not positive.  CSR
    arrays of other dtypes are converted, and a non-contiguous *t* runs
    on a copy that is written back.  Raises ``OverflowError`` where
    :class:`~repro.kernels.BucketQueue` would.
    """
    if _RUN is None:
        return None
    (ALp, ALi, ALw, al_nnz), (AHp, AHi, AHw, ah_nnz) = _csr(split[0]), _csr(split[1])
    n = len(ALp) - 1
    seeds = np.asarray(seeds)
    if (
        n <= 0 or len(AHp) != n + 1 or len(t) != n
        or t.dtype != np.float64 or t.ndim != 1 or not t.flags.writeable
        or seeds.dtype.kind not in "iu" or not delta > 0
    ):
        return None
    seeds = np.ascontiguousarray(seeds.reshape(-1), dtype=np.int64)
    if len(seeds) and (seeds.min() < 0 or seeds.max() >= n):
        return None
    buf = t if t.flags.c_contiguous else np.ascontiguousarray(t)
    counters = np.zeros(len(_COUNTERS), dtype=np.int64)
    status = _RUN(
        buf.ctypes.data, n, seeds.ctypes.data, len(seeds), float(delta),
        ALp.ctypes.data, ALi.ctypes.data, ALw.ctypes.data, al_nnz,
        AHp.ctypes.data, AHi.ctypes.data, AHw.ctypes.data, ah_nnz,
        counters.ctypes.data,
    )
    if buf is not t:
        t[...] = buf
    if status:
        error, message = _ERRORS[status - 1]
        raise error(message)
    return dict(zip(_COUNTERS, map(int, counters)))
