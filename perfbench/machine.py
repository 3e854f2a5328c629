"""Machine and build record printed with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: str) -> str | None:
    """HEAD of ``root`` read from ``.git`` directly; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_record(root: str) -> tuple[int, str]:
    """Line count and SHA-256 of every ``src/**/*.py`` file, in path order."""
    digest, lines = hashlib.sha256(), 0
    src = os.path.join(root, "src")
    paths = sorted(
        os.path.join(d, f) for d, _, files in os.walk(src) for f in files if f.endswith(".py")
    )
    for path in paths:
        with open(path, "rb") as fh:
            content = fh.read()
        digest.update(os.path.relpath(path, src).encode() + b"\0" + content)
        lines += content.count(b"\n")
    return lines, digest.hexdigest()


def record(root: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines, digest = source_record(root)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "src_lines": lines,
        "src_sha256": digest,
    }
