"""The numerical environment that exact floating-point pins depend on.

A pinned result's last bits depend on more than the numpy version: the
BLAS build, the BLAS kernel chosen at run time for this CPU, and the
SIMD loops numpy dispatches ``tanh``, ``log10`` and ``power`` to. A test
asserts an exact pin only when :func:`numerical_environment` equals the
environment the pin was recorded under, and its bands everywhere.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Optional

import numpy as np

#: Exported names of OpenBLAS's runtime core query, per symbol suffix
#: convention (the ``scipy_openblas`` builds numpy wheels bundle first).
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def openblas_core() -> Optional[str]:
    """The CPU core OpenBLAS picked at run time, or ``None``.

    Read through ``ctypes`` from the OpenBLAS library bundled with
    numpy (``numpy.libs`` or ``.dylibs``). The build string names the
    build machine's core instead, so it cannot stand in for this.
    """
    root = os.path.dirname(os.path.dirname(np.__file__))
    patterns = (
        os.path.join(root, "numpy.libs", "*openblas*"),
        os.path.join(os.path.dirname(np.__file__), ".dylibs", "*openblas*"),
    )
    for path in sorted(p for pattern in patterns for p in glob.glob(pattern)):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _CORENAME_SYMBOLS:
            query = getattr(library, symbol, None)
            if query is None:
                continue
            query.argtypes = []
            query.restype = ctypes.c_char_p
            name = query()
            return name.decode() if name else None
    return None


def numerical_environment() -> dict:
    """numpy version, BLAS build, OpenBLAS runtime core and SIMD found."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints its config only
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": (blas.get("name"), blas.get("version")),
        "blas_core": openblas_core(),
        "simd": tuple(config.get("SIMD Extensions", {}).get("found", ())),
    }


def matches(recorded: dict) -> bool:
    """True when this process runs under the ``recorded`` environment.

    An unreadable core name never matches.
    """
    current = numerical_environment()
    return current["blas_core"] is not None and current == recorded
