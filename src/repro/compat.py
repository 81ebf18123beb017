"""Compatibility shims for the declared dependency floors.

``pyproject.toml`` pins ``requires-python >= 3.9``; ``int.bit_count``
only exists from Python 3.10, so bitset sweeps count bits through
:func:`popcount`.

``pyproject.toml`` pins ``numpy>=1.21``; ``np.trapezoid`` only exists from
NumPy 2.0 (it renamed ``np.trapz``).  Every trapezoid-rule call in the
package goes through this module so a fresh install at the declared floor
works, and so a future floor bump deletes exactly one branch.  CI's
``numpy-floor`` job installs the floor versions and runs ``spsta analyze``
to keep this promise honest.
"""

from __future__ import annotations

import numpy as np

if hasattr(np, "trapezoid"):
    trapezoid = np.trapezoid
else:  # pragma: no cover - exercised by CI's numpy-floor job (numpy < 2.0)
    trapezoid = np.trapz

if hasattr(int, "bit_count"):
    popcount = int.bit_count
else:  # pragma: no cover - Python 3.9
    def popcount(value: int) -> int:
        return bin(value).count("1")
