"""The name of the array backend behind the ``(B, n, m)`` batch kernels.

The batch kernels are NumPy code, and NumPy is the only backend. Its
name stays as provenance: every store record, the service's ``info``
and ``stats`` replies and the benchmark fingerprint carry
``get_backend().name``, which is always ``"numpy"``.
"""

from __future__ import annotations

from types import SimpleNamespace

__all__ = ["get_backend"]

_NUMPY = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """The array backend; its ``name`` is the provenance ``"numpy"``."""
    return _NUMPY
