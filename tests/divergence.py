"""Locate the first difference between two JSON-shaped payloads.

Shared by the identity gates in ``tests/`` and ``benchmarks/`` so a
failed byte comparison names the exact field that diverged instead of
only reporting that *something* did.
"""

from __future__ import annotations

from typing import Optional


def first_divergence(
    left, right, left_name: str, right_name: str, path: str = "$"
) -> Optional[str]:
    """The JSON path of the first difference, or ``None`` if equal.

    Walks ``left`` and ``right`` in lockstep (dict keys in sorted
    order); ``left_name`` and ``right_name`` label the two sides in the
    message, e.g. ``"$.points[1]: serial=2.0 parallel=2.5"``.
    """
    if type(left) is not type(right):
        return f"{path}: type {type(left).__name__} != {type(right).__name__}"
    if isinstance(left, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left:
                return f"{path}.{key}: only in {right_name} payload"
            if key not in right:
                return f"{path}.{key}: only in {left_name} payload"
            found = first_divergence(
                left[key], right[key], left_name, right_name, f"{path}.{key}"
            )
            if found is not None:
                return found
        return None
    if isinstance(left, list):
        if len(left) != len(right):
            return f"{path}: length {len(left)} != {len(right)}"
        for index, (a, b) in enumerate(zip(left, right)):
            found = first_divergence(
                a, b, left_name, right_name, f"{path}[{index}]"
            )
            if found is not None:
                return found
        return None
    if left != right:
        return f"{path}: {left_name}={left!r} {right_name}={right!r}"
    return None
