"""Reference minimality test for the outcome oracle.

This is the all-pairs `minimal_outcomes` that `dqworkbench.oracle` used
before it took outcomes in size order, kept verbatim so that a property in
`test_properties.py` can check the two agree on drawn outcome sets.
"""

from __future__ import annotations

from typing import Iterable

from dqworkbench.model import Instance, instance_extends


def minimal_outcomes(outcomes: Iterable[Instance]) -> frozenset[Instance]:
    """The outcomes no other outcome sits strictly inside."""
    pool = list(outcomes)
    out = []
    for j in pool:
        dominated = any(
            k != j and instance_extends(j, k) for k in pool
        )
        if not dominated:
            out.append(j)
    return frozenset(out)
