"""Pieces shared by the workloads."""

from __future__ import annotations


class WrongAnswer(Exception):
    """A verdict that contradicts a checked certificate or the input's
    construction.  It fails the whole run."""


class Unchecked(Exception):
    """An answer that arrived without a certificate that checks.  The
    operation counts as failed."""


def tree_nodes(proof) -> int:
    """Node count of any tml proof tree (nodes carry ``premises``)."""
    n, stack = 0, [proof]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.premises)
    return n


class Workload:
    """What ``run.py`` needs from a workload.

    ``setup(seed)`` returns the corpus of operations; ``warmup_ops(seed)``
    returns operations that share nothing interned with the corpus;
    ``run_op(op, tracer)`` performs and checks one operation; the traced
    run covers the first ``census_ops`` operations.
    """

    name = ""
    census_ops = 0
    stage = None   # the layer an operation is in, for timeout accounting

    def trace_patches(self, tracer):
        """Module attributes to replace while tracing: (module, name, new)."""
        return []

    def on_timeout(self, tracer):
        if self.stage in ("sc", "signed", "gcalc"):
            tracer.add(f"{self.stage}.search_timeouts")

    def cleanup(self):
        pass


def sequent_variables(seq) -> set:
    from tml.syntax import variables
    out = set()
    for f in seq.left | seq.right:
        out |= variables(f)
    return out
