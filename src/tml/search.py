"""Backtrack-free backward search for calculi whose rules are invertible.

In the two-sided calculus (``tml.sc``) and the signed calculus
(``tml.signed``) every premise contains its conclusion.  A premise that
contains a valid sequent is valid, hence provable by completeness, and
by soundness an invalid conclusion has an invalid premise.  So every
rule is invertible: the first rule that makes progress decides the
sequent, and a search that backtracks into a second rule after a failed
premise only repeats work.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional, Sequence

__all__ = ["Step", "decide"]

# the premises of one rule application, and the builder of its proof
Step = tuple[Sequence[Hashable], Callable[[tuple], Any]]


def decide(goal: Hashable, expand: Callable[[Any], Optional[Step]]) -> Any:
    """Apply one rule per sequent, from goal upwards.

    ``expand(seq)`` returns None when no rule applies to seq, which is
    then unprovable, or the premises of the one rule to apply together
    with a function that builds the proof of seq from the proofs of
    those premises (an axiom has no premises).  No other rule is tried,
    so an unprovable sequent fails every sequent below it, down to the
    goal: the walk returns None at the first.  Premises must strictly
    extend their conclusion, so the walk never meets a sequent that is
    still open below it.  The walk is iterative, and a memo shares the
    proofs of sequents met more than once.
    """
    memo: dict[Hashable, Any] = {}
    # the open path from goal: each sequent with its step once expanded
    stack: list[tuple[Hashable, Optional[Step]]] = [(goal, None)]
    while stack:
        seq, step = stack[-1]
        if step is None:
            step = expand(seq)
            if step is None:
                return None
            stack[-1] = (seq, step)
        prems, build = step
        for prem in prems:
            if prem not in memo:
                stack.append((prem, None))
                break
        else:
            memo[seq] = build(tuple(memo[prem] for prem in prems))
            stack.pop()
    return memo[goal]
