"""Shared pieces of the exhaustive explorers (``tests/test_*_explorer.py``)."""

import itertools


def timings(stimuli, before, times):
    """Every distinct timing of ``stimuli`` over ``times``.

    A timing is a schedule order (which is also the firing order of
    same-time stimuli) plus a non-decreasing timestamp per position, so
    each distinct engine input is produced exactly once.  ``before``
    holds index pairs ``(a, b)``: stimulus ``a`` is scheduled before
    ``b``.
    """
    n = len(stimuli)
    for order in itertools.permutations(range(n)):
        at = {stimulus: position for position, stimulus in enumerate(order)}
        if any(at[a] > at[b] for a, b in before):
            continue
        for stamps in itertools.combinations_with_replacement(times, n):
            yield [(stamps[i], stimuli[s]) for i, s in enumerate(order)]
