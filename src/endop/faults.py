"""Deliberately corrupted operads, used as negative controls.

Each fault is a lawful operad with its composition swapped for one that is
wrong in a specific way; the axiom checker must refuse it with a named
counterexample.
"""

from dataclasses import replace

from .errors import PositionOutOfRange
from .operad_core import OperadDescriptor, PermElement, perm_operad
from .word_operad import _reduce_letters, _word, word_operad


def _bad_perm_compose(w1, k, w2):
    """Projection composition with an off-by-one in the i > k branch."""
    if not 1 <= k <= w1.arity:
        raise PositionOutOfRange(f"slot {k} out of 1..{w1.arity}")
    m, n, i, j = w1.arity, w2.arity, w1.index, w2.index
    if i < k:
        idx = i
    elif i == k:
        idx = k + j - 1
    else:
        idx = i + n - 2  # wrong: drops the slot the inner element consumed
    return PermElement(m + n - 1, max(idx, 1))


def _bad_word_compose(w1, i, w2):
    """Word composition whose reduction also cancels mismatched generators:
    in the substituted letters, any positive letter swallows any inverse
    letter that follows it, before the free reduction."""
    m, n = w1.arity, w2.arity
    if not 1 <= i <= m:
        raise PositionOutOfRange(f"slot {i} out of 1..{m}")
    block = [v + i - 1 if v > 0 else v - i + 1 for v in w2.letters]
    inverse = [-x for x in reversed(block)]
    raw = []
    for v in w1.letters:
        if v == i:
            raw.extend(block)
        elif v == -i:
            raw.extend(inverse)
        else:
            raw.append(v + n - 1 if v > i else v - n + 1 if v < -i else v)
    out = []
    for v in raw:
        if v < 0 and out and out[-1] > 0:
            out.pop()
        else:
            out.append(v)
    return _word(m + n - 1, _reduce_letters(out))


FAULTS = {  # name -> (operad name, lawful operad, its wrong composition)
    "perm-compose": ("perm[faulty-compose]", perm_operad, _bad_perm_compose),
    "word-reduce": ("word[faulty-reduce]", word_operad, _bad_word_compose),
}
FAULT_NAMES = tuple(FAULTS)


def corrupted_operad(fault: str) -> OperadDescriptor:
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULT_NAMES}")
    name, lawful, compose = FAULTS[fault]
    return replace(lawful(), name=name, compose=compose)
