"""Deliberately corrupted operads, used as negative controls.

Each factory returns a descriptor whose composition is wrong in a specific
way; the axiom checker must refuse it with a named counterexample.
"""

from .errors import PositionOutOfRange
from .operad_core import OperadDescriptor, PermElement, perm_act, perm_operad
from .word_operad import ReducedWord, _word, word_operad

FAULT_NAMES = ("perm-compose", "word-reduce")


def corrupted_perm_operad() -> OperadDescriptor:
    """Projection composition with an off-by-one in the i > k branch."""

    def bad_compose(w1, k, w2):
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

    good = perm_operad()
    return OperadDescriptor(
        name="perm[faulty-compose]",
        compose=bad_compose,
        act=perm_act,
        unit=good.unit,
        arity_of=good.arity_of,
        enumerate_arity=good.enumerate_arity,
        element_type=PermElement,
    )


def corrupted_word_operad() -> OperadDescriptor:
    """Word composition whose reduction also cancels mismatched generators:
    any positive letter swallows any following inverse letter."""

    def bad_compose(w1, i, w2):
        m, n = w1.arity, w2.arity
        if not 1 <= i <= m:
            raise PositionOutOfRange(f"slot {i} out of 1..{m}")
        shift2 = i - 1
        shift1 = n - 1
        block = tuple([v + shift2 if v > 0 else v - shift2 for v in w2.letters])
        inverse = tuple([-x for x in reversed(block)])
        # substitute, letting every positive letter swallow an inverse
        # letter that follows it
        out = []
        for v in w1.letters:
            if v == i or v == -i:
                for x in block if v > 0 else inverse:
                    if x < 0 and out and out[-1] > 0:
                        out.pop()
                    else:
                        out.append(x)
                continue
            if v > i:
                v += shift1
            elif v < -i:
                v -= shift1
            if v < 0 and out and out[-1] > 0:
                out.pop()
            else:
                out.append(v)
        # force validity of the letter sequence as a reduced word; the
        # letters are in range and this pass leaves them reduced
        fixed = []
        for v in out:
            if fixed and fixed[-1] == -v:
                fixed.pop()
            else:
                fixed.append(v)
        return _word(m + n - 1, tuple(fixed))

    good = word_operad()
    return OperadDescriptor(
        name="word[faulty-reduce]",
        compose=bad_compose,
        act=good.act,
        unit=good.unit,
        arity_of=good.arity_of,
        enumerate_arity=good.enumerate_arity,
        element_type=ReducedWord,
    )


def corrupted_operad(fault: str) -> OperadDescriptor:
    if fault == "perm-compose":
        return corrupted_perm_operad()
    if fault == "word-reduce":
        return corrupted_word_operad()
    raise ValueError(f"unknown fault {fault!r}; choose from {FAULT_NAMES}")
