"""The operad of group words: arity n carries the set underlying the free
group on x_1..x_n, composition substitutes a word into a generator slot and
freely reduces, and the symmetric group permutes generator indices.

Letters are stored as signed integers: +i for x_i, -i for its inverse.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import IndexOutOfRange, NotAGroup, OperadMismatch, PositionOutOfRange
from .operad_core import OperadDescriptor


def _reduce_letters(letters):
    out = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


class ReducedWord:
    """A freely reduced word; arity bounds the generator indices that may occur.

    Immutable: arity and letters are read-only, and equality and hashing
    are by (arity, letters).
    """

    __slots__ = ("_arity", "_letters")

    def __init__(self, arity, letters):
        letters = tuple(letters)
        if arity < 0:
            raise ValueError("negative arity")
        for v in letters:
            if v == 0 or abs(v) > arity:
                raise IndexOutOfRange(f"letter {v} out of range for arity {arity}")
        if letters != _reduce_letters(letters):
            raise ValueError(f"letters {letters} are not freely reduced")
        self._arity = arity
        self._letters = letters

    arity = property(attrgetter("_arity"))
    letters = property(attrgetter("_letters"))

    def __eq__(self, other):
        if other.__class__ is not ReducedWord:
            return NotImplemented
        return self._arity == other._arity and self._letters == other._letters

    def __hash__(self):
        return hash((self._arity, self._letters))

    def __repr__(self):
        return f"ReducedWord(arity={self._arity!r}, letters={self._letters!r})"

    def __len__(self):
        return len(self._letters)

    def __str__(self):
        if not self._letters:
            return "e"
        return " ".join(f"x{v}" if v > 0 else f"x{-v}^-1" for v in self._letters)

    def inverse(self):
        return ReducedWord(self._arity, tuple(-v for v in reversed(self._letters)))


def _word(arity, letters) -> ReducedWord:
    """A word from letters already reduced and in range, without the checks."""
    w = object.__new__(ReducedWord)
    w._arity = arity
    w._letters = letters
    return w


def free_reduce(letters, arity: int) -> ReducedWord:
    """The unique reduced form, by stack cancellation of adjacent inverse pairs."""
    for v in letters:
        if v == 0 or abs(v) > arity:
            raise IndexOutOfRange(f"letter {v} out of range for arity {arity}")
    return _word(arity, _reduce_letters(letters))


def word_compose(w1: ReducedWord, i: int, w2: ReducedWord) -> ReducedWord:
    """Substitute w2 for x_i in w1.

    w2's generators are shifted to occupy slots i..i+n-1, generators of w1
    above i are shifted up by n-1, and an inverted occurrence of x_i receives
    the inverse word.  The raw result is freely reduced.
    """
    m = w1._arity
    if not 1 <= i <= m:
        raise PositionOutOfRange(f"slot {i} out of 1..{m}")
    letters = w1._letters
    shift1 = w2._arity - 1
    if i not in letters and -i not in letters:
        # a relabelling of w1's generators, which keeps the word reduced
        if not shift1:
            return w1
        relabelled = [v + shift1 if v > i else v - shift1 if v < -i else v for v in letters]
        return _word(m + shift1, tuple(relabelled))
    shift2 = i - 1
    block = w2._letters
    if shift2:
        block = tuple([v + shift2 if v > 0 else v - shift2 for v in block])
    out = []
    # w1 and w2 are reduced, and so is each piece appended below: letters
    # can only cancel where a piece meets the letters before it
    for v in letters:
        if v == i:
            piece = block
        elif v == -i:
            piece = tuple([-x for x in reversed(block)])
        else:
            if v > i:
                v += shift1
            elif v < -i:
                v -= shift1
            if out and out[-1] == -v:
                out.pop()
            else:
                out.append(v)
            continue
        t = 0
        while out and t < len(piece) and out[-1] == -piece[t]:
            out.pop()
            t += 1
        out.extend(piece[t:] if t else piece)
    return _word(m + shift1, tuple(out))


def word_perm_act(sigma, w: ReducedWord) -> ReducedWord:
    """Relabel generator indices by sigma; relabelling preserves reducedness."""
    n = w._arity
    if len(sigma) != n or len(set(sigma)) != n:
        raise OperadMismatch("not a permutation of the word's generators")
    return _word(n, tuple(sigma[v - 1] if v > 0 else -sigma[-v - 1] for v in w._letters))


def group_eval(w: ReducedWord, G, args):
    """Evaluate a word in a finite group: the left-to-right product of the
    substituted letters, with inverse exponents using the group inverse.

    G is a FiniteMonoidTable; it is checked to be a group.  args are element
    indices, one per generator slot.
    """
    G.require_group()
    if len(args) != w.arity:
        raise OperadMismatch(f"expected {w.arity} arguments, got {len(args)}")
    acc = G.unit
    for v in w.letters:
        g = args[v - 1] if v > 0 else G.inverse(args[-v - 1])
        acc = G.mul(acc, g)
    return acc


def semigroup_eval(w: ReducedWord, mul, involution, unit, args):
    """Evaluate a word in a unital semigroup with involution: inverse letters
    go through the involution, the empty word gives the unit."""
    acc = unit
    for v in w.letters:
        g = args[v - 1] if v > 0 else involution(args[-v - 1])
        acc = mul(acc, g)
    return acc


def word_enumerate(n: int, max_length: int):
    """All reduced words of length <= max_length, ordered by length and then
    lexicographically with x_1 < x_1^-1 < x_2 < ..."""
    if max_length < 0:
        raise ValueError("negative length bound")
    alphabet = []
    for g in range(1, n + 1):
        alphabet.append(g)
        alphabet.append(-g)
    out = [_word(n, ())]
    layer = [()]
    for _ in range(max_length):
        nxt = []
        for prefix in layer:
            for a in alphabet:
                if prefix and prefix[-1] == -a:
                    continue
                nxt.append(prefix + (a,))
        out.extend(_word(n, t) for t in nxt)
        layer = nxt
    return out


def reduced_word_count(n: int, length: int) -> int:
    """Closed form: 1 word of length 0, 2n(2n-1)^(L-1) of length L >= 1."""
    if length == 0:
        return 1
    if n == 0:
        return 0
    return 2 * n * (2 * n - 1) ** (length - 1)


def parse_word(s: str, arity: int) -> ReducedWord:
    """Inverse of str(): tokens like "x2" or "x2^-1" separated by spaces;
    "e" (or nothing) is the empty word."""
    s = s.strip()
    if s in ("", "e"):
        return ReducedWord(arity, ())
    letters = []
    for tok in s.split():
        if not tok.startswith("x"):
            raise ValueError(f"bad token {tok!r}")
        body = tok[1:]
        if body.endswith("^-1"):
            letters.append(-int(body[:-3]))
        else:
            letters.append(int(body))
    return free_reduce(letters, arity)


def word_operad() -> OperadDescriptor:
    return OperadDescriptor(
        name="word",
        compose=word_compose,
        act=word_perm_act,
        unit=ReducedWord(1, (1,)),
        arity_of=lambda w: w.arity,
        enumerate_arity=lambda n, size_bound: word_enumerate(n, size_bound),
        element_type=ReducedWord,
    )
