"""The operad of group words: arity n carries the set underlying the free
group on x_1..x_n, composition substitutes a word into a generator slot and
freely reduces, and the symmetric group permutes generator indices.

Letters are stored as signed integers: +i for x_i, -i for its inverse.
"""

from __future__ import annotations

from operator import itemgetter, neg

from .errors import BoundExceeded, IndexOutOfRange, OperadMismatch, PositionOutOfRange
from .linalg import CANDIDATE_CAP
from .operad_core import OperadDescriptor
from .perms import require_perm

WORD_TAG = -1  # the first entry of every ReducedWord tuple
_new = tuple.__new__


def _reduce_letters(letters):
    out = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


class ReducedWord(tuple):
    """A freely reduced word; arity bounds the generator indices that may occur.

    A value: an immutable tuple (WORD_TAG, arity, letters), so that hashing,
    equality and construction run in C.  The tag keeps a word unequal to a
    plain tuple of its fields and to a projection with the same numbers.
    Words also order as tuples; that order means nothing.  len() counts the
    letters, so the empty word is falsy.
    """

    __slots__ = ()

    def __new__(cls, arity, letters):
        letters = tuple(letters)
        if arity < 0:
            raise ValueError("negative arity")
        for v in letters:
            if v == 0 or abs(v) > arity:
                raise IndexOutOfRange(f"letter {v} out of range for arity {arity}")
        if letters != _reduce_letters(letters):
            raise ValueError(f"letters {letters} are not freely reduced")
        return _new(cls, (WORD_TAG, arity, letters))

    arity = property(itemgetter(1))
    letters = property(itemgetter(2))

    def __repr__(self):
        return f"ReducedWord(arity={self[1]!r}, letters={self[2]!r})"

    def __len__(self):
        return len(self[2])

    def __str__(self):
        letters = self[2]
        if not letters:
            return "e"
        return " ".join(f"x{v}" if v > 0 else f"x{-v}^-1" for v in letters)

    def __reduce__(self):
        return ReducedWord, (self[1], self[2])

    def inverse(self):
        return _word(self[1], tuple(map(neg, reversed(self[2]))))


def _word(arity, letters) -> ReducedWord:
    """A word from letters already reduced and in range, without the checks."""
    return _new(ReducedWord, (WORD_TAG, arity, letters))


def free_reduce(letters, arity: int) -> ReducedWord:
    """The unique reduced form, by stack cancellation of adjacent inverse pairs."""
    for v in letters:
        if v == 0 or abs(v) > arity:
            raise IndexOutOfRange(f"letter {v} out of range for arity {arity}")
    return _word(arity, _reduce_letters(letters))


def _relabel(letters, i, up):
    """letters with the generators above x_i moved up by up."""
    if not up:
        return letters
    return tuple([v + up if v > i else v - up if v < -i else v for v in letters])


def word_compose_rows(w2s):
    """row(w1, i) == [word_compose(w1, i, w2) for w2 in w2s], w2s read once.

    A list of several arities is split into one kernel per arity, and their
    rows are put back in list order.  Over w2s of one arity n, what depends
    on w2s alone is built once per shift i - 1, when a row first needs it:
    the w2s' letters shifted to x_i.., the blocks, and their inverses, each
    the block of w2's inverse word when that is in w2s.  Per row, w1 is
    relabelled once, and the row is one comprehension over the blocks, in
    one of three shapes.  Without a letter x_i^(+-1) in w1 every entry is
    the relabelled w1.  With one such letter each entry is the letters
    before it, the block or its inverse, and the letters after it: the
    block's generators x_i..x_(i+n-1) are none of theirs, so nothing
    cancels but around an empty w2, whose entry alone is reduced.  With
    several, the blocks fill the cuts, and letters can cancel only where
    two blocks meet or around an empty w2, and only then is an entry
    reduced.
    """
    w2s = list(w2s)
    arities = {n for _, n, _ in w2s}
    if len(arities) > 1:
        kernels = {n: word_compose_rows([w for w in w2s if w[1] == n]) for n in arities}

        def mixed(w1, i):
            rows = {n: iter(kernel(w1, i)) for n, kernel in kernels.items()}
            return [next(rows[n]) for _, n, _ in w2s]

        return mixed
    up = arities.pop() - 1 if arities else 0
    shifted = {}  # shift -> the blocks
    inverses = {}  # shift -> the blocks' inverses
    partners = []  # per w2, the position of its inverse word in w2s, or None

    def inverted(shift, blocks):
        inverse = inverses.get(shift)
        if inverse is None:
            if not partners:
                index = {w: t for t, w in enumerate(w2s)}
                partners[:] = [index.get(w.inverse()) for w in w2s]
            inverse = inverses[shift] = [
                tuple(map(neg, reversed(block))) if t is None else blocks[t]
                for t, block in zip(partners, blocks)
            ]
        return inverse

    def row(w1, i):
        _, m, letters = w1
        if not 1 <= i <= m:
            raise PositionOutOfRange(f"slot {i} out of 1..{m}")
        arity = m + up
        relabelled = _relabel(letters, i, up)
        if i not in letters and -i not in letters:
            # a relabelling of w1's generators, which keeps the word reduced
            return [_new(ReducedWord, (WORD_TAG, arity, relabelled))] * len(w2s)
        shift = i - 1
        blocks = shifted.get(shift)
        if blocks is None:
            blocks = shifted[shift] = [
                tuple([v + shift if v > 0 else v - shift for v in b]) if shift else b
                for _, _, b in w2s
            ]
        cuts = [t for t, v in enumerate(letters) if v == i or v == -i]
        pre = relabelled[: cuts[0]]
        if len(cuts) == 1:
            post = relabelled[cuts[0] + 1 :]
            pieces = blocks if letters[cuts[0]] == i else inverted(shift, blocks)
            return [
                _new(
                    ReducedWord,
                    (WORD_TAG, arity, pre + b + post if b else _reduce_letters(pre + post)),
                )
                for b in pieces
            ]
        inverse_blocks = inverted(shift, blocks) if -i in letters else blocks
        ends = cuts[1:] + [len(letters)]
        segments = [(relabelled[a] == i, relabelled[a + 1 : b]) for a, b in zip(cuts, ends)]
        blocks_meet = any(b == a + 1 for a, b in zip(cuts, cuts[1:]))

        def fill(block, inverse):
            raw = pre
            for positive, segment in segments:
                raw += (block if positive else inverse) + segment
            return _reduce_letters(raw) if blocks_meet or not block else raw

        return [
            _new(ReducedWord, (WORD_TAG, arity, fill(b, v))) for b, v in zip(blocks, inverse_blocks)
        ]

    return row


def word_compose(w1: ReducedWord, i: int, w2: ReducedWord) -> ReducedWord:
    """Substitute w2 for x_i in w1, freely reduced: w2's generators shift to
    slots i..i+n-1, w1's above i shift up by n-1, and x_i^-1 receives the
    inverse word.  The one-element row of word_compose_rows."""
    return word_compose_rows((w2,))(w1, i)[0]


word_compose.rows = word_compose_rows


def word_perm_act(sigma, w: ReducedWord) -> ReducedWord:
    """Relabel generator indices by sigma; relabelling preserves reducedness."""
    _, n, letters = w
    require_perm(sigma, n)
    relabelled = tuple([sigma[v - 1] if v > 0 else -sigma[-v - 1] for v in letters])
    return _new(ReducedWord, (WORD_TAG, n, relabelled))


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


def word_enumerate(n: int, max_length: int):
    """All reduced words of length <= max_length, ordered by length and then
    lexicographically with x_1 < x_1^-1 < x_2 < ...  Their number, 1 + the
    sum over L = 1..max_length of 2n(2n-1)^(L-1), is counted first: past
    CANDIDATE_CAP the words are not listed, and BoundExceeded is raised."""
    if max_length < 0:
        raise ValueError("negative length bound")
    if n == 0:
        max_length = 0  # the empty word is the only word without letters
    count, layer = 1, 2 * n
    for _ in range(max_length):
        count += layer
        if count > CANDIDATE_CAP:
            raise BoundExceeded(
                f"more than {CANDIDATE_CAP} words of arity {n} and length <= {max_length}"
            )
        layer *= 2 * n - 1
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
        enumerate_arity=lambda n, size_bound: word_enumerate(n, size_bound),
    )
