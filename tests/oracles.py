"""Oracle-only helpers of the tests, which the library itself never calls:
exhaustive generator trees of the q-power operad with one step of its
presentation relations, reading a field back from its JSON form, the
identity and the relabelling action of permutations, projections and
transposes as plain functions, word evaluation in a semigroup with
involution, word composition by raw substitution, the closed-form count
of reduced words, and the list of every degree-zero map between two graded
modules."""

from itertools import product

from endop.errors import BoundExceeded
from endop.linalg import ExactMatrix
from endop.naturality import HOM_ENUMERATION_CAP
from endop.qpoly_operad import TreeLeaf, TreeMu, TreePq
from endop.scalars import FiniteField
from endop.word_operad import free_reduce


def identity_perm(n):
    return tuple(range(1, n + 1))


def perm_on_tuple(sigma, args):
    """The relabelling action on argument tuples: returns (a_sigma(1), ...)."""
    return tuple(args[s - 1] for s in sigma)


def project(w, args):
    """The projection w, a PermElement, applied to an argument tuple."""
    return args[w.index - 1]


def transpose(m):
    cols = list(zip(*m.data)) if m.data else [()] * m.ncols
    return ExactMatrix(m.domain, cols, m.nrows)


def semigroup_eval(w, mul, involution, unit, args):
    """Evaluate a word in a unital semigroup with involution: inverse letters
    go through the involution, the empty word gives the unit."""
    acc = unit
    for v in w.letters:
        g = args[v - 1] if v > 0 else involution(args[-v - 1])
        acc = mul(acc, g)
    return acc


def substitute(w1, i, w2):
    """The letters of w1 with w2 substituted for x_i, unreduced."""
    n = w2.arity
    block = [v + i - 1 if v > 0 else v - i + 1 for v in w2.letters]
    raw = []
    for v in w1.letters:
        if v == i:
            raw.extend(block)
        elif v == -i:
            raw.extend(-x for x in reversed(block))
        elif abs(v) > i:
            raw.append(v + n - 1 if v > 0 else v - n + 1)
        else:
            raw.append(v)
    return raw


def compose_by_substitution(w1, i, w2):
    """w1 o_i w2 as the substituted letters, then free_reduce."""
    return free_reduce(substitute(w1, i, w2), w1.arity + w2.arity - 1)


def reduced_word_count(n: int, length: int) -> int:
    """Closed form: 1 word of length 0, 2n(2n-1)^(L-1) of length L >= 1."""
    if length == 0:
        return 1
    if n == 0:
        return 0
    return 2 * n * (2 * n - 1) ** (length - 1)


def field_from_json_dict(d):
    """The inverse of FiniteField.to_json_dict."""
    return FiniteField(d["p"], d["k"], tuple(d["poly"]))


def enumerate_trees(n: int, max_internal: int):
    """All generator trees on leaves 1..n with at most max_internal internal
    nodes (mu and P_q both count)."""

    def gen(leaves, budget):
        if len(leaves) == 1:
            t = TreeLeaf(leaves[0])
            yield t, 0
            prev = [(t, 0)]
            for h in range(1, budget + 1):
                prev = [(TreePq(s), c + 1) for s, c in prev]
                yield from prev
        else:
            for split in range(1, 1 << (len(leaves) - 1)):
                left = [x for k, x in enumerate(leaves) if (split >> k) & 1]
                right = [x for k, x in enumerate(leaves) if not (split >> k) & 1]
                for lt, lc in gen(left, budget - 1):
                    for rt, rc in gen(right, budget - 1 - lc):
                        base = TreeMu(lt, rt)
                        cost = lc + rc + 1
                        if cost > budget:
                            continue
                        yield base, cost
                        t, c = base, cost
                        while c < budget:
                            t = TreePq(t)
                            c += 1
                            yield t, c

    seen = set()
    for t, _ in gen(list(range(1, n + 1)), max_internal):
        if t not in seen:
            seen.add(t)
            yield t


def rewrite_once(tree):
    """Trees one presentation-relation step away: commutativity and
    associativity of mu, and mu(P_q x, P_q y) <-> P_q mu(x, y)."""
    results = []
    if isinstance(tree, TreeMu):
        results.append(TreeMu(tree.right, tree.left))
        if isinstance(tree.left, TreeMu):
            results.append(TreeMu(tree.left.left, TreeMu(tree.left.right, tree.right)))
        if isinstance(tree.right, TreeMu):
            results.append(TreeMu(TreeMu(tree.left, tree.right.left), tree.right.right))
        if isinstance(tree.left, TreePq) and isinstance(tree.right, TreePq):
            results.append(TreePq(TreeMu(tree.left.child, tree.right.child)))
        for sub in rewrite_once(tree.left):
            results.append(TreeMu(sub, tree.right))
        for sub in rewrite_once(tree.right):
            results.append(TreeMu(tree.left, sub))
    elif isinstance(tree, TreePq):
        if isinstance(tree.child, TreeMu):
            left, right = tree.child.left, tree.child.right
            results.append(TreeMu(TreePq(left), TreePq(right)))
        for sub in rewrite_once(tree.child):
            results.append(TreePq(sub))
    return results


def graded_homs(src, dst, domain):
    """All degree-zero module maps src -> dst (matrices supported on
    degree-matched cells)."""
    cells = [(u, s) for u in range(len(dst)) for s in range(len(src)) if dst[u] == src[s]]
    if domain.size ** len(cells) > HOM_ENUMERATION_CAP:
        raise BoundExceeded(
            f"{domain.size}^{len(cells)} graded morphisms exceed the enumeration cap"
        )
    zero = domain.zero_raw
    homs = []
    for vals in product(domain.elements(), repeat=len(cells)):
        f = [[zero] * len(src) for _ in range(len(dst))]
        for (u, s), v in zip(cells, vals):
            f[u][s] = v
        homs.append(f)
    return homs
