"""Oracle-only helpers of the tests, which the library itself never calls:
exhaustive generator trees of the q-power operad with one step of its
presentation relations, and reading a field back from its JSON form."""

from endop.qpoly_operad import TreeLeaf, TreeMu, TreePq
from endop.scalars import FiniteField


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
