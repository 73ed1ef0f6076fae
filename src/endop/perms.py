"""Permutations of {1..n} as one-line tuples: sigma[i-1] is the image of i."""

from functools import lru_cache
from itertools import permutations

from .errors import OperadMismatch


def all_perms(n):
    """All of Sigma_n in lexicographic order."""
    return [tuple(p) for p in permutations(range(1, n + 1))]


@lru_cache(maxsize=4096)
def _is_perm(sigma, n):
    return sorted(sigma) == [*range(1, n + 1)]


def require_perm(sigma, n):
    """Raise OperadMismatch unless sigma holds each of 1..n exactly once.

    Each distinct (sigma, n) is sorted once; lists are looked up as tuples."""
    if not _is_perm(tuple(sigma), n):
        raise OperadMismatch(f"{sigma} is not a permutation of 1..{n}")


def compose_perms(sigma, tau):
    """sigma after tau: (sigma . tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t - 1] for t in tau)


def invert_perm(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def stretch_at(sigma, i, n):
    """Blow slot i of sigma in Sigma_m up to an n-slot block.

    Returns the permutation tau of m+n-1 with
    (sigma . w1) o_i w2  =  tau . (w1 o_{sigma^{-1}(i)} w2)
    for the input-relabelling action (sigma . w)(a_1..a_m) = w(a_sigma(1)..a_sigma(m)).
    """
    m = len(sigma)
    k0 = invert_perm(sigma)[i - 1]

    def shift(j):
        return j if j < i else j + n - 1

    tau = []
    for k in range(1, m + n):
        if k < k0:
            tau.append(shift(sigma[k - 1]))
        elif k < k0 + n:
            tau.append(i + (k - k0))
        else:
            tau.append(shift(sigma[k - n]))
    return tuple(tau)


def embed_at(m, i, sigma):
    """sigma in Sigma_n acting on the block i..i+n-1 inside m+n-1 slots."""
    n = len(sigma)
    tau = list(range(1, m + n))
    for s in range(1, n + 1):
        tau[i + s - 2] = i + sigma[s - 1] - 1
    return tuple(tau)
