"""The full verification suite behind `endop all`: one runner per headline
computation, each returning a pass/fail record with its computed witness.

The same checks back tests/test_acceptance.py; here they are exposed for
scripting and for the negative-control demonstration (`fault=` corrupts one
operad and the corresponding check must then fail with a counterexample).
"""

from __future__ import annotations

import time

from .faults import corrupted_operad
from .linalg import all_invertible_matrices, equivariant_homs, schur_weyl_dimension
from .naturality import (
    FiniteFunction,
    central_module,
    central_set_bruteforce,
    central_set_determined,
    compose_tabulated,
    cyclic_group,
    graded_central,
    monoid_endomorphisms,
    monoid_reconstruction,
    small_monoids,
    symmetric_group_3,
    tabulate,
)
from .operad_core import PermElement, check_operad_axioms, perm_compose, perm_operad
from .qpoly_operad import (
    QPolynomial,
    characterize_multilinear,
    is_q_power,
    qpoly_compose,
    syntactic_q_power_criterion,
)
from .scalars import IntegersMod, finite_field
from .word_operad import ReducedWord, group_eval, parse_word, word_compose, word_enumerate, word_operad

# Commutant dimension of all of GL_2(F_2) acting on the tensor square of its
# natural module.  Pinned from the exhaustive run as a regression constant;
# the defining property checked here is only that it strictly exceeds 2.
GL2_F2_TENSOR_SQUARE_COMMUTANT_DIM = 3


class _Failure(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise _Failure(msg)


def check_central_set():
    """Projections are the only natural operations on sets."""
    r0 = central_set_bruteforce(0)
    _expect(r0.count == 0, f"arity 0 gave {r0.count} maps, expected none")
    r1 = central_set_bruteforce(1)
    _expect(
        r1.count == 1 and r1.survivors[0].values == (0,),
        "arity 1 is not exactly the identity",
    )
    r2 = central_set_bruteforce(2)
    projections = {(0, 0, 1, 1), (0, 1, 0, 1)}
    _expect(
        {s.values for s in r2.survivors} == projections,
        f"arity 2 gave {[s.values for s in r2.survivors]}",
    )
    r3 = central_set_determined(3)
    _expect(r3.count == 3, f"arity 3 gave {r3.count} survivors, expected 3")
    for v, s in enumerate(r3.survivors):
        expected = tabulate(3, 3, lambda args, v=v: args[v])
        _expect(s == expected, f"survivor {v} is not the projection pi{v + 1}")
    # survivor composition agrees with projection-operad composition
    for m in range(1, 4):
        for n in range(1, 4):
            base = m + n - 1
            for a in range(1, m + 1):
                f1 = tabulate(base, m, lambda args, a=a: args[a - 1])
                for b in range(1, n + 1):
                    f2 = tabulate(base, n, lambda args, b=b: args[b - 1])
                    for i in range(1, m + 1):
                        got = compose_tabulated(base, m, f1, i, n, f2)
                        c = perm_compose(PermElement(m, a), i, PermElement(n, b))
                        want = tabulate(base, base, lambda args, c=c: args[c.index - 1])
                        _expect(
                            got == want,
                            f"function composite of pi{a}[{m}] o_{i} pi{b}[{n}] "
                            f"disagrees with the projection formula",
                        )
    return f"survivors 0/1/2/3-ary: 0, 1, 2, 3 maps; composition matches on {3 * 3 * 3} slot choices"


def check_perm_relations(fault=None):
    """The defining relations of the projection operad, plus its full axiom
    suite at arity <= 4."""
    a = perm_compose(PermElement(2, 1), 1, PermElement(2, 1))
    b = perm_compose(PermElement(2, 1), 2, PermElement(2, 1))
    c = perm_compose(PermElement(2, 1), 2, PermElement(2, 2))
    _expect(
        a == b == c == PermElement(3, 1),
        f"pi1 o1 pi1, pi1 o2 pi1, pi1 o2 pi2 gave {a}, {b}, {c}",
    )
    P = corrupted_operad(fault) if fault else perm_operad()
    rep = check_operad_axioms(P, 4, 0)
    if not rep.passed:
        first = rep.first_failure()
        raise _Failure(f"axiom {first.name} failed: {first.witness}")
    return f"relations hold; axiom suite green on {sum(ch.instances for ch in rep.checks)} instances"


def check_central_module():
    """Scalars in arity one, nothing in arities zero and two, for modules of
    rank two over small rings."""
    details = []
    for dom in (finite_field(2), finite_field(3), IntegersMod(4)):
        r2 = central_module(dom, 2, 2)
        _expect(
            r2.extra["transformation_count"] == 1,
            f"{dom}: arity-2 space has {r2.extra['transformation_count']} maps",
        )
        r1 = central_module(dom, 2, 1)
        _expect(
            r1.extra["transformation_count"] == dom.size,
            f"{dom}: arity-1 count {r1.extra['transformation_count']} != {dom.size}",
        )
        if dom.is_field:
            span = {m for m in r1.extra["basis"].span_elements()}
        else:
            span = set(r1.survivors)
        from .linalg import ExactMatrix

        scalars = {ExactMatrix.identity(dom, 2).scale(v) for v in dom.elements()}
        _expect(span == scalars, f"{dom}: arity-1 survivors are not the scalars")
        r0 = central_module(dom, 2, 0)
        _expect(
            r0.extra["transformation_count"] == 1,
            f"{dom}: arity-0 space has {r0.extra['transformation_count']} maps",
        )
        details.append(f"{dom}: 1/{dom.size}/1")
    return "; ".join(details)


def check_graded_central():
    """Degree-wise scalars in arity one over Z/2 with a one-step window."""
    dom = IntegersMod(2)
    r1 = graded_central(dom, 1, 1)
    _expect(
        r1.extra["transformation_count"] == 8,
        f"arity-1 count {r1.extra['transformation_count']} != 2^3",
    )
    _expect(r1.extra["dimension"] == 3, "arity-1 solution space is not 3-dimensional")
    # each basis vector is supported on a single degree and acts as the identity there
    for vec in r1.survivors:
        _expect(sum(1 for v in vec if v != 0) == 1, "basis vector mixes degrees")
    for n in (0, 2):
        r = graded_central(dom, 1, n)
        _expect(
            r.extra["transformation_count"] == 1,
            f"arity-{n} count {r.extra['transformation_count']} != 1",
        )
    return "window -1..1 over Z/2: 8 transformations in arity 1, only zero in arities 0 and 2"


def check_monoid_reconstruction():
    """Left multiplications are exactly the natural endomorphisms, for every
    monoid of order <= 3 and for Z/2 and S3."""
    tables = small_monoids() + [cyclic_group(2), symmetric_group_3()]
    for M in tables:
        rep = monoid_reconstruction(M)
        _expect(
            rep.extra["isomorphic"],
            f"{M.name}: natural endomorphism monoid not isomorphic "
            f"({rep.count} survivors for order {M.size})",
        )
        _expect(rep.count == M.size, f"{M.name}: {rep.count} survivors != |M|")
    return f"{len(tables)} monoids reconstructed, including S3"


def check_word_operad(fault=None):
    """Axioms for word substitution, and naturality of word evaluation
    against the ten endomorphisms of S3."""
    P = corrupted_operad(fault) if fault else word_operad()
    rep = check_operad_axioms(P, 3, 3, triple_size_bound=2)
    if not rep.passed:
        first = rep.first_failure()
        raise _Failure(f"axiom {first.name} failed: {first.witness}")
    w = word_compose(parse_word("x1 x2", 2), 1, parse_word("x1^-1", 1))
    _expect(str(w) == "x1^-1 x2", f"(x1 x2) o_1 x1^-1 = {w}")
    w = word_compose(parse_word("x1 x2 x1^-1", 2), 2, ReducedWord(0, ()))
    _expect(str(w) == "e" and w.arity == 1, f"collapsing composite gave {w}")
    for n in range(1, 3):
        for i in range(1, n + 1):
            for ww in word_enumerate(n, 3):
                _expect(
                    word_compose(ww, i, ReducedWord(1, (1,))) == ww,
                    f"unit law fails at {ww}",
                )
    S3 = symmetric_group_3()
    endos = monoid_endomorphisms(S3)
    _expect(len(endos) == 10, f"S3 has {len(endos)} endomorphisms, expected 10")
    from itertools import product as iproduct

    checked = 0
    for n in range(0, 3):
        for ww in word_enumerate(n, 3):
            for args in iproduct(range(6), repeat=n):
                val = group_eval(ww, S3, args)
                for f in endos:
                    mapped = tuple(f[a] for a in args)
                    _expect(
                        group_eval(ww, S3, mapped) == f[val],
                        f"evaluation of {ww} fails naturality at {args} under {f}",
                    )
                    checked += 1
    return (
        f"axioms green on {sum(c.instances for c in rep.checks)} instances; "
        f"{checked} naturality equations on S3 hold"
    )


def check_qpoly_operad():
    """The q-power polynomial operad: the Frobenius relation, the linearity
    classification, and closure of composition."""
    details = []
    for q in (2, 3, 4):
        F = finite_field(q)
        lhs = qpoly_compose(QPolynomial.monomial(F, (q,)), 1, QPolynomial.monomial(F, (1, 1)))
        _expect(
            lhs == QPolynomial.monomial(F, (q, q)),
            f"q={q}: (X1 X2)^q != X1^q X2^q as operad elements",
        )
    for q, n, maxdeg in ((2, 1, 4), (3, 1, 9), (4, 1, 4), (2, 2, 4)):
        F = finite_field(q)
        good, bad = characterize_multilinear(n, maxdeg, F)
        got = {tuple(next(iter(m.terms))) for m in good}
        from itertools import product as iproduct

        want = {
            exp
            for exp in iproduct(range(maxdeg + 1), repeat=n)
            if 1 <= sum(exp) <= maxdeg and syntactic_q_power_criterion(exp, q)
        }
        _expect(got == want, f"(q={q}, n={n}, deg<={maxdeg}): classified {got} != {want}")
        details.append(f"q={q},n={n}: {len(good)} multilinear")
    F4 = finite_field(4)
    _expect(
        {tuple(next(iter(m.terms))) for m in characterize_multilinear(1, 4, F4)[0]}
        == {(1,), (4,)},
        "X1^2 should not be multilinear over F4",
    )
    # closure of composition on monomials with exponents <= q^2
    for q in (2, 3, 4):
        F = finite_field(q)
        monos1 = [QPolynomial.monomial(F, (e,)) for e in (1, q, q * q)]
        monos2 = [
            QPolynomial.monomial(F, (e1, e2))
            for e1 in (1, q, q * q)
            for e2 in (1, q, q * q)
        ]
        for f in monos1 + monos2:
            for g in monos1 + monos2:
                for i in range(1, f.arity + 1):
                    h = qpoly_compose(f, i, g)
                    for exp in h.terms:
                        _expect(
                            all(is_q_power(e, q) for e in exp),
                            f"composition escaped the q-power shape: {h}",
                        )
    return "; ".join(details) + "; composition closed on all bounded monomial pairs"


def check_schur_weyl():
    """Commutant dimensions: n! over the rationals with d = n, and the larger
    pinned value for all of GL_2(F_2)."""
    facts = {1: 1, 2: 2, 3: 6}
    details = []
    for n in (1, 2, 3):
        dim, stable, _ = schur_weyl_dimension(n, n, count=8, seed=0)
        _expect(dim == facts[n], f"d=n={n}: commutant dimension {dim} != {facts[n]}")
        _expect(stable, f"d=n={n}: dimension not stable under doubling the generators")
        details.append(f"n={n}: dim {dim}")
    F2 = finite_field(2)
    gl2 = all_invertible_matrices(F2, 2)
    _expect(len(gl2) == 6, f"|GL2(F2)| = {len(gl2)}")
    basis = equivariant_homs(gl2, 2)
    _expect(
        basis.dimension == GL2_F2_TENSOR_SQUARE_COMMUTANT_DIM,
        f"GL2(F2) commutant dimension {basis.dimension} != pinned "
        f"{GL2_F2_TENSOR_SQUARE_COMMUTANT_DIM}",
    )
    _expect(basis.dimension > 2, "finite-field commutant did not exceed 2")
    details.append(f"GL2(F2) on the tensor square: dim {basis.dimension} > 2")
    return "; ".join(details)


def check_negative_controls():
    """Corrupted composition and corrupted reduction must each be caught."""
    rep = check_operad_axioms(corrupted_operad("perm-compose"), 3, 0)
    _expect(not rep.passed, "the corrupted projection operad passed the axiom suite")
    first = rep.first_failure()
    _expect(first.witness is not None, "no counterexample recorded for perm fault")
    perm_witness = f"{first.name}: {first.witness}"
    rep = check_operad_axioms(corrupted_operad("word-reduce"), 2, 2)
    _expect(not rep.passed, "the corrupted word operad passed the axiom suite")
    first = rep.first_failure()
    _expect(first.witness is not None, "no counterexample recorded for word fault")
    return f"perm fault caught ({perm_witness}); word fault caught ({first.name}: {first.witness})"


CHECKS = (
    ("central-set", check_central_set, ()),
    ("perm-relations", check_perm_relations, ("perm-compose",)),
    ("central-module", check_central_module, ()),
    ("graded-central", check_graded_central, ()),
    ("monoid-reconstruction", check_monoid_reconstruction, ()),
    ("word-operad", check_word_operad, ("word-reduce",)),
    ("qpoly-operad", check_qpoly_operad, ()),
    ("schur-weyl", check_schur_weyl, ()),
    ("negative-controls", check_negative_controls, ()),
)


def run_all_checks(fault: str | None = None):
    """Run every check; an injected fault corrupts the check that owns it.

    Returns a summary dict with one record per check and an overall flag.
    """
    records = []
    for name, fn, fault_hooks in CHECKS:
        t0 = time.perf_counter()
        try:
            if fault in fault_hooks:
                detail = fn(fault=fault)
            else:
                detail = fn()
            passed, witness = True, None
        except _Failure as exc:
            passed, witness, detail = False, str(exc), None
        elapsed = (time.perf_counter() - t0) * 1000.0
        rec = {"name": name, "pass": passed, "elapsed_ms": round(elapsed, 3)}
        if detail is not None:
            rec["detail"] = detail
        if witness is not None:
            rec["witness"] = witness
        records.append(rec)
    return {"checks": records, "pass": all(r["pass"] for r in records)}
