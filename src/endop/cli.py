"""Command-line interface: every computation as a subcommand emitting one
JSON document on stdout.

Exit codes: 0 success, 1 computation error (the error name is in the
payload), 2 usage error.  Identical arguments and seed produce identical
output up to the elapsed_ms fields; pass --no-timing to zero those out and
get byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import acceptance
from .errors import EndopError
from .faults import FAULT_NAMES, corrupted_operad
from .linalg import all_invertible_matrices, equivariant_homs, schur_weyl_dimension
from .naturality import (
    BUILTIN_TABLES,
    FiniteMonoidTable,
    central_module,
    central_set_bruteforce,
    central_set_determined,
    finite_group_natural_maps,
    graded_central,
    monoid_reconstruction,
)
from .operad_core import PermElement, check_operad_axioms, perm_compose, perm_operad, trivial_operad
from .qpoly_operad import (
    FieldPolynomial,
    QPolynomial,
    characterize_multilinear,
    generated_submonomials,
    is_q_power,
    multilinearity_check,
    qpoly_compose,
    qpoly_operad,
)
from .scalars import QQ, FiniteField, IntegersMod, finite_field
from .word_operad import (
    free_reduce,
    group_eval,
    parse_word,
    word_compose,
    word_enumerate,
    word_operad,
)

def parse_field(spec: str) -> FiniteField:
    """Field specs look like "2^3" or "3^2:2,0,1" (coefficients ascending)."""
    body, _, poly_part = spec.partition(":")
    if "^" in body:
        p_s, _, k_s = body.partition("^")
        p, k = int(p_s), int(k_s)
    else:
        p, k = int(body), 1
    poly = tuple(int(c) for c in poly_part.split(",")) if poly_part else None
    return FiniteField(p, k, poly)


def parse_ring(spec: str):
    """Ring specs are "zmod:m", "Q", or a field spec."""
    try:
        if spec.startswith("zmod:"):
            return IntegersMod(int(spec.split(":", 1)[1]))
        if spec in ("q", "Q", "rational"):
            return QQ
        return parse_field(spec)
    except ValueError as exc:
        raise SystemExit2(f"bad ring {spec!r}: {exc}") from exc


def parse_table(args) -> FiniteMonoidTable:
    if args.builtin:
        return BUILTIN_TABLES[args.builtin]()
    if not args.table:
        raise SystemExit2("one of --builtin or --table is required")
    rows = _parse_arg("--table", args.table, lambda s: [_ints(row) for row in s.split(";")])
    return FiniteMonoidTable(tuple(tuple(r) for r in rows), name="custom")


class SystemExit2(Exception):
    """Usage error raised past argparse."""


def _ints(s):
    return [int(x) for x in s.split(",")]


def _parse_arg(flag, text, parse):
    """parse(text) for the value of `flag`; a missing value or a ValueError
    while reading it is a usage error."""
    if text is None:
        raise SystemExit2(f"{flag} is required")
    try:
        return parse(text)
    except ValueError as exc:
        raise SystemExit2(f"bad {flag} {text!r}: {exc}") from exc


def _non_negative(**sizes):
    """A usage error for any size flag below zero; unset flags (None) pass."""
    for flag, v in sizes.items():
        if v is not None and v < 0:
            raise SystemExit2(f"--{flag.replace('_', '-')} must be non-negative, got {v}")


def _operad_by_name(name, args):
    if name == "perm":
        return perm_operad()
    if name == "word":
        return word_operad()
    if name == "qpoly":
        return qpoly_operad(_parse_arg("--field", args.field or "2^1", parse_field))
    return trivial_operad(parse_ring(args.ring or "zmod:4"))


# -- subcommand handlers, each returning a JSON-ready result dict -------------

def cmd_central_set(args):
    n = args.n
    _non_negative(n=n)
    if args.method == "bruteforce" or (args.method == "auto" and n <= 2):
        rep = central_set_bruteforce(n)
    else:
        rep = central_set_determined(n)
    return rep.to_json_dict()


def cmd_central_mod(args):
    dom = parse_ring(args.ring)
    _non_negative(rank=args.rank, arity=args.arity)
    return central_module(dom, args.rank, args.arity).to_json_dict()


def cmd_graded(args):
    dom = parse_ring(args.ring)
    _non_negative(window=args.window, arity=args.arity)
    return graded_central(dom, args.window, args.arity).to_json_dict()


def cmd_monoid(args):
    M = parse_table(args)
    return monoid_reconstruction(M).to_json_dict()


def cmd_group_maps(args):
    G = parse_table(args)
    _non_negative(arity=args.arity, word_length=args.word_length)
    rep = finite_group_natural_maps(G, args.arity, args.word_length)
    return rep.to_json_dict()


def cmd_word(args):
    if args.action == "compose":
        w1 = _parse_arg("--w1", args.w1, lambda s: parse_word(s, args.arity1))
        w2 = _parse_arg("--w2", args.w2, lambda s: parse_word(s, args.arity2))
        out = word_compose(w1, args.at, w2)
        return {"word": str(out), "arity": out.arity}
    if args.action == "reduce":
        letters = _parse_arg("--letters", args.letters, _ints)
        out = free_reduce(letters, args.arity1)
        return {"word": str(out), "arity": out.arity}
    if args.action == "eval":
        G = parse_table(args)
        w = _parse_arg("--w1", args.w1, lambda s: parse_word(s, args.arity1))
        elems = tuple(_parse_arg("--args", args.args, _ints)) if args.args else ()
        size = len(G.table)
        if not all(0 <= a < size for a in elems):
            raise SystemExit2(f"--args {args.args!r} names elements outside 0..{size - 1}")
        return {"value": group_eval(w, G, elems)}
    _non_negative(arity1=args.arity1, max_length=args.max_length)
    words = word_enumerate(args.arity1, args.max_length)
    return {"count": len(words), "words": [str(w) for w in words]}


def cmd_perm(args):
    if args.action == "compose":
        out = perm_compose(
            _parse_arg("--index1", args.index1, lambda i: PermElement(args.arity1, i)),
            args.at,
            _parse_arg("--index2", args.index2, lambda i: PermElement(args.arity2, i)),
        )
        return {"arity": out.arity, "index": out.index}
    _non_negative(arity_bound=args.arity_bound)
    P = corrupted_operad(args.inject_fault) if args.inject_fault else perm_operad()
    rep = check_operad_axioms(P, args.arity_bound, 0)
    return rep.to_json_dict()


def cmd_qpoly(args):
    if args.field:
        field = _parse_arg("--field", args.field, parse_field)
    else:
        field = _parse_arg("--q", args.q or 2, finite_field)
    if args.action in ("check", "generate") and args.arity < 1:
        raise SystemExit2(f"--arity must be at least 1, got {args.arity}")
    if args.action == "compose":
        f = _parse_arg("--f", args.f, lambda s: QPolynomial.parse(field, args.arity1, s))
        g = _parse_arg("--g", args.g, lambda s: QPolynomial.parse(field, args.arity2, s))
        return {"polynomial": str(qpoly_compose(f, args.at, g))}
    if args.action == "classify":
        _non_negative(arity=args.arity)
        good, bad = characterize_multilinear(args.arity, args.maxdeg, field)
        return {
            "field": field.to_json_dict(),
            "multilinear": [str(m) for m in good],
            "not_multilinear": [str(m) for m in bad],
        }
    if args.action == "check":
        f = _parse_arg("--f", args.f, lambda s: FieldPolynomial.parse(field, args.arity, s))
        verdict = multilinearity_check(f)
        return {"multilinear": verdict.multilinear, "witness": verdict.witness}
    if not is_q_power(args.exp_bound, field.q):
        raise SystemExit2(f"--exp-bound {args.exp_bound} must be a power of q={field.q}")
    pairs = generated_submonomials(args.arity, args.exp_bound, field)
    return {"monomials": [{"monomial": str(m), "tree": str(t)} for m, t in pairs]}


def cmd_schur_weyl(args):
    _non_negative(dimension=args.dimension, arity=args.arity, generators=args.generators)
    if args.all_gl:
        field = _parse_arg("--field", args.field or "2^1", parse_field)
        gens = all_invertible_matrices(field, args.dimension)
        basis = equivariant_homs(gens, args.arity)
        return {
            "domain": str(field),
            "generators": len(gens),
            "dimension": basis.dimension,
            "basis": basis.to_json(),
        }
    dim, stable, basis = schur_weyl_dimension(
        args.dimension, args.arity, count=args.generators, seed=args.seed
    )
    return {
        "domain": "Q",
        "generators": args.generators,
        "dimension": dim,
        "stable_under_doubling": stable,
    }


def cmd_axioms(args):
    _non_negative(
        arity_bound=args.arity_bound,
        size_bound=args.size_bound,
        triple_size_bound=args.triple_size_bound,
    )
    P = (
        corrupted_operad(args.inject_fault)
        if args.inject_fault
        else _operad_by_name(args.operad, args)
    )
    rep = check_operad_axioms(
        P, args.arity_bound, args.size_bound, triple_size_bound=args.triple_size_bound
    )
    return rep.to_json_dict()


def cmd_all(args):
    summary = acceptance.run_all_checks(fault=args.inject_fault)
    if not args.json:
        for rec in summary["checks"]:
            status = "PASS" if rec["pass"] else "FAIL"
            line = f"{status}  {rec['name']}"
            if not rec["pass"]:
                line += f"  [{rec.get('witness', '')}]"
            print(line, file=sys.stderr)
    return summary


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="endop",
        description=(
            "Exact computation of the natural operations on forgetful functors: "
            "central operads of sets, modules and graded modules, the free-group "
            "word operad, the q-power polynomial operad, monoid reconstruction, "
            "and commutant dimensions on tensor powers."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", help="write the JSON document to this path instead of stdout"
    )
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="zero all elapsed_ms fields for byte-identical reruns",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        kw.setdefault("description", kw.get("help"))
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser(
        "central-set",
        help="natural maps [n]^n -> [n]: exactly the n projections "
        "(the central operad of finite sets)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("auto", "bruteforce", "determined"), default="auto")
    p.set_defaults(fn=cmd_central_set)

    p = add_parser(
        "central-mod",
        help="natural maps (R^r)^(x n) -> R^r: scalars in arity one, zero "
        "elsewhere (the central operad of R-modules)",
    )
    p.add_argument("--ring", required=True, help="zmod:m or a field spec like 2^2")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--arity", type=int, default=1)
    p.set_defaults(fn=cmd_central_mod)

    p = add_parser(
        "graded",
        help="the graded-module analogue: one scalar per degree in arity one "
        "(a product of copies of R), zero in other arities",
    )
    p.add_argument("--ring", required=True)
    p.add_argument("--window", type=int, default=1, help="degrees -J..J")
    p.add_argument("--arity", type=int, default=1)
    p.set_defaults(fn=cmd_graded)

    p = add_parser(
        "monoid",
        help="reconstruct a finite monoid from the natural endomorphisms of "
        "its free left module over itself",
    )
    p.add_argument("--builtin", choices=sorted(BUILTIN_TABLES))
    p.add_argument("--table", help="rows 'a,b;c,d' of the multiplication table")
    p.set_defaults(fn=cmd_monoid)

    p = add_parser(
        "group-maps",
        help="maps G^n -> G natural for all endomorphisms of a fixed finite "
        "group, versus the images of free-group words",
    )
    p.add_argument("--builtin", choices=sorted(BUILTIN_TABLES))
    p.add_argument("--table")
    p.add_argument("--arity", type=int, default=1)
    p.add_argument("--word-length", type=int, default=3)
    p.set_defaults(fn=cmd_group_maps)

    p = add_parser(
        "word",
        help="the free-group word operad: substitution composition with free "
        "reduction (natural operations on the underlying set of a group)",
    )
    p.add_argument("action", choices=("compose", "reduce", "eval", "enumerate"))
    p.add_argument("--w1", help="word like 'x1 x2^-1'")
    p.add_argument("--w2")
    p.add_argument("--arity1", type=int, default=1)
    p.add_argument("--arity2", type=int, default=1)
    p.add_argument("--at", type=int, default=1)
    p.add_argument("--letters", help="signed letters '1,-2,2' for reduce")
    p.add_argument("--max-length", type=int, default=3)
    p.add_argument("--builtin", choices=sorted(BUILTIN_TABLES))
    p.add_argument("--table")
    p.add_argument("--args", help="group element indices '2,3' for eval")
    p.set_defaults(fn=cmd_word)

    p = add_parser(
        "perm",
        help="the projection operad: composition of coordinate projections "
        "(the central operad of sets, presented by (xy)z = x(yz) = x(zy))",
    )
    p.add_argument("action", choices=("compose", "check"))
    p.add_argument("--arity1", type=int, default=2)
    p.add_argument("--index1", type=int, default=1)
    p.add_argument("--arity2", type=int, default=2)
    p.add_argument("--index2", type=int, default=1)
    p.add_argument("--at", type=int, default=1)
    p.add_argument("--arity-bound", type=int, default=4)
    p.add_argument("--inject-fault", choices=FAULT_NAMES)
    p.set_defaults(fn=cmd_perm)

    p = add_parser(
        "qpoly",
        help="the q-power polynomial operad over F_q: the multilinear natural "
        "operations on commutative F_q-algebras, generated by a product and "
        "the q-th power",
    )
    p.add_argument("action", choices=("compose", "classify", "check", "generate"))
    p.add_argument("--field", help="field spec like 4 -> use --q, or '2^2[:poly]'")
    p.add_argument("--q", type=int, help="prime-power field order with the default polynomial")
    p.add_argument("--arity", type=int, default=1)
    p.add_argument("--arity1", type=int, default=1)
    p.add_argument("--arity2", type=int, default=1)
    p.add_argument("--at", type=int, default=1)
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--maxdeg", type=int, default=4)
    p.add_argument("--exp-bound", type=int, default=2)
    p.set_defaults(fn=cmd_qpoly)

    p = add_parser(
        "schur-weyl",
        help="commutant of seeded GL generators on a tensor power: dimension "
        "n! over the rationals when dim V >= n, larger over finite fields",
    )
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--generators", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--all-gl", action="store_true", help="use every invertible matrix over --field")
    p.add_argument("--field")
    p.set_defaults(fn=cmd_schur_weyl)

    p = add_parser(
        "axioms",
        help="exhaustive operad-axiom suite (units, associativity, "
        "equivariance) on enumerated elements of a built-in operad",
    )
    p.add_argument("--operad", choices=("perm", "word", "qpoly", "trivial"), required=True)
    p.add_argument("--arity-bound", type=int, default=3)
    p.add_argument("--size-bound", type=int, default=2)
    p.add_argument("--triple-size-bound", type=int, default=None)
    p.add_argument("--field")
    p.add_argument("--ring")
    p.add_argument("--inject-fault", choices=FAULT_NAMES)
    p.set_defaults(fn=cmd_axioms)

    p = add_parser(
        "all",
        help="run the whole verification suite (every headline computation) "
        "and summarize pass/fail per check",
    )
    p.add_argument("--json", action="store_true", help="suppress the human summary on stderr")
    p.add_argument("--inject-fault", choices=FAULT_NAMES)
    p.set_defaults(fn=cmd_all)

    return ap


def _zero_timings(doc):
    if isinstance(doc, dict):
        return {
            k: (0 if k == "elapsed_ms" else _zero_timings(v)) for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [_zero_timings(v) for v in doc]
    return doc


def _params_of(args):
    skip = {"fn", "command", "out", "no_timing"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    envelope = {"command": args.command, "params": _params_of(args)}
    code = 0
    try:
        result = args.fn(args)
        envelope["result"] = result
        envelope["complete"] = bool(result.get("complete", True)) if isinstance(result, dict) else True
        if args.command == "all" and not result.get("pass", False):
            code = 1
    except EndopError as exc:
        envelope["error"] = {"name": exc.name, "message": str(exc)}
        envelope["complete"] = False
        code = 1
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    envelope["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    if args.no_timing:
        envelope = _zero_timings(envelope)
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
