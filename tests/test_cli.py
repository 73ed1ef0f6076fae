"""CLI behavior: envelope shape against the shipped schema, exit codes,
determinism, and a few end-to-end subcommand results."""

import contextlib
import io
import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endop import acceptance, cli
from endop.faults import FAULT_NAMES
from endop.naturality import SMALL_MONOID_TABLES

SCHEMA = json.loads(
    resources.files("endop").joinpath("schemas/report.schema.json").read_text()
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def validate(doc):
    jsonschema.validate(doc, SCHEMA)


def test_central_set_two(capsys):
    code, doc = run_cli(capsys, ["central-set", "--n", "2"])
    assert code == 0
    validate(doc)
    assert doc["result"]["survivors"] == [[0, 0, 1, 1], [0, 1, 0, 1]]


def test_central_set_bound_exceeded(capsys):
    code, doc = run_cli(capsys, ["central-set", "--n", "9"])
    assert code == 1
    validate(doc)
    assert doc["error"]["name"] == "BoundExceeded"
    assert doc["complete"] is False


def test_graded_past_the_hom_cap_is_a_json_error(capsys):
    code, doc = run_cli(capsys, ["graded", "--ring", "zmod:9", "--window", "1", "--arity", "2"])
    assert code == 1
    validate(doc)
    assert doc["error"] == {
        "name": "BoundExceeded",
        "message": "9^4 graded morphisms exceed the enumeration cap",
    }


def test_all_gl_past_the_candidate_cap_fails_fast(capsys):
    # GL_5(F_2) would be sought among 2^25 matrices
    argv = ["schur-weyl", "--all-gl", "--dimension", "5", "--field", "2^1"]
    code, doc = run_cli(capsys, argv)
    assert code == 1
    validate(doc)
    assert doc["error"]["name"] == "BoundExceeded"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["central-mod", "--ring", "zmod:4", "--rank", "-1"],
        ["central-mod", "--ring", "zmod:4", "--arity", "-1"],
        ["central-mod", "--ring", "zmod:1"],
        ["central-mod", "--ring", "6"],
        ["graded", "--ring", "zmod:2", "--window", "-1"],
        ["graded", "--ring", "zmod:2", "--arity", "-1"],
        ["central-set", "--n", "-1"],
        ["qpoly", "check", "--f", "X1^^2"],
        ["qpoly", "check", "--arity", "2", "--f", "X3"],
        ["qpoly", "compose", "--f", "X1"],
        ["qpoly", "compose", "--f", "X1^3", "--g", "X1"],
        ["word", "compose", "--w1", "y1"],
        ["word", "compose"],
        ["word", "reduce", "--letters", "1,a"],
        ["word", "eval", "--builtin", "z2", "--w1", "x1", "--args", "5"],
        ["monoid", "--table", "0,1;1,x"],
        ["group-maps", "--table", "0,1;1,x"],
        ["qpoly", "generate", "--exp-bound", "3"],
        ["qpoly", "generate", "--arity", "-1"],
        ["qpoly", "classify", "--arity", "-1"],
        ["qpoly", "check", "--q", "6", "--f", "X1"],
        ["qpoly", "check", "--field", "2^5", "--f", "X1"],
        ["perm", "compose", "--index1", "9"],
        ["schur-weyl", "--arity", "-1"],
        ["word", "enumerate", "--max-length", "-2"],
        ["group-maps", "--builtin", "z2", "--arity", "-1"],
        ["schur-weyl", "--dimension", "-1"],
        ["schur-weyl", "--generators", "-1"],
        ["schur-weyl", "--all-gl", "--dimension", "-1"],
        ["schur-weyl", "--all-gl", "--field", "6"],
        ["group-maps", "--builtin", "z2", "--word-length", "-1"],
        ["qpoly", "generate", "--q", "2", "--arity", "0"],
        ["qpoly", "check", "--arity", "0", "--f", "0"],
        ["qpoly", "check", "--arity", "-1", "--f", "0"],
        ["axioms", "--operad", "word", "--triple-size-bound", "-1"],
        ["axioms", "--operad", "perm", "--arity-bound", "-1"],
        ["axioms", "--operad", "perm", "--size-bound", "-1"],
        ["axioms", "--operad", "qpoly", "--field", "6"],
        ["perm", "check", "--arity-bound", "-1"],
    ],
)
def test_bad_ring_or_size_is_a_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def _grids(row_sizes):
    """m rows of entries from -1 to m, each row's length drawn by row_sizes(m)."""
    return st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.integers(*row_sizes(m)).flatmap(
                lambda k: st.lists(st.integers(-1, m), min_size=k, max_size=k)
            ),
            min_size=m,
            max_size=m,
        )
    )


TABLES = st.one_of(
    st.sampled_from(SMALL_MONOID_TABLES),
    _grids(lambda m: (m, m)),
    _grids(lambda m: (m - 1, m + 1)),  # ragged rows, an empty one when m = 1
).map(lambda rows: ";".join(",".join(map(str, row)) for row in rows))


def _cmd(*words, **draws):
    """The argv words, then --flag=value for each drawn value that is not
    None; underscores in a flag name become dashes."""
    return st.fixed_dictionaries(draws).map(
        lambda d: [*words] + [f"--{k.replace('_', '-')}={v}" for k, v in d.items() if v is not None]
    )


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


SMALL = st.integers(-1, 2)  # arities and size bounds: small, with a negative
SLOTS = st.integers(-1, 3)
QS = _maybe(st.sampled_from([2, 3, 4, 6]))
FIELDS = _maybe(st.sampled_from(["3", "2^2", "2^5"]))
POLYS = st.sampled_from(
    ["0", "X1", "X1^2", "X1^3", "X1*X2", "X1^2*X2", "g*X1 + X1^4", "2*X1", "X1^^2", "X3"]
)
WORDS = st.sampled_from(["", "x1", "x1 x2^-1", "x2 x1 x2^-1", "x1^2", "y1", "x3"])
RINGS = st.sampled_from(  # good specs (Q is refused with exit 1), then bad ones
    ["zmod:4", "2", "3", "2^2", "Q", "zmod:0", "zmod:1", "zmod:x", "zmod:-3", "4", "2^0", "",
     "foo"]
)


ARGVS = st.one_of(
    st.builds(
        lambda n, method: ["central-set", "--n", str(n), "--method", method],
        st.one_of(st.integers(0, 3), st.integers(5, 9)),
        st.sampled_from(["auto", "bruteforce", "determined"]),
    ),
    st.builds(lambda t: ["monoid", "--table=" + t], TABLES),
    st.builds(
        lambda t, a: ["group-maps", "--table=" + t, "--arity", str(a)],
        TABLES,
        st.integers(0, 2),
    ),
    _cmd("qpoly", "compose", q=QS, field=FIELDS, f=POLYS, g=POLYS, arity1=SMALL,
         arity2=SMALL, at=SLOTS),
    _cmd("qpoly", "classify", q=QS, field=FIELDS, arity=SMALL, maxdeg=st.integers(-1, 4)),
    _cmd("qpoly", "check", q=QS, field=FIELDS, f=POLYS, arity=SMALL),
    st.sampled_from([2, 3, 4]).flatmap(  # --exp-bound up to q^2
        lambda q: _cmd("qpoly", "generate", q=st.just(q), arity=SMALL,
                       exp_bound=st.integers(-1, q * q))
    ),
    _cmd(
        "axioms",
        operad=st.sampled_from(["perm", "word", "qpoly", "trivial"]),
        arity_bound=SMALL,
        size_bound=SMALL,
        triple_size_bound=_maybe(SMALL),
        field=_maybe(st.sampled_from(["2", "3", "2^2", "6"])),
        ring=_maybe(st.sampled_from(["zmod:4", "zmod:1", "2", "Q"])),
        inject_fault=_maybe(st.sampled_from(["perm-compose", "word-reduce"])),
    ),
    _cmd("word", "compose", w1=WORDS, w2=WORDS, arity1=SMALL, arity2=SMALL, at=SLOTS),
    _cmd("word", "reduce", letters=st.sampled_from(["", "1,-1", "2,-2,1", "1,a", "3", "-1,1,2"]),
         arity1=SMALL),
    _cmd("word", "eval", table=TABLES, w1=WORDS, arity1=SMALL,
         args=_maybe(st.sampled_from(["", "0", "0,1", "1,5", "-1"]))),
    _cmd("word", "enumerate", arity1=SMALL, max_length=st.integers(-2, 2)),
    _cmd("perm", "compose", arity1=SMALL, index1=SLOTS, arity2=SMALL, index2=SLOTS, at=SLOTS),
    _cmd("perm", "check", arity_bound=SMALL, inject_fault=_maybe(st.just("perm-compose"))),
    _cmd("central-mod", ring=RINGS, rank=SMALL, arity=SMALL),
    st.builds(
        lambda ring, wa: ["graded", f"--ring={ring}", f"--window={wa[0]}", f"--arity={wa[1]}"],
        RINGS,
        # each argv takes at most 10 ms (zmod:4 at window 2, arity 2), except
        # zmod:4 at window 2, arity 1, which lists 1,024 survivors in 45 ms
        st.tuples(SMALL, SMALL).filter(lambda wa: wa != (2, 1)),
    ),
    st.builds(
        lambda dn, gens, seed, all_gl: [
            "schur-weyl", f"--dimension={dn[0]}", f"--arity={dn[1]}",
            f"--generators={gens}", f"--seed={seed}",
        ] + ["--all-gl"] * all_gl,
        # d^n <= 9 keeps the fallback eliminations over Q fast
        st.tuples(st.integers(-1, 3), st.integers(-1, 3)).filter(
            lambda dn: min(dn) < 0 or dn[0] ** dn[1] <= 9
        ),
        st.integers(-1, 3),
        st.integers(0, 2),
        st.booleans(),
    ),
    # `all` runs the whole suite, so only in malformed forms: a bad fault
    # name or an unknown argument, which exit 2 before anything runs
    st.builds(
        lambda good, bad: ["all", *good, bad],
        st.lists(st.sampled_from(["--json", "--inject-fault=perm-compose"]), max_size=2),
        st.one_of(
            st.text(max_size=8)
            .filter(lambda name: name not in FAULT_NAMES)
            .map(lambda name: "--inject-fault=" + name),
            st.sampled_from(["--inject-fault", "--no-such-flag", "--seed=1", "-x", "--json=1", "extra"]),
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(ARGVS)
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if argv[0] == "all":
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
    else:
        assert code in (0, 1)
        validate(json.loads(out.getvalue()))


@pytest.mark.parametrize("ring", ["zmod:4", "2"])
def test_central_mod_rank_zero(capsys, ring):
    for arity in ("0", "1"):
        code, doc = run_cli(capsys, ["central-mod", "--ring", ring, "--rank", "0", "--arity", arity])
        assert code == 0
        validate(doc)
        assert doc["result"]["transformation_count"] == 1


def test_failed_recheck_is_a_json_error(capsys, monkeypatch):
    from endop import linalg

    solved = linalg._intersect_conditions
    monkeypatch.setattr(linalg, "_intersect_conditions", lambda *a: solved(*a) + [{(0, 0, 1): 1}])
    code, doc = run_cli(capsys, ["central-mod", "--ring", "zmod:4", "--rank", "2", "--arity", "1"])
    assert code == 1
    validate(doc)
    assert doc["error"]["name"] == "VerificationFailed"
    assert doc["error"]["message"].startswith("survivor [['0 mod 4', '1 mod 4'], ")


def test_qpoly_classify(capsys):
    code, doc = run_cli(
        capsys, ["qpoly", "classify", "--q", "4", "--arity", "1", "--maxdeg", "4"]
    )
    assert code == 0
    validate(doc)
    assert doc["result"]["multilinear"] == ["X1", "X1^4"]
    assert "X1^2" in doc["result"]["not_multilinear"]


def test_qpoly_check(capsys):
    code, doc = run_cli(
        capsys, ["qpoly", "check", "--q", "2", "--arity", "1", "--f", "X1^3"]
    )
    assert code == 0
    assert doc["result"]["multilinear"] is False
    assert "additivity" in doc["result"]["witness"]


def test_word_round_trip(capsys):
    code, doc = run_cli(
        capsys,
        ["word", "compose", "--w1", "x1 x2", "--arity1", "2", "--at", "1",
         "--w2", "x1^-1", "--arity2", "1"],
    )
    assert code == 0
    assert doc["result"] == {"word": "x1^-1 x2", "arity": 2}


def test_perm_compose(capsys):
    code, doc = run_cli(
        capsys,
        ["perm", "compose", "--arity1", "2", "--index1", "2", "--at", "1",
         "--arity2", "2", "--index2", "1"],
    )
    assert code == 0
    assert doc["result"] == {"arity": 3, "index": 3}


def test_axioms_with_injected_fault(capsys):
    code, doc = run_cli(
        capsys,
        ["axioms", "--operad", "perm", "--arity-bound", "3", "--size-bound", "0",
         "--inject-fault", "perm-compose"],
    )
    assert code == 0  # the report itself is the result; failures live inside
    checks = {c["name"]: c for c in doc["result"]["checks"]}
    assert not checks["unit-right"]["pass"]
    assert "witness" in checks["unit-right"]


def test_deterministic_output_with_no_timing(capsys):
    argv = ["schur-weyl", "--dimension", "2", "--arity", "2", "--no-timing"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["elapsed_ms"] == 0
    assert doc["result"]["dimension"] == 2
    assert doc["result"]["stable_under_doubling"] is True


def test_seed_changes_generators_not_dimension(capsys):
    _, doc0 = run_cli(capsys, ["schur-weyl", "--dimension", "2", "--arity", "2", "--seed", "1"])
    assert doc0["result"]["dimension"] == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["central-set", "--n", "1", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    validate(doc)
    assert doc["result"]["survivors"] == [[0]]


def test_monoid_custom_table(capsys):
    code, doc = run_cli(capsys, ["monoid", "--table", "0,1;1,0"])
    assert code == 0
    assert doc["result"]["isomorphic"] is True


def _table_text(rows):
    return ";".join(",".join(map(str, row)) for row in rows)


def _relabelled(rows, perm):
    """The table of the same monoid with element a renamed perm[a]."""
    out = [[None] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return tuple(map(tuple, out))


MONOIDS = st.one_of(
    st.sampled_from(SMALL_MONOID_TABLES),
    st.integers(1, 6).map(lambda m: tuple(tuple((a + b) % m for b in range(m)) for a in range(m))),
).flatmap(lambda rows: st.permutations(range(len(rows))).map(lambda p: _relabelled(rows, p)))


@settings(max_examples=100, deadline=None)
@given(MONOIDS)
def test_table_flag_round_trips_monoid_tables(rows):
    args = cli.build_parser().parse_args(["monoid", "--table=" + _table_text(rows)])
    assert cli.parse_table(args).table == rows


def _corrupted(monoid, how):
    """A malformed --table: a cell that is no integer, an entry out of range,
    a row one cell short, or a square table that is not a monoid."""
    rows = [list(row) for row in monoid]
    m = len(rows)
    if how == "token":
        rows[0][0] = "x"
    elif how == "range":
        rows[-1][-1] = m
    elif how == "ragged":
        rows[-1].pop()
    else:
        rows = [[0] * m for _ in range(m)]  # a zero table has no unit for m >= 2
    return _table_text(rows)


MALFORMED = st.one_of(
    st.tuples(MONOIDS, st.sampled_from(["token", "range", "ragged"])),
    st.tuples(MONOIDS.filter(lambda rows: len(rows) >= 2), st.just("no-unit")),
).map(lambda args: _corrupted(*args))


@settings(max_examples=100, deadline=None)
@given(MALFORMED)
def test_malformed_tables_exit_through_the_contract(text):
    for command in ("monoid", "group-maps"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--table=" + text])
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("usage error: ")
        else:
            assert code == 1
            doc = json.loads(out.getvalue())
            validate(doc)
            assert doc["error"]["name"] == "NotAMonoid"


def test_field_spec_parsing():
    F = cli.parse_field("3^2:1,0,1")
    assert F.q == 9
    F = cli.parse_field("2")
    assert F.q == 2
    dom = cli.parse_ring("zmod:6")
    assert dom.m == 6


DEFAULT_FIELD_POLYS = {
    (2, 1): [0, 1], (3, 1): [0, 1], (5, 1): [0, 1],
    (2, 2): [1, 1, 1], (2, 3): [1, 1, 0, 1], (2, 4): [1, 1, 0, 0, 1], (3, 2): [1, 0, 1],
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([*DEFAULT_FIELD_POLYS, (5, 2), (7, 2)]).flatmap(
        lambda pk: st.tuples(
            st.just(pk), st.lists(st.integers(0, pk[0] - 1), min_size=pk[1], max_size=pk[1])
        )
    )
)
def test_field_specs_round_trip_through_json(case):
    """"p^k" names the field of the shipped polynomial, and "p^k:c0,...,1"
    the field of any monic polynomial that sympy finds irreducible."""
    import sympy

    (p, k), low = case
    default = DEFAULT_FIELD_POLYS.get((p, k))
    if default is None:
        with pytest.raises(ValueError):
            cli.parse_field(f"{p}^{k}")
    else:
        want = {"p": p, "k": k, "poly": default}
        specs = [f"{p}^{k}", f"{p}^{k}:" + ",".join(map(str, default))] + [str(p)] * (k == 1)
        for spec in specs:
            assert cli.parse_field(spec).to_json_dict() == want, spec
    coeffs = low + [1]
    spec = f"{p}^{k}:" + ",".join(map(str, coeffs))
    if sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=p).is_irreducible:
        assert cli.parse_field(spec).to_json_dict() == {"p": p, "k": k, "poly": coeffs}
    else:
        with pytest.raises(ValueError):
            cli.parse_field(spec)


def _ring_spec(R):
    """The spec naming ring R, rebuilt from its str() and to_json_dict()."""
    name = str(R)
    if name == "Q":
        return name
    if name.startswith("Z/"):
        return "zmod:" + name[2:]
    d = R.to_json_dict()
    return f"{d['p']}^{d['k']}:" + ",".join(map(str, d["poly"]))


def _field_specs(p, k):
    coeffs = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    return st.one_of(
        st.just(f"{p}^{k}"), coeffs.map(lambda low: f"{p}^{k}:" + ",".join(map(str, low + [1])))
    )


RING_SPECS = st.one_of(
    st.integers(-3, 10 ** 6).map(lambda m: f"zmod:{m}"),
    st.sampled_from(["Q", "q", "rational"]),
    st.tuples(st.sampled_from([2, 3, 5, 7, 257]), st.integers(1, 3)).flatmap(
        lambda pk: _field_specs(*pk)
    ),
)


@settings(max_examples=200, deadline=None)
@given(RING_SPECS)
def test_ring_specs_round_trip_through_str_and_json(spec):
    """parse_ring reads back the spec that str() and to_json_dict() give of
    every ring it builds; an invalid spec is a usage error."""
    head, _, rest = spec.partition(":")
    try:
        R = cli.parse_ring(spec)
    except cli.SystemExit2:
        # only a modulus below 2, a reducible polynomial, or an extension
        # field without a shipped polynomial
        if head == "zmod":
            assert int(rest) < 2
        else:
            p, k = map(int, head.split("^"))
            assert rest or (k > 1 and (p, k) not in DEFAULT_FIELD_POLYS)
        return
    again = cli.parse_ring(_ring_spec(R))
    assert again == R and str(again) == str(R)
    if head == "zmod":
        assert str(R) == f"Z/{rest}"
    elif "^" in head:
        p, k = map(int, head.split("^"))
        d = R.to_json_dict()
        assert str(R) == f"F{p ** k}" and (d["p"], d["k"]) == (p, k)
        assert again.to_json_dict() == d
        if rest:
            assert d["poly"] == [int(c) for c in rest.split(",")]
    else:
        assert str(R) == "Q"


def test_all_envelope_schema(capsys, monkeypatch):
    # stub the heavy checks; the envelope and summary plumbing is the target
    monkeypatch.setattr(
        acceptance,
        "CHECKS",
        (
            ("stub-pass", lambda: "fine", ()),
            ("stub-fault", lambda fault=None: "fine", ("perm-compose",)),
        ),
    )
    code, doc = run_cli(capsys, ["all", "--json"])
    assert code == 0
    validate(doc)
    assert [c["name"] for c in doc["result"]["checks"]] == ["stub-pass", "stub-fault"]
    assert doc["result"]["pass"] is True


def test_all_with_failing_stub(capsys, monkeypatch):
    def boom():
        raise acceptance._Failure("witnessed failure")

    monkeypatch.setattr(acceptance, "CHECKS", (("stub-bad", boom, ()),))
    code, doc = run_cli(capsys, ["all", "--json"])
    assert code == 1
    validate(doc)
    assert doc["result"]["checks"][0]["witness"] == "witnessed failure"


def test_help_names_the_computations(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "central operads" in text
    for sub, phrase in [
        ("central-set", "central operad of finite sets"),
        ("central-mod", "central operad of R-modules"),
        ("graded", "one scalar per degree"),
        ("monoid", "natural endomorphisms"),
        ("qpoly", "multilinear natural operations"),
        ("word", "natural operations on the underlying set of a group"),
        ("perm", "(xy)z = x(yz) = x(zy)"),
        ("schur-weyl", "commutant"),
    ]:
        with pytest.raises(SystemExit):
            cli.main([sub, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert phrase in text, (sub, phrase)
