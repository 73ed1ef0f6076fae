"""Golden documents: the `--no-timing` JSON of the README CLI examples and of
three q-power polynomial runs, compared byte for byte with the documents
recorded in tests/golden/.  Any change to a survivor list, an instance
count, a witness or a printed polynomial shows up here."""

from pathlib import Path

import pytest

from endop import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "central-set": ["central-set", "--n", "2"],
    "central-mod": ["central-mod", "--ring", "zmod:4", "--rank", "2", "--arity", "1"],
    "graded": ["graded", "--ring", "zmod:2", "--window", "1", "--arity", "1"],
    "monoid": ["monoid", "--builtin", "s3"],
    "group-maps": ["group-maps", "--builtin", "z2", "--arity", "2"],
    "word-compose": ["word", "compose", "--w1", "x1 x2", "--arity1", "2", "--at", "1",
                     "--w2", "x1^-1", "--arity2", "1"],
    "word-enumerate": ["word", "enumerate", "--arity1", "2", "--max-length", "2"],
    "perm-compose": ["perm", "compose", "--arity1", "2", "--index1", "2", "--at", "1",
                     "--arity2", "2", "--index2", "1"],
    "qpoly-classify": ["qpoly", "classify", "--q", "4", "--arity", "1", "--maxdeg", "4"],
    "qpoly-generate": ["qpoly", "generate", "--q", "2", "--arity", "2", "--exp-bound", "2"],
    "schur-weyl": ["schur-weyl", "--dimension", "3", "--arity", "3"],
    "schur-weyl-all-gl": ["schur-weyl", "--dimension", "2", "--arity", "2", "--all-gl",
                          "--field", "2^1"],
    "axioms-word": ["axioms", "--operad", "word", "--arity-bound", "3", "--size-bound", "2"],
    "qpoly-compose-f4": ["qpoly", "compose", "--q", "4", "--arity1", "1", "--f", "X1^4",
                         "--arity2", "2", "--g", "g*X1*X2 + X1^4*X2"],
    "qpoly-check-f4": ["qpoly", "check", "--q", "4", "--arity", "1", "--f", "X1^2"],
    "qpoly-check-f2": ["qpoly", "check", "--q", "2", "--arity", "2",
                       "--f", "X1*X2^2 + X1^3*X2"],
}


def render(capsys, argv):
    code = cli.main(argv + ["--no-timing"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_is_byte_identical(capsys, name):
    code, out = render(capsys, CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()

