"""CLI output pinned byte for byte: `iso` on one generated pair of each kind,
`to-lss`, `simulate`, `param-analyze`, `param-generic`, `check-min` with each
method and `check-sufficient`.

The expected reports are the program's output, captured once: a change in
how entries or polynomials are read, stored or multiplied that changes any
output shows here.  The pairs are drawn from a
fixed seed: entries are fractions with denominators 1 to 3, and halves are
written as decimals, so the reader's three forms ("3", "-1/3", "1.5") all
occur.  `param-analyze` reports run to 16 kB, so they are pinned by the
SHA-256 of the bytes written.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import fixture_path
from sarxid.cli import main


def text(x):
    """"n", "n/d", or a decimal when d = 2."""
    if x.denominator == 2:
        return "%s%d.5" % ("-" if x < 0 else "", abs(x.numerator) // 2)
    return str(x)


def draw(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def dense(rng, rows, cols):
    return [[draw(rng) for _ in range(cols)] for _ in range(rows)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def unimodular(rng, n):
    """T and its inverse, T a product of n elementary row additions with small integer factors."""
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in t]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        t = [[x + c * t[j][k] if r == i else x for k, x in enumerate(row)] for r, row in enumerate(t)]
        # the inverse gains the inverse step on the right: column j -= c column i
        inv = [[x - c * row[i] if k == j else x for k, x in enumerate(row)] for row in inv]
    return t, inv


def conjugate(modes, x0, t, inv):
    """(T A T^-1, T B, C T^-1) per mode, and T x0."""
    out = {q: (matmul(matmul(t, a), inv), matmul(t, b), matmul(c, inv)) for q, (a, b, c) in modes.items()}
    return out, [row[0] for row in matmul(t, [[x] for x in x0])]


def lss_json(n, m, p, modes, x0):
    return {
        "n": n, "m": m, "p": p,
        "modes": {q: {"A": [[text(x) for x in row] for row in a],
                      "B": [[text(x) for x in row] for row in b],
                      "C": [[text(x) for x in row] for row in c]} for q, (a, b, c) in modes.items()},
        "x0": [text(x) for x in x0],
    }


def pair(kind):
    """(n, m, p, a modes, a x0, b modes, b x0) for the pair kind, from one fixed seed per kind."""
    rng = random.Random("pinned:" + kind)
    if kind == "self":
        n, m, p = 4, 1, 1
        modes = {q: (dense(rng, n, n), dense(rng, n, m), dense(rng, p, n)) for q in "12"}
        return n, m, p, modes, [Fraction(0)] * n, modes, [Fraction(0)] * n
    if kind == "no-io":
        # m = p = 0: only x0 seeds the closure, and a non-cyclic x0 leaves a family
        n, m, p = 4, 0, 0
        modes = {q: ([[draw(rng) if (i < 2) == (j < 2) else Fraction(0) for j in range(n)]
                      for i in range(n)], [[] for _ in range(n)], []) for q in "12"}
        x0 = [draw(rng), draw(rng), Fraction(0), Fraction(0)]
        return n, m, p, modes, x0, modes, x0
    n, m, p = 5, 1, 1
    if kind == "nonreachable":
        # block upper-triangular with B and x0 in the first two coordinates
        modes = {q: ([[draw(rng) if i < 2 or j >= 2 else Fraction(0) for j in range(n)]
                      for i in range(n)],
                     [[draw(rng) if i < 2 else Fraction(0)] for i in range(n)],
                     dense(rng, p, n)) for q in "12"}
        x0 = [draw(rng), draw(rng), Fraction(0), Fraction(0), Fraction(0)]
    else:
        modes = {q: (dense(rng, n, n), dense(rng, n, m), dense(rng, p, n)) for q in "12"}
        x0 = [draw(rng) for _ in range(n)]
    b_modes, b_x0 = conjugate(modes, x0, *unimodular(rng, n))
    if kind == "perturbed":
        # trace(A_1), which similarity keeps, gains 1: no isomorphism exists
        a1, b1, c1 = b_modes["1"]
        a1 = [row[:] for row in a1]
        a1[0][0] += 1
        b_modes["1"] = (a1, b1, c1)
    return n, m, p, modes, x0, b_modes, b_x0


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def identity(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


# kind -> (exit code, report)
ISO = {
    "self": (0, {"family_dim": 0, "kind": "unique-identity", "witness": identity(4)}),
    "conjugated": (0, {"family_dim": 0, "kind": "unique-other", "witness": [
        ["1", "0", "1", "1", "0"], ["0", "1", "0", "-2", "0"], ["0", "0", "1", "0", "0"],
        ["0", "2", "1", "-3", "-1"], ["0", "-2", "0", "4", "1"]]}),
    "perturbed": (1, {"family_dim": -1, "kind": "none", "witness": None}),
    "nonreachable": (0, {"family_dim": 0, "kind": "unique-other", "witness": [
        ["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "-2"], ["0", "2", "1", "0", "-2"],
        ["0", "0", "0", "1", "2"], ["0", "0", "0", "0", "1"]]}),
    # the witness is the first invertible one of the points drawn from --seed
    "no-io": (0, {"family_dim": 1, "kind": "affine-family", "witness": [
        ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-2", "0"], ["0", "0", "0", "-2"]]}),
}


def dumped(report):
    """The bytes `main` writes for a report: indented, sorted JSON and a newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("kind", sorted(ISO))
def test_iso_output_is_pinned(capsys, tmp_path, kind):
    n, m, p, a_modes, a_x0, b_modes, b_x0 = pair(kind)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(lss_json(n, m, p, a_modes, a_x0)))
    b.write_text(json.dumps(lss_json(n, m, p, b_modes, b_x0)))
    assert run(capsys, ["iso", a, b, "--seed", "3"]) == (ISO[kind][0], dumped(ISO[kind][1]), "")


def companion(top):
    """Mode of example3's embedding: A with `top` as its first row, B = e_3 and C = `top`."""
    return {"A": [top, ["1", "0", "0", "0"], ["0"] * 4, ["0", "0", "1", "0"]],
            "B": [["0"], ["0"], ["1"], ["0"]], "C": [top]}


TO_LSS = {"m": 1, "n": 4, "p": 1, "x0": ["0"] * 4, "modes": {
    "1": companion(["8", "-15", "1", "-3"]), "2": companion(["1", "2", "1", "1"])}}
SIMULATE = {"lss_agrees": True, "outputs": [["0"], ["1"], ["3"], ["6"], ["-6"], ["7"]]}


def test_to_lss_output_is_pinned(capsys):
    assert run(capsys, ["to-lss", fixture_path("example3.json")]) == (0, dumped(TO_LSS), "")


def test_simulate_compare_lss_output_is_pinned(capsys):
    argv = ["simulate", fixture_path("example3.json"), fixture_path("example3_word.json"),
            "--compare-lss"]
    assert run(capsys, argv) == (0, dumped(SIMULATE), "")


def affine_family(rng):
    """A type-(1,1) family with 2 modes and entries c0 + c1*theta1 + c2*theta2,
    each c a nonzero integer in [-9, 9]: the generated families of the
    benchmark's `region` workload, drawn the same way."""
    def entry():
        return {"terms": [{"c": str(rng.choice([c for c in range(-9, 10) if c])), "e": e}
                          for e in ([0, 0], [1, 0], [0, 1])]}

    return {"vars": ["theta1", "theta2"], "ny": 1, "nu": 1, "p": 1, "m": 1,
            "modes": {str(q): [entry(), entry()] for q in (1, 2)}}


# input -> (exit code, |S|, SHA-256 of the JSON report, of the text report);
# family1 and family19 are degenerate, with 4 and 3 polynomials in S
ANALYZE = {
    "example2_param": (0, 3, "a6af5971790dc65899efbc7853ac9212d06b56b64ec0f60b1414f03bd08bad62",
        "0030403c7175103d02dad294132844699bababeb5bcba381c6dc52939ffd2394"),
    "example8_first_family": (0, 1, "2bffdfd4a59e94376287efb4399e02921cddfca98ae774eed897099e036b613e",
        "ee2ca642f9ec12ad1c72774928eaadfa6e2443dcd4e44ffc203b54407ce2f6b9"),
    "example8_second_family": (0, 3, "ded27132f420a3b9bc354ca017561205bd08d8c06684d5b9a020ae035e3ed2e2",
        "f0ec09fc5d88f35b660a8f2934b9cdcfbe9c60dadd1c5a589754fa53e9243443"),
    "family0": (0, 5, "b37501e20c933321ed1892f15e1f6bf1f355fc9899bb0ba41e44755c38c739d6",
        "ae63ca297b8c4494b2492cb30fcc075391b392f84e472200ebc08c01c92f47f4"),
    "family1": (0, 4, "bc857f550d0645814d57d9aadaa1b35706becd074324b7f9f1ef6a26c4c3274c",
        "4b4a29c5d711377af6af49fd3a6f0953c745090a7b9c017f2e31cd488fbe506a"),
    "family2": (0, 5, "69fa881f45688a60411db6be647215404d0796e831be937b934f769e187bc96a",
        "fc500b5b9334a30ad5ad0ede736593352877610dfa3ae6d477810fd631613811"),
    "family19": (0, 3, "62268d0652627a96d336e3a66be37d6d6165939b4958476b27bc194d8631c6a8",
        "d60c8e11b86d4b0f5edb290a6c14fffb5d7d3a170497b421366126badd1b6e6c"),
}


def param_file(tmp_path, name):
    if not name.startswith("family"):
        return fixture_path(name + ".json")
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(affine_family(random.Random("pinned:" + name))))
    return path


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_param_analyze_output_is_pinned(capsys, tmp_path, name):
    path = param_file(tmp_path, name)
    code, size, json_digest, text_digest = ANALYZE[name]
    got_code, out, err = run(capsys, ["param-analyze", path])
    assert (got_code, len(json.loads(out)["S"]), err) == (code, size, "")
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest
    got_code, out, err = run(capsys, ["param-analyze", path, "--format", "text"])
    assert (got_code, hashlib.sha256(out.encode()).hexdigest(), err) == (code, text_digest, "")


GENERIC = {
    "engine_family": {"attempts": 1, "witness": [
        "1", "-9/2", "3", "1", "5/2", "8", "6", "-1", "-7/3", "-2/3", "9", "-1", "-8/3", "0", "7",
        "1/2", "0", "10", "7/2", "4/3"]},
    "trivial_param": {"attempts": 1, "witness": ["1", "-9/2", "3", "1", "5/2", "8", "6", "-1"]},
}


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_param_generic_output_is_pinned(capsys, name):
    assert run(capsys, ["param-generic", fixture_path(name + ".json")]) == (0, dumped(GENERIC[name]), "")


def siso_json(name):
    """A SISO model drawn from the seed "pinned:" + name, "<kind><modes>-<i>".

    ny is in 1..3 and nu in 1..ny.  Kind "siso" draws every coefficient; kind
    "mute" has its input coefficients zero, so that phi is zero on every pair
    and condition A fails.
    """
    rng = random.Random("pinned:" + name)
    modes = int(name.partition("-")[0][-1])
    ny = rng.randint(1, 3)
    nu = rng.randint(1, ny)
    inputs = draw if name.startswith("siso") else lambda rng: Fraction(0)
    return {"ny": ny, "nu": nu, "p": 1, "m": 1, "modes": {
        str(q): [[text(draw(rng)) for _ in range(ny)] + [text(inputs(rng)) for _ in range(nu)]]
        for q in range(1, modes + 1)}}


def model_file(tmp_path, name):
    if not name.startswith(("siso", "mute")):
        return fixture_path(name + ".json")
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(siso_json(name)))
    return path


# model -> (exit codes of exact-rank, theorem2 and both; condition A's witness,
# condition B's witness and scalar; SHA-256 of the six reports, JSON then text
# per method).  siso2-1, siso3-0 and siso3-23 find B's witness past the first
# pair, siso3-16 A's; remark1_counterexample and siso2-17 fail B, mute3-0 both
CHECK_MIN = {
    "example3": ((0, 0, 0), ["1", "2"], ["1", "2"], "-3",
        "b7543d0a5a379a196810e9bf09984cbaa1654d73e559bc66cc48e339202b2f76"),
    "mute3-0": ((1, 1, 1), None, None, None,
        "595e840a44677e87afdfe3cb2d8f9d0130b9f366851963b3da353a8d6b512a0f"),
    "remark1_counterexample": ((1, 1, 1), ["1", "2"], None, None,
        "7efcac67bbd07612e4185ed6b00e2bd23dccbbbcc9f33475436e06c62e054e27"),
    "siso2-1": ((0, 0, 0), ["1", "2"], ["2", "1"], "-3",
        "2c5cdb46f83babe6d6fcb43dc31637666f1851f294c65fe86be520a561a47118"),
    "siso2-17": ((1, 1, 1), ["1", "2"], None, None,
        "5aa22bc6a881a08a660d1a76e8b7fd1c3222fa81124b2298806951107194d883"),
    "siso3-0": ((0, 0, 0), ["1", "2"], ["2", "3"], "-19/9",
        "e1dc822db9949565a805bb9db26c4d565a9cc30c19d578b78516261b38332dd8"),
    "siso3-16": ((0, 0, 0), ["1", "3"], ["1", "2"], "-1",
        "48cdc2f5c71dd3ddf74605926285373cd734201415c59c1e5879461da66e2b32"),
    "siso3-23": ((0, 0, 0), ["1", "2"], ["3", "1"], "-3",
        "80846c6c9e147452603d9595e7a1c62b790ded7dcfddfe5c96685ff7e3a50194"),
}


@pytest.mark.parametrize("name", sorted(CHECK_MIN))
def test_check_min_output_is_pinned(capsys, tmp_path, name):
    path = model_file(tmp_path, name)
    codes, witness_a, witness_b, scalar, expected = CHECK_MIN[name]
    digest = hashlib.sha256()
    for method, code in zip(("exact-rank", "theorem2", "both"), codes):
        for fmt in ("json", "text"):
            got_code, out, err = run(capsys, ["check-min", path, "--method", method, "--format", fmt])
            assert (got_code, err) == (code, ""), (method, fmt)
            digest.update(out.encode())
    conditions = json.loads(run(capsys, ["check-min", path, "--method", "both"])[1])["sufficient_conditions"]
    assert (conditions["A"]["witness"], conditions["B"]["witness"], conditions["B"]["scalar"]) == (
        witness_a, witness_b, scalar)
    assert digest.hexdigest() == expected


# model -> (exit code, status, reason)
CHECK_SUFFICIENT = {
    "example3": (0, "minimal-certified", "the associated switched state-space system is minimal"),
    "mute3-0": (1, "unknown", None),
    "remark1_counterexample": (0, "minimal-certified", "mode 1 has a minimal ARX subsystem"),
    "siso2-1": (0, "minimal-certified", "mode 1 has a minimal ARX subsystem"),
    "siso2-17": (0, "minimal-certified", "mode 1 has a minimal ARX subsystem"),
    "siso3-0": (0, "minimal-certified", "mode 2 has a minimal ARX subsystem"),
    "siso3-16": (0, "minimal-certified", "mode 1 has a minimal ARX subsystem"),
    "siso3-23": (0, "minimal-certified", "mode 1 has a minimal ARX subsystem"),
}


@pytest.mark.parametrize("name", sorted(CHECK_SUFFICIENT))
def test_check_sufficient_output_is_pinned(capsys, tmp_path, name):
    path = model_file(tmp_path, name)
    code, status, reason = CHECK_SUFFICIENT[name]
    report = {"status": status, "reason": reason}
    assert run(capsys, ["check-sufficient", path]) == (code, dumped(report), "")
    text_report = "status: %s\nreason: %s\n" % (status, reason)
    assert run(capsys, ["check-sufficient", path, "--format", "text"]) == (code, text_report, "")
