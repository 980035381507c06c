import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fixture_path
from sarxid import Lss, LssMode, MultiPoly, RatMatrix, SarxModel, cli, dual, groebner
from sarxid.cli import main

SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_min_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check-min", fixture_path("example3.json"))
    assert code == 0
    assert json.loads(out)["strong_minimal"] is True
    code, out, _ = run_cli(capsys, "check-min", fixture_path("remark1_counterexample.json"))
    assert code == 1
    assert json.loads(out)["strong_minimal"] is False


def sufficient(a, b, scalar):
    """The "sufficient_conditions" entry for witnesses a and b and condition B's scalar."""
    return {
        "hold": a is not None and b is not None,
        "A": {"holds": a is not None, "witness": a},
        "B": {"holds": b is not None, "witness": b, "scalar": scalar},
    }


def certificates(reachable, unobservable, n):
    return {"reachable_dim": reachable, "unobservable_dim": unobservable, "state_dim": n}


# one model with both witnesses for mode pair (1, 2), one whose condition B
# fails, and one where neither condition holds (nothing follows: null, exit 1)
NEITHER = {"ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [["1", "0"]], "2": [["2", "0"]]}}
CHECK_MIN_REPORTS = [
    ("example3.json", "exact-rank", 0,
     {"method": "exact-rank", "strong_minimal": True, "certificates": certificates(4, 0, 4)}),
    ("example3.json", "theorem2", 0,
     {"method": "theorem2", "strong_minimal": True,
      "sufficient_conditions": sufficient(["1", "2"], ["1", "2"], "-3")}),
    ("example3.json", "both", 0,
     {"method": "both", "strong_minimal": True,
      "sufficient_conditions": sufficient(["1", "2"], ["1", "2"], "-3"),
      "certificates": certificates(4, 0, 4)}),
    ("remark1_counterexample.json", "both", 1,
     {"method": "both", "strong_minimal": False,
      "sufficient_conditions": sufficient(["1", "2"], None, None),
      "certificates": certificates(4, 2, 4)}),
    ("neither.json", "theorem2", 1,
     {"method": "theorem2", "strong_minimal": None,
      "sufficient_conditions": sufficient(None, None, None)}),
]


@pytest.mark.parametrize(
    "name, method, expected, report", CHECK_MIN_REPORTS,
    ids=["%s %s" % (name, method) for name, method, _, _ in CHECK_MIN_REPORTS],
)
def test_check_min_report_is_pinned(capsys, tmp_path, name, method, expected, report):
    if name == "neither.json":
        path = tmp_path / name
        path.write_text(json.dumps(NEITHER))
    else:
        path = fixture_path(name)
    code, out, err = run_cli(capsys, "check-min", path, "--method", method)
    assert (code, err) == (expected, "")
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_check_min_text_keeps_the_report_order(capsys):
    code, out, _ = run_cli(
        capsys, "check-min", fixture_path("remark1_counterexample.json"),
        "--method", "both", "--format", "text",
    )
    assert code == 1
    assert out.splitlines() == [
        "method: both",
        "strong_minimal: False",
        "sufficient_conditions:",
        "  hold: False",
        "  A:",
        "    holds: True",
        "    witness:",
        "      - 1",
        "      - 2",
        "  B:",
        "    holds: False",
        "    witness: None",
        "    scalar: None",
        "certificates:",
        "  reachable_dim: 4",
        "  unobservable_dim: 2",
        "  state_dim: 4",
    ]


def test_malformed_input_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ny": 2')
    code, _, err = run_cli(capsys, "check-min", bad)
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "check-min", tmp_path / "missing.json")
    assert code == 2

    # well-formed JSON of the wrong shape: "modes" not an object, or a
    # coefficient polynomial that is a list instead of an object
    header = {
        "check-min": {"ny": 2, "nu": 2, "p": 1, "m": 1},
        "iso": {"n": 1, "m": 1, "p": 1, "x0": ["0"]},
        "param-analyze": {"vars": ["t"], "ny": 1, "nu": 1, "p": 1, "m": 1},
    }
    cases = [(cmd, dict(head, modes=modes))
             for cmd, head in header.items()
             for modes in (["1"], "1")]
    cases.append(("param-analyze", dict(header["param-analyze"], modes={"1": [[], []]})))

    # an integer field that is not an int, or a string where a list belongs:
    # each valid input below is accepted, then one of its fields is spoiled
    term = {"terms": [{"c": "1", "e": [1]}]}
    lss_mode = {"A": [["1"]], "B": [["1"]], "C": [["1"]]}
    valid = {
        # a JSON integer is an exact coefficient
        "check-min": dict(header["check-min"], ny=1, nu=1, modes={"1": [["1", 2]]}),
        "iso": dict(header["iso"], modes={"1": lss_mode}),
        "param-analyze": dict(header["param-analyze"], modes={"1": [term, term]}),
        "simulate": {"steps": [{"q": "1", "u": ["1"]}]},
    }
    spoiled = [
        ("check-min", "ny", 1.5), ("check-min", "ny", True), ("check-min", "p", "1"),
        ("check-min", "modes", {"1": ["12"]}),
        # a JSON float has already lost exactness, and true is not a number
        ("check-min", "modes", {"1": [[0.5, "2"]]}), ("check-min", "modes", {"1": [[True, "2"]]}),
        ("param-analyze", "modes", {"1": [{"terms": [{"c": 0.5, "e": [1]}]}, term]}),
        ("iso", "n", 1.0), ("iso", "x0", "0"), ("iso", "modes", {"1": dict(lss_mode, A="1")}),
        ("param-analyze", "modes", {"1": [{"terms": [{"c": "1", "e": [1.7]}]}, term]}),
        ("param-analyze", "vars", ["t", "t"]), ("param-analyze", "vars", "t"),
        # a polynomial without a "terms" list is not the zero polynomial
        ("param-analyze", "modes", {"1": [{"term": term["terms"]}, term]}),
        ("param-analyze", "modes", {"1": [{"terms": {}}, term]}),
        ("simulate", "steps", [{"q": "1", "u": "1"}]),
        # exponent notation: "1e999999999" would expand to a billion digits
        ("check-min", "modes", {"1": [["1e3", "2"]]}),
        ("iso", "modes", {"1": dict(lss_mode, A=[["1e3"]])}),
        ("param-analyze", "modes", {"1": [{"terms": [{"c": "1e3", "e": [1]}]}, term]}),
        ("simulate", "steps", [{"q": "1", "u": ["1e3"]}]),
    ]
    word = tmp_path / "word.json"

    def files(cmd, obj):
        if cmd == "simulate":
            bad.write_text(json.dumps(valid["check-min"]))
            word.write_text(json.dumps(obj))
            return [bad, word]
        bad.write_text(json.dumps(obj))
        return [bad, bad] if cmd == "iso" else [bad]

    for cmd, obj in valid.items():
        code, _, err = run_cli(capsys, cmd, *files(cmd, obj))
        assert code != 2, (cmd, err)
    cases += [(cmd, dict(valid[cmd], **{key: value})) for cmd, key, value in spoiled]
    for cmd, obj in cases:
        code, _, err = run_cli(capsys, cmd, *files(cmd, obj))
        assert code == 2, (cmd, obj)
        assert err.startswith("error: ") and "Traceback" not in err, (cmd, obj)

    # files that do not decode: not UTF-8, or nested past the recursion limit
    for raw in (b'\xff\xfe{"ny": 1}', b"[" * 100_000 + b"]" * 100_000):
        for cmd in valid:
            paths = files(cmd, {})
            paths[-1].write_bytes(raw)
            code, _, err = run_cli(capsys, cmd, *paths)
            assert code == 2, (cmd, raw[:4])
            assert err.startswith("error: ") and "Traceback" not in err, (cmd, raw[:4])

    # a sample or trial count below 1 would draw nothing
    for cmd, option in (("param-generic", "--samples"), ("param-injective", "--trials")):
        for value in ("0", "-3"):
            argv = (cmd, fixture_path("theta_squared_param.json"), option, value)
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and not out, argv
            assert err.startswith("error: "), argv


def test_negative_exponent_is_refused(capsys, tmp_path):
    term = {"terms": [{"c": "1", "e": [-1]}]}
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly.from_json_terms(("t",), term)
    one = {"terms": [{"c": "1", "e": [0]}]}
    path = tmp_path / "inverse.json"
    path.write_text(json.dumps(
        {"vars": ["t"], "ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [term, one]}}
    ))
    for cmd in ("param-analyze", "param-generic"):
        code, out, err = run_cli(capsys, cmd, path)
        assert code == 2, cmd
        assert out == ""
        assert err.startswith("error: ") and "negative exponent" in err


def test_huge_exponent_is_refused_at_once(tmp_path):
    # at 10^9, param-generic would raise each sampled theta to that power; a
    # child process, so that a run without the exponent cap can be stopped
    term = {"terms": [{"c": "1", "e": [10**9]}]}
    one = {"terms": [{"c": "1", "e": [0]}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"vars": ["t"], "ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [term, one]}}
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "sarxid", "param-generic", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=1,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "exponent above" in proc.stderr


def test_result_past_the_digit_limit_exits_two(capsys, tmp_path):
    # y_t = a y_(t-1) + u_(t-1) with a = 10^k: y_50 has about 49 k digits, more
    # than Python writes as text, though the input itself is within the limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-str digit limit")
    a = "1" + "0" * (limit // 40 + 1)
    model = {"ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [[a, "1"]]}}
    word = {"steps": [{"q": "1", "u": ["1"]}] * 50}
    paths = write_inputs(tmp_path, "simulate", [model, word])
    for argv in (paths[:2], paths):
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2 and out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "limit" in lines[0], err


def test_param_generic_without_parameters_prints_an_empty_witness(capsys, tmp_path):
    def const(c):
        return {"terms": [{"c": c, "e": []}]}

    family = {"vars": [], "ny": 1, "nu": 1, "p": 1, "m": 1,
              "modes": {"1": [const("1"), const("1")], "2": [const("2"), const("1")]}}
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(family))
    code, out, _ = run_cli(capsys, "param-generic", path)
    assert code == 0
    assert json.loads(out) == {"attempts": 1, "witness": []}


def test_output_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "check-min", fixture_path("example3.json"), "--method", "both"
        )
        outs.append(out)
    assert outs[0] == outs[1]


def leaves(value):
    """The scalars of a JSON value, in order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in leaves(v)]
    return [value]


def test_text_format_renders_same_data(capsys):
    # a plain verdict, then reports holding lists: the verdict's witnesses,
    # the region's polynomials and the trace's outputs, a list of lists
    for key, argv in (
        ("strong_minimal", ["check-min", "example3.json"]),
        ("witness:", ["check-min", "example3.json", "--method", "both"]),
        ("I_A:", ["param-analyze", "example8_first_family.json"]),
        ("outputs:", ["simulate", "example3.json", "example3_word.json"]),
    ):
        args = [fixture_path(a) if a.endswith(".json") else a for a in argv]
        _, out_json, _ = run_cli(capsys, *args)
        _, out_text, _ = run_cli(capsys, *args, "--format", "text")
        assert key in out_text, argv
        assert out_text != out_json
        assert all(str(x) in out_text for x in leaves(json.loads(out_json))), argv


def test_simulate_with_lss_comparison(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        fixture_path("example3.json"),
        fixture_path("example3_word.json"),
        "--compare-lss",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lss_agrees"] is True
    assert report["outputs"][0] == ["0"]


# (exit code, argv) of the screening subcommands, which decide from ranks,
# closures and univariate gcds only
SCREENING = [
    (0, ["check-min", "example3.json", "--method", "both"]),
    (1, ["check-min", "remark1_counterexample.json", "--method", "both"]),
    (0, ["check-sufficient", "example3.json"]),
    (0, ["check-sufficient", "remark1_counterexample.json"]),
    (0, ["simulate", "example3.json", "example3_word.json", "--compare-lss"]),
    (0, ["param-generic", "engine_family.json"]),
    (0, ["param-generic", "example2_param.json"]),
    (0, ["param-generic", "example8_first_family.json"]),
    (0, ["param-generic", "example8_second_family.json"]),
    (1, ["param-generic", "theta_squared_param.json"]),
    (0, ["param-generic", "trivial_param.json"]),
]


@pytest.mark.parametrize("expected, argv", SCREENING, ids=[" ".join(a) for _, a in SCREENING])
def test_screening_never_enters_the_groebner_kernel(capsys, monkeypatch, expected, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("screening entered the Groebner kernel")

    sarxid_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sarxid"]
    for name in ("buchberger", "normal_form"):
        original = getattr(groebner, name)
        for module in sarxid_modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, refuse)
    args = [fixture_path(a) if a.endswith(".json") else a for a in argv]
    code, _, _ = run_cli(capsys, *args)
    assert code == expected


def one_state_lss(c):
    mode = {"A": [["1"]], "B": [["1"]], "C": [[c]]}
    return {"n": 1, "m": 1, "p": 1, "modes": {"1": mode}, "x0": ["0"]}


def test_lss_dimensions_are_checked_by_name(capsys, tmp_path):
    # n = 0 would ask for shapes such as a 0 x 1 B, which JSON cannot write
    path = tmp_path / "bad.json"
    for field, value in (("n", -1), ("n", 0), ("m", -1), ("p", -1)):
        path.write_text(json.dumps(dict(one_state_lss("1"), **{field: value})))
        code, out, err = run_cli(capsys, "iso", path, path)
        assert code == 2 and not out, (field, value)
        assert err.startswith("error: ") and " %s, got %d" % (field, value) in err, err


ONE_STATE = one_state_lss("1")
MODEL = {"ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [["1", "2"]]}}
TERM = {"terms": [{"c": "1", "e": [1]}]}
FAMILY = {"vars": ["t"], "ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [TERM, TERM]}}


def spoiled_mode(**fields):
    return dict(ONE_STATE, modes={"1": dict(ONE_STATE["modes"]["1"], **fields)})


# (subcommand, its input files, a fragment of the one error line): refusals
# that the malformed-input cases above do not reach; iso reads its file twice
REFUSALS = [
    ("iso", [dict(ONE_STATE, modes={})], "mode set must be nonempty"),
    ("iso", [dict(ONE_STATE, x0=["0", "0"])], "x0 must be an n x 1 column"),
    ("iso", [spoiled_mode(A=[["1", "1"]])], "A must be 1 x 1"),
    ("iso", [spoiled_mode(B=[["1", "1"]])], "B must be 1 x 1"),
    ("iso", [spoiled_mode(C=[["1"], ["1"]])], "C must be 1 x 1"),
    # an empty C is read as a C without rows, which p = 1 refuses
    ("iso", [spoiled_mode(C=[])], "C must be 1 x 1"),
    ("simulate", [MODEL, {"steps": []}], "hybrid word must be nonempty"),
    ("simulate", [MODEL, {"steps": [{"q": "2", "u": ["1"]}]}], "unknown mode label '2'"),
    ("simulate", [MODEL, {"steps": [{"q": "1", "u": ["1", "1"]}]}], "input dimension 2 != m=1"),
    ("param-analyze", [dict(FAMILY, modes={"1": [TERM]})], "has 1 coefficient polynomials"),
    ("param-analyze", [dict(FAMILY, vars=["z"])], 'parameter variable named "z"'),
    # a JSON float or bool where a coefficient belongs
    ("check-min", [dict(MODEL, modes={"1": [[0.5, "2"]]})], "0.5 is not an int or a Fraction"),
    ("check-min", [dict(MODEL, modes={"1": [[True, "2"]]})], "True is not an int or a Fraction"),
    # digit separators, which some Python versions' Fraction reads and others refuse
    ("check-min", [dict(MODEL, modes={"1": [["1_000", "2"]]})], "digit separators not accepted"),
    ("iso", [spoiled_mode(A=[[0.5]])], "0.5 is not an int or a Fraction"),
    ("param-analyze", [dict(FAMILY, modes={"1": [{"terms": [{"c": 0.5, "e": [1]}]}, TERM]})],
     "0.5 is not an int or a Fraction"),
    ("simulate", [MODEL, {"steps": [{"q": "1", "u": [False]}]}], "False is not an int or a Fraction"),
]


def write_inputs(tmp_path, cmd, objs):
    paths = []
    for i, obj in enumerate(objs):
        paths.append(tmp_path / ("input%d.json" % i))
        paths[-1].write_text(json.dumps(obj))
    if cmd == "iso":
        return paths * 2
    return paths + ["--compare-lss"] if cmd == "simulate" else paths


def test_refusal_cases_spoil_accepted_inputs(capsys, tmp_path):
    for cmd, objs in (("iso", [ONE_STATE]), ("simulate", [MODEL, {"steps": [{"q": "1", "u": ["1"]}]}]),
                      ("param-analyze", [FAMILY]), ("check-min", [MODEL])):
        code, _, err = run_cli(capsys, cmd, *write_inputs(tmp_path, cmd, objs))
        assert code in (0, 1), (cmd, err)


@pytest.mark.parametrize("cmd, objs, message", REFUSALS, ids=lambda x: x if isinstance(x, str) else "")
def test_refusal_exits_two_with_one_error_line(capsys, tmp_path, cmd, objs, message):
    code, out, err = run_cli(capsys, cmd, *write_inputs(tmp_path, cmd, objs))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], err
    assert "Traceback" not in err


def test_iso_reads_systems_without_outputs(capsys, tmp_path):
    # the dual of an input-free system has p = 0, and JSON writes its C as []
    def dual_of_input_free(a):
        mode = LssMode(a=RatMatrix(a), b=RatMatrix.zeros(2, 0), c=RatMatrix([[1, 0]]))
        return dual(Lss(n=2, m=0, p=1, modes={"1": mode}, x0=RatMatrix.column([1, 1])))

    paths = []
    for name, a in (("a.json", [[1, 2], [0, 1]]), ("b.json", [[1, 0], [3, 1]])):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(dual_of_input_free(a).to_json_dict()))
        assert json.loads(paths[-1].read_text())["modes"]["1"]["C"] == []
    for pair in ([paths[0], paths[0]], paths):
        code, out, err = run_cli(capsys, "iso", *pair)
        assert code in (0, 1), err
        assert json.loads(out)["kind"] in ("none", "unique-identity", "unique-other", "affine-family")


def silent_lss(a):
    """n = 2, one mode, B = 0, C = 0, x0 = 0: every S with S A = A' S solves."""
    mode = {"A": a, "B": [["0"], ["0"]], "C": [["0", "0"]]}
    return {"n": 2, "m": 1, "p": 1, "modes": {"1": mode}, "x0": ["0", "0"]}


# a nilpotent A against A = 0: not similar, yet an affine family of solutions,
# every one of them singular
SILENT = {
    "nil.json": silent_lss([["0", "1"], ["0", "0"]]),
    "zero.json": silent_lss([["0", "0"], ["0", "0"]]),
}


# (exit code, argv, files written to tmp_path) for the verdicts the tests
# above do not pin; together they give every subcommand a pinned exit code
EXIT_CODES = [
    (1, ["check-sufficient", "ns.json"],
     {"ns.json": {"ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [["1", "0"]]}}}),
    # type (1, 1) reproduces it: z divides both chi_1 = z^2 + z and z N_1 = z
    (1, ["check-sufficient", "delay.json"],
     {"delay.json": {"ny": 2, "nu": 1, "p": 1, "m": 1,
                     "modes": {"1": [["-1", "0", "1"]], "2": [["-1", "0", "0"]]}}}),
    (0, ["to-lss", "example3.json"], {}),
    (0, ["iso", "a.json", "a.json"], {"a.json": one_state_lss("1")}),
    (1, ["iso", "a.json", "b.json"],
     {"a.json": one_state_lss("1"), "b.json": one_state_lss("2")}),
    (1, ["iso", "nil.json", "zero.json"], SILENT),
    (1, ["iso", "zero.json", "nil.json"], SILENT),
    # A = I: every S solves, an affine family of dimension 4 with an invertible witness
    (0, ["iso", "eye.json", "eye.json"], {"eye.json": silent_lss([["1", "0"], ["0", "1"]])}),
    (1, ["param-analyze", "theta_squared_param.json"], {}),
    (0, ["param-injective", "example8_first_family.json"], {}),
    (1, ["param-injective", "example2_param.json"], {}),
]


@pytest.mark.parametrize(
    "expected, argv, written", EXIT_CODES, ids=[" ".join(a) for _, a, _ in EXIT_CODES]
)
def test_exit_code_pinned(capsys, tmp_path, expected, argv, written):
    for name, obj in written.items():
        (tmp_path / name).write_text(json.dumps(obj))
    args = [tmp_path / a if a in written else fixture_path(a) for a in argv[1:]]
    code, out, _ = run_cli(capsys, argv[0], *args)
    assert code == expected
    assert json.loads(out)


def test_simulate_exits_one_when_the_lss_trace_differs(capsys, monkeypatch):
    monkeypatch.setattr(cli, "simulate_lss", lambda sys, word: [])
    code, out, _ = run_cli(
        capsys, "simulate", fixture_path("example3.json"),
        fixture_path("example3_word.json"), "--compare-lss",
    )
    assert code == 1
    assert json.loads(out)["lss_agrees"] is False


def test_to_lss_and_iso_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "to-lss", fixture_path("example3.json"))
    assert code == 0
    lss_path = tmp_path / "sys.json"
    lss_path.write_text(out)
    code, out, _ = run_cli(capsys, "iso", lss_path, lss_path)
    assert code == 0
    assert json.loads(out)["kind"] == "unique-identity"


def test_param_analyze_reports_region(capsys):
    code, out, _ = run_cli(
        capsys, "param-analyze", fixture_path("example8_first_family.json")
    )
    assert code == 0
    report = json.loads(out)
    assert report["S"]
    assert "I_A" in report["intermediates"]


def test_param_analyze_rejects_mimo(capsys, tmp_path):
    from sarxid import MultiPoly, PolyParametrization

    vars = ("t",)
    t = MultiPoly.variable(vars, 0)
    par = PolyParametrization(
        vars=vars, ny=1, nu=1, p=2, m=1,
        modes={"1": tuple([t] * 6)},
    )
    path = tmp_path / "mimo.json"
    path.write_text(json.dumps(par.to_json_dict()))
    code, _, err = run_cli(capsys, "param-analyze", path)
    assert code == 2
    assert "SISO" in err


def test_coprimality_routes_reject_mimo(capsys, tmp_path):
    model = SarxModel(ny=1, nu=1, p=2, m=1, modes={"1": RatMatrix([[1, 0, 1], [0, 1, 1]])})
    path = tmp_path / "mimo.json"
    path.write_text(json.dumps(model.to_json_dict()))
    for argv in (("check-min", path, "--method", "theorem2"), ("check-sufficient", path)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "SISO" in err, argv


def test_param_generic_and_injective(capsys):
    code, out, _ = run_cli(capsys, "param-generic", fixture_path("engine_family.json"))
    assert code == 0
    assert json.loads(out)["witness"] is not None
    code, out, _ = run_cli(
        capsys, "param-injective", fixture_path("theta_squared_param.json")
    )
    assert code == 1
    assert json.loads(out)["kind"] == "collision"


def test_param_generic_gives_up_after_samples(capsys):
    # y_t = theta^2 y_(t-1) + u_(t-1) is never observable in its regressor
    # embedding (C A = theta^2 C), so every draw fails
    code, out, _ = run_cli(
        capsys, "param-generic", fixture_path("theta_squared_param.json"), "--samples", "3"
    )
    assert code == 1
    assert json.loads(out) == {"attempts": 3, "witness": None}


def test_param_injective_passes_trials(capsys, monkeypatch):
    seen = []

    def spy(par, **kwargs):
        seen.append(kwargs)
        return real(par, **kwargs)

    real = cli.injectivity_probe
    monkeypatch.setattr(cli, "injectivity_probe", spy)
    code, _, _ = run_cli(
        capsys, "param-injective", fixture_path("theta_squared_param.json"), "--trials", "7"
    )
    assert code == 1
    assert [kwargs["trials"] for kwargs in seen] == [7]


def test_every_cli_option_is_exercised():
    """Each option of each subcommand is named by some test or bench job."""
    root = Path(__file__).parent
    corpus = [p.read_text() for p in root.rglob("*.py")]
    corpus.append((root.parent / "bench" / "workloads.py").read_text())
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unreached = set()
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for opt in action.option_strings:
                pattern = re.compile(re.escape(opt) + r"(?![\w-])")
                if not any(pattern.search(text) for text in corpus):
                    unreached.add((name, opt))
    assert not unreached, sorted(unreached)


def test_main_builds_one_parser(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "check-min", fixture_path("example3.json"))[0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_env_seed_is_ignored(capsys, monkeypatch):
    """--seed is the one seed: SARX_SEED, valid or not, changes neither exit code nor output."""
    argv = ("param-generic", fixture_path("engine_family.json"))
    monkeypatch.delenv("SARX_SEED", raising=False)
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--seed", 3)[1] != plain[1]
    for value in ("3", "not-an-int"):
        monkeypatch.setenv("SARX_SEED", value)
        assert run_cli(capsys, *argv) == plain
