"""Exit codes and output contracts of the qbracket command."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qbracket import ctx_new
from qbracket.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_eval_witness_text(capsys):
    code, out, err = _run(capsys, "eval", "--p", "3", "--prec", "60",
                          "--x", "-1/2", "--q", "4")
    assert code == 0 and err == ""
    assert out.startswith("# p=3 e=1 K=60\n")
    m = re.search(r"v\(\[x\]_q - x\) >= (\d+)", out)
    assert m and int(m.group(1)) >= 56


def test_eval_witness_json_round_trips(capsys):
    code, out, _ = _run(capsys, "eval", "--p", "3", "--prec", "60",
                        "--x", "-1/2", "--q", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "eval"
    assert payload["gap_val"] is None and payload["gap_val_floor"] >= 56
    c = ctx_new(3, 1, 60)
    parsed = c.parse(payload["x"]["repr"])
    assert (parsed - c.from_rational(-1, 2)).is_zero


def test_eval_accepts_rendered_literals(capsys):
    _, out, _ = _run(capsys, "eval", "--p", "3", "--prec", "60",
                     "--x", "-1/2", "--q", "4", "--format", "json")
    x_repr = json.loads(out)["x"]["repr"]
    code, out2, err = _run(capsys, "eval", "--p", "3", "--prec", "60",
                           "--x", x_repr, "--q", "4")
    assert code == 0 and err == ""
    assert re.search(r"v\(\[x\]_q - x\) >= \d+", out2)


def test_fixed_points_empty_at_p2(capsys):
    code, out, err = _run(capsys, "fixed-points", "--p", "2", "--q", "5")
    assert code == 0 and err == ""
    assert "found = 0" in out and "predicted = 0" in out


def test_solve_q_reports_deficit(capsys):
    code, out, err = _run(capsys, "solve-q", "--p", "5", "--e", "3",
                          "--prec", "90", "--x", "5")
    assert code == 0 and err == ""
    assert "m0 = 1/3" in out
    assert "found = 1" in out and "deficit = 2" in out
    assert "residue_u = 2" in out


def test_exit_2_on_bad_literals(capsys):
    for argv in (
        ("eval", "--p", "3", "--x", "2/4", "--q", "4"),        # not reduced
        ("eval", "--p", "3", "--x", "1/3", "--q", "4"),        # p | denominator
        ("eval", "--p", "3", "--x", "abc", "--q", "4"),        # not a literal
        ("eval", "--p", "4", "--x", "1", "--q", "5"),          # composite p
        ("eval", "--p", "3", "--prec", "1", "--x", "1", "--q", "4"),
        ("eval", "--p", "1", "--x", "1", "--q", "4"),          # p below 2
        ("eval", "--p", "3", "--e", "0", "--x", "1", "--q", "4"),
        ("polygon", "--p", "3", "--series", "series1"),        # series1 without --q
        ("polygon", "--p", "5", "--e", "3", "--prec", "90", "--series", "series2",
         "--x", "5", "--m0", "2/6"),                           # --m0 not reduced
        ("verify", "--p", "13"),                               # override without --suite
        ("verify", "--p", "13", "--e", "4", "--prec", "9"),
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_exit_3_on_precondition_violations(capsys):
    for argv in (
        ("eval", "--p", "3", "--x", "1", "--q", "2"),          # q - 1 a unit
        ("solve-q", "--p", "5", "--x", "7"),                   # x outside phi1
        ("eval", "--p", "3", "--x", "p^-1*(1; prec=0)", "--q", "4"),  # v(x) < 0
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 3, argv
        assert err.startswith("precondition violated:"), argv


def test_exit_3_names_the_needed_ramification(capsys):
    for argv in (
        ("solve-q", "--p", "5", "--e", "2", "--x", "5"),
        # m0 = 1/6 is also below 1/(p-1); the missing ramification is named first
        ("polygon", "--p", "5", "--series", "series2", "--x", "5", "--m0", "1/6"),
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 3, argv
        assert "required_e = 6" in err, argv


def test_polygon_series2_counts_three(capsys):
    code, out, err = _run(capsys, "polygon", "--p", "5", "--e", "3",
                          "--prec", "90", "--series", "series2", "--x", "5")
    assert code == 0 and err == ""
    assert "zero_count = 3" in out


def test_polygon_series1_json(capsys):
    code, out, _ = _run(capsys, "polygon", "--p", "3", "--prec", "60",
                        "--series", "series1", "--q", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_count"] == 3
    segments = payload["polygon"]["segments"]
    assert segments[0] == ["-inf", 1]     # exact root at the center
    assert ["0/1", 2] in segments         # the two remaining disk roots


def test_verify_single_suite(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "legendre")
    assert code == 0 and err == ""
    assert "verify: PASS (1/1 suites)" in out


def test_verify_single_suite_json(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "legendre",
                        "--seed", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["suites"][0]["suite"] == "legendre"
    assert payload["suites"][0]["seed"] == 3


@pytest.mark.parametrize("argv", [
    ("eval", "--p", "3", "--prec", "60", "--x", "-1/2", "--q", "4"),
    ("fixed-points", "--p", "3", "--q", "4"),
    ("solve-q", "--p", "5", "--e", "3", "--prec", "90", "--x", "5"),
    ("polygon", "--p", "3", "--prec", "60", "--series", "series1", "--q", "4"),
])
def test_only_verify_takes_a_seed(capsys, argv):
    # the other commands draw nothing at random, so they refuse a seed
    # rather than echo one
    with pytest.raises(SystemExit) as ex:
        main([argv[0], "--help"])
    assert ex.value.code == 0 and "--seed" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as ex:
        main([*argv, "--seed", "0"])
    assert ex.value.code == 2
    err = capsys.readouterr().err  # the subcommand's usage, which names its flags
    assert err.startswith(f"usage: qbracket {argv[0]} [-h] --p P")
    assert f"qbracket {argv[0]}: error: unrecognized arguments: --seed 0" in err
    with pytest.raises(SystemExit) as ex:
        main(["verify", "--help"])
    assert ex.value.code == 0 and "--seed" in capsys.readouterr().out


def test_verify_forwards_overrides(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "prop1", "--p", "13",
                        "--prec", "40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suites"][0]["params"]["legs"] == [[13, 1, 40]]


def test_verify_refuses_an_override_the_suite_does_not_apply(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "prop3", "--e", "5")
    assert code == 3 and out == ""
    assert err == "precondition violated: suite prop3 applies no e override (it takes p)\n"


@pytest.mark.parametrize("suite, p", [("legendre", "0"), ("legendre", "4"), ("prop1", "4"),
                                      ("prop1", "0"), ("cocycle", "0")])
def test_verify_refuses_a_non_prime_p(capsys, suite, p):
    code, out, err = _run(capsys, "verify", "--suite", suite, "--p", p)
    assert (code, out, err) == (2, "", f"error: p must be prime, got {p}\n")


@pytest.mark.parametrize("suite, flag, err", [
    ("cocycle", "--e", "ramification index must be >= 1, got 0"),
    ("prop7", "--prec", "precision K=0 too small, need at least 2*e=2"),
])
def test_verify_refuses_a_zero_e_or_prec(capsys, suite, flag, err):
    code, out, got = _run(capsys, "verify", "--suite", suite, flag, "0")
    assert (code, out, got) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("suite, prec, margin", [("prop2", "8", 8), ("prop5", "60", 40),
                                                 ("prop9", "12", 10)])
def test_verify_refuses_a_prec_below_the_agreement_margin(capsys, suite, prec, margin):
    # verify --suite prop2 --prec 8 used to PASS, its round trip compared at K - 8 = 0
    code, out, err = _run(capsys, "verify", "--suite", suite, "--prec", prec)
    assert (code, out) == (2, "")
    assert err == (f"error: K={prec} is too small for the agreement check at K - {margin}; "
                   f"need K >= {2 * margin}\n")


def test_verify_refuses_p_1_without_hanging():
    # digit_sum at p = 1 used to loop forever; a child process with a
    # timeout turns a returning hang into a failure instead of a stall
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "qbracket", "verify", "--suite", "legendre",
                           "--p", "1"], capture_output=True, text=True, timeout=60, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: p must be prime, got 1\n")


@pytest.mark.parametrize("argv, code, err", [
    (("eval", "--p", "3", "--x", "2", "--q", "2"), 3,
     "q_bracket needs v(q-1) > 1/(p-1)"),
    (("fixed-points", "--p", "3", "--q", "1"), 3,
     "q = 1 fixes everything; the fiber is not discrete"),
    (("fixed-points", "--p", "3", "--q", "2"), 3,
     "fixed_points_for_q needs v(q-1) > 1/(p-1)"),
    (("polygon", "--p", "3", "--series", "series1", "--q", "1"), 3,
     "series1 is undefined at q = 1"),
    (("polygon", "--p", "3", "--series", "series1", "--q", "2"), 3,
     "series1 needs v(q-1) > 1/(p-1)"),
    (("eval", "--p", "3", "--x", "2", "--q", "1"), 0, None),
])
def test_q_domain_exit_codes_and_messages(capsys, argv, code, err):
    got, _, stderr = _run(capsys, *argv)
    assert got == code
    assert stderr == ("" if err is None else f"precondition violated: {err}\n")


# main([...]) for each argv in a fresh process, twice over, as JSON rows of
# (argv, exit code, stdout, stderr); a usage error's SystemExit gives its code
_REUSE_SCRIPT = """
import contextlib, io, json, sys
from qbracket.cli import main
rows = []
for argv in json.loads(sys.argv[1]) * 2:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    rows.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(rows))
"""


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds its parser once per process; the seed error path runs
    # first, then each README command in text and json, and every later call
    # in that process prints what its first call printed, as do this
    # process's calls; build_parser itself still gives a fresh tree
    assert build_parser() is not build_parser()
    root = Path(__file__).resolve().parent.parent
    with pytest.MonkeyPatch.context() as mp:  # the benchmark's copy of the README commands
        mp.syspath_prepend(str(root / "perfbench"))
        readme = importlib.import_module("workloads").README_COMMANDS
    calls = [["eval", "--p", "3", "--prec", "60", "--x", "-1/2", "--q", "4", "--seed", "1"]]
    calls += [argv + fmt for _, argv in readme for fmt in ([], ["--format", "json"])]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _REUSE_SCRIPT, json.dumps(calls)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert rows[len(calls):] == rows[:len(calls)]
    _, code, out, err = rows[0]
    assert (code, out) == (2, "")
    assert err.startswith("usage: qbracket eval [-h] --p P")
    assert err.endswith("qbracket eval: error: unrecognized arguments: --seed 1\n")
    assert all(code == 0 and out and err == "" for _, code, out, err in rows[1:len(calls)])
    for argv, code, out, err in rows[:len(calls)]:
        try:
            got = main(argv)
        except SystemExit as ex:
            got = ex.code
        assert [got, *capsys.readouterr()] == [code, out, err], argv
