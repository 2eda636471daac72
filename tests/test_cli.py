import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import numerals
from numerals import cli
from numerals.cli import main
from numerals.dyadics import MAX_EXP, MAX_SCALE, Dyadic
from numerals.formulas import parse
from numerals.reals import MAX_STAGE_INDEX, RealSourceError

from test_builders import MALFORMED_IDS, MALFORMED_PARAMS

UPPER_THIRD = '(cinf (gen dyadic-upper-cut "1/3"))'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dyadic_exists(capsys):
    code, out, _ = run(capsys, "dyadic", "3/4", "exists")
    assert code == 0
    assert out.strip() == "(neg (half (half (neg (inf x0 (dist x0 x0))))))"


def test_dyadic_forall_zero(capsys):
    code, out, _ = run(capsys, "dyadic", "0", "forall")
    assert code == 0
    assert out.strip() == "(sup x0 (dist x0 x0))"


def test_dyadic_deep(capsys):
    code, out, _ = run(capsys, "dyadic", "1/2^600", "exists")
    assert code == 0
    assert out.strip() == \
        "(half " * 600 + "(neg (sup x0 (dist x0 x0)))" + ")" * 600


def test_dyadic_at_exponent_bound(capsys):
    code, out, _ = run(capsys, "dyadic", "1/2^%d" % MAX_EXP, "exists")
    assert code == 0
    assert out.strip() == \
        "(half " * MAX_EXP + "(neg (sup x0 (dist x0 x0)))" + ")" * MAX_EXP


@pytest.mark.parametrize("value, exp", [("1/2^1025", 1025), ("3/2^5000", 5000)])
def test_dyadic_exponent_bound(capsys, value, exp):
    # the numeral's memory grows with the square of its exponent: 1/2^4096
    # took 73 MB before the bound
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, out, err = run(capsys, "dyadic", value, "exists")
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: dyadic exponent %d is above %d\n" % (exp, MAX_EXP)
    assert seconds < 1 and peak < 1 << 20


def test_dyadic_rejects_non_dyadic(capsys):
    code, _, err = run(capsys, "dyadic", "5/3", "exists")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("dyadic", "1_1/2^4", "exists"),
    ("build", '(numeral right 1 (real builtin "\u0663/8"))'),
    ("verify", '(numeral right 1 (real builtin "1/3"))', "--depth", "\u0663"),
    ("eval", UPPER_THIRD, "--depth", "1_6"),
    ("verify", '(numeral right 1 (real builtin "1/3"))', "--seed", "\u0663"),
    ("verify", '(numeral right 1 (real builtin "1/3"))', "--seed", "1_0"),
])
def test_non_ascii_and_underscore_numbers_exit_2(capsys, argv):
    # int() and Fraction() alone read these as 11/16, 3/8, 3, 16, 3 and 10
    try:
        code = main(list(argv))
    except SystemExit as stop:  # argparse rejects an option's value
        code = stop.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_non_ascii_space_size(capsys, tmp_path):
    path = tmp_path / "sp.txt"
    path.write_text("name: pair\nsize: \u0662\ndist: 0 1/2 0\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "eval", "(sup x0 (sup x1 (dist x0 x1)))",
                       str(path))
    assert code == 2
    assert "size must be an integer" in err


@pytest.mark.parametrize("exp, status", [(1024, 0), (1025, 2),
                                         (99999999999, 2)])
def test_eval_space_entry_exponent_bound(capsys, tmp_path, exp, status):
    # one shared exponent would give every numerator that many bits
    path = tmp_path / "sp.txt"
    path.write_text("name: a\nsize: 2\ndist: 0 1/2^%d 0\n" % exp)
    code, out, err = run(capsys, "eval", "(sup x0 (sup x1 (dist x0 x1)))",
                         str(path), "--format", "structured")
    assert code == status
    if status:
        assert "exponent %d is above 1024" % exp in err
    else:
        assert out.strip() == "(enclosure %s %s)" % ((Dyadic(1, exp),) * 2)



@pytest.mark.parametrize("entry", ["1/2^-100000000", "1e-5000",
                                   "1e-99999999999"])
@pytest.mark.parametrize("command", ["dyadic", "eval"])
def test_exponent_bound_before_expansion(capsys, tmp_path, command, entry):
    # each would build 2^k or 10^k first: the first peaked at 41 MB and the
    # second ended in Python's text on its 4300-digit limit; the third needs
    # 10^(10^11)
    if command == "dyadic":
        argv = ("dyadic", entry, "exists")
    else:
        path = tmp_path / "sp.txt"
        path.write_text("name: a\nsize: 2\ndist: 0 %s 0\n" % entry)
        argv = ("eval", "(sup x0 (sup x1 (dist x0 x1)))", str(path))
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, _, err = run(capsys, *argv)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == "error: exponent of %r is above %d in size\n" % (
        entry, MAX_SCALE)
    assert seconds < 1 and peak < 1 << 20


DEMO_TEXT = """\
[PASS] 1 dyadic exactness: 2570 exact evaluations across 5 structures
[PASS] 2 structure independence: 20 numerals agree bitwise across 5 structures
[PASS] 3 sandwich convergence: certified width <= 2^-10: 1/3@1024, 2/7@1024, sqrt-half@1024
[FAIL] 4 staged extraction pipeline: right: approx(32,1024) = 255/512, distance 253/1536 from 1/3 exceeds 2^-8; left: approx(32,1024) = 257/512, distance 253/1536 from 2/3 exceeds 2^-8
[PASS] 5 classification mapping: all 10 recipes ranked Sigma/Pi at their level
[PASS] 6 monotone truncation: 20 numerals monotone over depths (16, 64, 256, 1024)
[PASS] 7 negative control: diameter sentence rejected, point vs pair-half differ by 1/2
"""

DEMO_STRUCTURED = """\
(criterion 1 pass "dyadic exactness" "2570 exact evaluations across 5 structures")
(criterion 2 pass "structure independence" "20 numerals agree bitwise across 5 structures")
(criterion 3 pass "sandwich convergence" "certified width <= 2^-10: 1/3@1024, 2/7@1024, sqrt-half@1024")
(criterion 4 fail "staged extraction pipeline" "right: approx(32,1024) = 255/512, distance 253/1536 from 1/3 exceeds 2^-8; left: approx(32,1024) = 257/512, distance 253/1536 from 2/3 exceeds 2^-8")
(criterion 5 pass "classification mapping" "all 10 recipes ranked Sigma/Pi at their level")
(criterion 6 pass "monotone truncation" "20 numerals monotone over depths (16, 64, 256, 1024)")
(criterion 7 pass "negative control" "diameter sentence rejected, point vs pair-half differ by 1/2")
"""


@pytest.mark.parametrize("argv, expected", [
    (("demo",), DEMO_TEXT),
    (("demo", "--format", "structured"), DEMO_STRUCTURED)],
    ids=["text", "structured"])
def test_demo_golden(capsys, argv, expected):
    # criterion 4 fails by design (see the README), so the demo exits 1
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (1, expected)

def test_build_prints_numeral(capsys):
    code, out, _ = run(capsys, "build", '(numeral right 1 (real builtin "1/3"))')
    assert code == 0
    assert out.strip() == UPPER_THIRD


def test_build_output_feeds_classify(capsys):
    _, out, _ = run(capsys, "build", '(numeral right 1 (real builtin "1/3"))')
    code, out2, _ = run(capsys, "classify", out.strip())
    assert code == 0
    assert out2.strip() == "Sigma 1"


def test_build_rejects_bad_side(capsys):
    code, _, err = run(capsys, "build", '(numeral up 1 (real builtin "1/3"))')
    assert code == 2
    assert "error:" in err


def test_classify_finitary(capsys):
    code, out, _ = run(capsys, "classify", "(inf x0 (dist x0 x0))")
    assert code == 0
    assert out.strip() == "Finitary"


def test_classify_structured(capsys):
    code, out, _ = run(capsys, "classify", UPPER_THIRD, "--format", "structured")
    assert code == 0
    assert out.strip() == '(rank "Sigma 1")'


def test_classify_split_tokens(capsys):
    code, out, _ = run(capsys, "classify", "(inf", "x0", "(dist", "x0", "x0))")
    assert code == 0
    assert out.strip() == "Finitary"


def test_classify_unknown_generator(capsys):
    code, _, err = run(capsys, "classify", '(cinf (gen mystery "1/3"))')
    assert code == 2
    assert "error:" in err


def test_eval_enclosure_structured(capsys):
    code, out, _ = run(capsys, "eval", UPPER_THIRD, "--depth", "64",
                       "--format", "structured")
    assert code == 0
    assert out.strip() == "(enclosure 0 11/32)"


def test_eval_enclosure_text(capsys):
    code, out, _ = run(capsys, "eval", UPPER_THIRD, "--depth", "64")
    assert code == 0
    assert out.strip() == "[0, 11/32] width 11/32"


def test_eval_deep_dyadic(capsys):
    # The parsed tree caches each node's code as it is made, so reading the
    # root's code does not recurse once per Half.
    _, code_text, _ = run(capsys, "dyadic", "1/2^600", "exists")
    code, out, _ = run(capsys, "eval", code_text.strip())
    d = Dyadic(1, 600)
    assert code == 0
    assert out.strip() == "[%s, %s] width 0" % (d, d)


def test_eval_with_structure_file(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("name: pair-half\nsize: 2\ndist: 0 1/2 0\n")
    code, out, _ = run(capsys, "eval", "(sup x0 (sup x1 (dist x0 x1)))",
                       str(path), "--format", "structured")
    assert code == 0
    assert out.strip() == "(enclosure 1/2 1/2)"


def test_eval_unbound_variable(capsys):
    code, _, err = run(capsys, "eval", "(dist x0 x1)")
    assert code == 2
    assert "unbound" in err


def test_eval_missing_file_is_part_of_code(capsys):
    code, _, err = run(capsys, "eval", "(dist x0 x1)", "nosuchfile.txt")
    assert code == 2  # joined into the code and rejected as syntax


STAGED = '(csup (gen staged-approx "(stage geometric-above \\"1/3\\" %s)"))'


def test_stage_index_bound(capsys):
    # each member of index n scans about sqrt(2n) rationals: at the default
    # depth, index 10^13 took 12 s and 10^14 57 s before the bound
    assert MAX_STAGE_INDEX == 10 ** 12
    phi = parse(STAGED % MAX_STAGE_INDEX)
    assert phi.family.params.index == MAX_STAGE_INDEX
    # an index past int()'s 4,300-digit limit is above the bound too, and
    # is named by its length instead of echoed
    for index, shown in ((MAX_STAGE_INDEX + 1, MAX_STAGE_INDEX + 1),
                         ("9" * 5000, "of 5000 digits")):
        started = time.perf_counter()
        code, out, err = run(capsys, "eval", STAGED % index)
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert err == "error: stage index %s is above %d\n" % (shown,
                                                              MAX_STAGE_INDEX)


def test_eval_successor_of_level_one_rejected(capsys):
    # a level-1 real has no child numerals to lift
    code, _, err = run(capsys, "eval",
                       '(cinf (gen successor-members '
                       '"(succ right 1 (real builtin \\"1/3\\"))"))')
    assert code == 2
    assert "nothing to lift at level 1" in err


@pytest.mark.parametrize("command", ["eval", "classify"])
@pytest.mark.parametrize("code, message", MALFORMED_PARAMS, ids=MALFORMED_IDS)
def test_malformed_params_exit_2(capsys, command, code, message):
    status, _, err = run(capsys, command, code)
    assert status == 2
    assert err == "error: %s\n" % message


def test_verify_passes_level_one(capsys):
    code, out, _ = run(capsys, "verify",
                       '(numeral right 1 (real builtin "1/3"))')
    assert code == 0
    assert "verdict: pass" in out
    assert "independence: pass" in out
    assert "structure point" in out
    assert "seeded6" in out


@pytest.mark.parametrize("seed", ["-5", "0"])
def test_verify_takes_signed_seeds(capsys, seed):
    code, out, _ = run(capsys, "verify",
                       '(numeral right 1 (real builtin "1/3"))',
                       "--depth", "64", "--seed", seed)
    assert code == 0
    assert "structure seeded6" in out


_STARTUP = ("numerals.engine", "numerals.cli", "numerals.acceptance",
            "numerals.reals", "dataclasses", "inspect")


@pytest.mark.parametrize("probe, absent", [
    ("import numerals.cli", ("dataclasses", "inspect", "numerals.acceptance",
                             "numerals.reals")),
    # the benchmark's setup probe: it builds and parses, and evaluates nothing
    ("from numerals import builders, formulas, spaces", _STARTUP),
    ("import numerals", _STARTUP + ("numerals.spaces",)),
], ids=["cli", "setup-probe", "bare"])
def test_cli_import_leaves_dataclasses_and_demo_out(probe, absent):
    # a fresh interpreter without site, so only numerals decides what loads
    src = os.path.dirname(os.path.dirname(numerals.__file__))
    check = "%s; import sys; print(*sorted(set(%r) & set(sys.modules)))" \
        % (probe, absent)
    done = subprocess.run([sys.executable, "-S", "-c", check],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


# Each command in turn in one fresh -S interpreter, printing after each
# whether numerals.reals is loaded yet
_REALS_PROBE = """
import sys
from numerals import cli
for argv in %r:
    cli.main(argv)
    print("numerals.reals" in sys.modules)
"""


def test_gen_free_commands_leave_reals_out():
    src = os.path.dirname(os.path.dirname(numerals.__file__))
    commands = [
        ["eval", "(sup x0 (dist x0 x0))"],
        ["eval", "(cinf (list (inf x0 (dist x0 x0))"
                 " (half (sup x0 (dist x0 x0)))))"],
        ["classify", "(csup (list (inf x0 (dist x0 x0))))"],
        ["classify", "--format", "structured", "(sup x0 (dist x0 x0))"],
        ["dyadic", "3/4", "exists"],
        ["eval", "--format", "structured",
         "(neg (half (half (neg (inf x0 (dist x0 x0))))))"],
        # a gen family reads its params through reals
        ["eval", UPPER_THIRD],
    ]
    probe = _REALS_PROBE % commands
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "[0, 0] width 0", "False",
        "[0, 0] width 0", "False",
        "Pi 1", "False",
        '(rank "Finitary")', "False",
        "(neg (half (half (neg (inf x0 (dist x0 x0))))))", "False",
        "(enclosure 3/4 3/4)", "False",
        "[0, 43/128] width 43/128", "True",
    ]
    assert done.stderr == ""


def test_real_source_error_exits_2(capsys, monkeypatch):
    def refuse(args):
        raise RealSourceError("no such real")
    monkeypatch.setitem(cli._COMMANDS, "build", refuse)
    code, out, err = run(capsys, "build",
                         '(numeral right 1 (real builtin "1/3"))')
    assert (code, out, err) == (2, "", "error: no such real\n")


def test_internal_error_exits_3(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli._COMMANDS, "build", boom)
    code, out, err = run(capsys, "build",
                         '(numeral right 1 (real builtin "1/3"))')
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


def test_verify_fails_tight_tolerance(capsys):
    code, out, _ = run(capsys, "verify",
                       '(numeral right 1 (real builtin "1/3"))',
                       "--depth", "16", "--tol", "10")
    assert code == 1
    assert "verdict: fail" in out
    assert "estimate within tolerance fail" in out


def test_verify_structured(capsys):
    code, out, _ = run(capsys, "verify",
                       '(numeral left 1 (real builtin "sqrt-half"))',
                       "--depth", "128", "--format", "structured")
    assert code == 0
    assert out.startswith("(report (independence pass")
    assert '(classification pass "Pi 1" "Pi 1")' in out


def test_verify_with_custom_suite(capsys, tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("name: solo\nsize: 1\ndist: 0\n")
    two = tmp_path / "two.txt"
    two.write_text("name: pair\nsize: 2\ndist: 0 1/2 0\n")
    code, out, _ = run(capsys, "verify",
                       '(numeral right 1 (real builtin "2/7"))',
                       "--suite", str(one), str(two), "--depth", "64")
    assert code == 0
    assert "structure solo" in out and "structure pair" in out


def test_verify_rejects_bad_recipe(capsys):
    code, _, err = run(capsys, "verify", "(numeral right 1)")
    assert code == 2
    assert "error:" in err


def test_repeat_runs_are_identical(capsys):
    args = ("verify", '(numeral right 1 (real builtin "1/3"))',
            "--depth", "64")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
