"""Self-tests of the benchmark's oracles, generator and tracing.

    python3 -m pytest perfbench -q        (from the checkout root)
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import oracle
import randomeval
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
W_RECIPE = '(numeral right w (real leveled right w (members constant "1/2")))'
PAIR_HALF = [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]


def _run(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_reference_diameter_sentence():
    tree = oracle.read("(sup x0 (sup x1 (dist x0 x1)))")
    assert oracle.evaluate(tree, PAIR_HALF) == Fraction(1, 2)
    assert oracle.evaluate(tree, [[Fraction(0)]]) == 0


def test_reference_dyadic_numeral_three_quarters():
    out = _run(["-m", "numerals", "dyadic", "3/4", "exists"])
    assert out.returncode == 0
    tree = oracle.read(out.stdout.strip())
    line = [[abs(Fraction(a - b, 8)) for b in range(5)] for a in range(5)]
    for dist in ([[Fraction(0)]], PAIR_HALF, line):
        assert oracle.evaluate(tree, dist) == Fraction(3, 4)


def test_reference_families_and_truncation():
    tree = oracle.read("(neg (cinf (list (sup x0 (sup x1 (dist x0 x1))) "
                       "(inf x0 (dist x0 x0)))))")
    assert oracle.evaluate(tree, PAIR_HALF) == 1
    assert oracle.evaluate(tree, PAIR_HALF, truncate=1) == Fraction(1, 2)
    assert oracle.enclosure(tree, PAIR_HALF, 1) == (Fraction(1, 2), 1)


def test_soundness_rejects_wrong_bounds():
    assert oracle.sound(Fraction(1, 3), "0", "11/32")
    assert not oracle.sound(Fraction(1, 3), "0", "5/16")
    assert not oracle.sound(Fraction(1, 3), "3/8", "1")
    # 181/256 < sqrt(1/2) < 182/256
    assert oracle.sound(oracle.SQRT_HALF, "181/256", "182/256")
    assert not oracle.sound(oracle.SQRT_HALF, "0", "181/256")
    assert not oracle.sound(oracle.SQRT_HALF, "182/256", "1")
    stdout = ("structure point      [0, 5/16] width 5/16\n"
              "verdict: pass\n")
    problems = oracle.ladder_check('(numeral right 1 (real builtin "1/3"))',
                                   0, stdout)
    assert problems == ["unsound bound [0, 5/16]"]


def test_corpus_check_requires_criterion_4_values():
    lines = ["[PASS] %d x: y" % i for i in range(1, 8)]
    lines[3] = "[FAIL] 4 staged: approx(32,1024) = 255/512 and 257/512"
    assert oracle.corpus_check(lines) == []
    lines[3] = "[FAIL] 4 staged: approx(32,1024) = 1/2"
    assert oracle.corpus_check(lines)


def test_random_eval_stream_is_seeded():
    a = randomeval.items(5, 6)
    assert a == randomeval.items(5, 6)
    assert a != randomeval.items(6, 6)
    for item in a:
        sizes = [int(text.split()[3]) for text in item["spaces"]]
        assert sizes == list(randomeval.SIZES)
        for form in item["formulas"]:
            tree = oracle.read(form["code"])
            assert randomeval.code(tree) == form["code"]
            assert not randomeval._free(tree)
            assert randomeval._nesting(tree) <= 3
    trees = [[oracle.read(f["code"]) for f in item["formulas"]]
             for item in a]
    total = sum(randomeval.keys(t) for t in trees)
    assert abs(total - 6 * randomeval.ITEM_KEYS) <= randomeval.ITEM_KEYS / 2


def test_evaluation_keys_by_hand():
    # the sentence, then x1's body with x0 bound, then dist with both bound
    tree = oracle.read("(sup x0 (sup x1 (dist x0 x1)))")
    assert randomeval.keys([tree]) == sum(1 + n + n * n
                                          for n in randomeval.SIZES)


def test_tracer_restores_every_attribute():
    sys.path.insert(0, SRC)
    try:
        import child
        mods = child._modules()
    finally:
        sys.path.remove(SRC)
    before = {(name, attr): value for name, mod in mods.items()
              for attr, value in vars(mod).items()}
    classes = [(mods["engine"].Engine, m) for m in (
        "eval_exact", "eval_enclosure", "truncation_value", "verify_recipe")]
    classes += [(mods["reals"].CutEnumerator, "hit")]
    methods = {key: vars(key[0])[key[1]] for key in classes}
    gens = {g: mods["formulas"].get_generator(g) for g in tracing.GENERATORS}
    tracer = tracing.Tracer()
    tracer.install(mods)
    assert mods["engine"].classify is not before[("formulas", "classify")]
    assert mods["formulas"].get_generator("limit-members") is not \
        gens["limit-members"]
    tracer.uninstall()
    after = {(name, attr): value for name, mod in mods.items()
             for attr, value in vars(mod).items()}
    assert all(after[key] is value for key, value in before.items())
    assert all(vars(c)[m] is f for (c, m), f in methods.items())
    assert all(mods["formulas"].get_generator(g) is gen
               for g, gen in gens.items())


def test_traced_cell_matches_untraced_and_repeats(tmp_path):
    plain = _run(["-m", "numerals", "verify", W_RECIPE, "--depth", "4"])
    summaries = []
    for k in range(2):
        path = str(tmp_path / ("trace%d.json" % k))
        traced = _run([os.path.join(HERE, "child.py"), "verify", W_RECIPE,
                       "4", "--trace", path])
        assert (traced.returncode, traced.stdout) == \
            (plain.returncode, plain.stdout)
        with open(path, encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    counts = [({n: a["calls"] for n, a in s["spans"].items()},
               s["distinct"], s["maxima"], s["atomic_evals"])
              for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0][0]["builders.member.successor-members"] > 0
