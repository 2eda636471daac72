"""Freeze golden outputs from the program in this checkout.

    python3 perfbench/freeze.py

Writes goldens/corpus.json (the seven criterion lines) and
goldens/ladder.json (exit code and output of every ladder cell that
finishes within LIMIT_S, including cells past the benchmark's own time
limit). random-eval needs no file: the reference evaluator checks every
value exactly. Goldens are frozen once, from the program the benchmark was
defined on; a later change must reproduce them, not refreeze them.
Every frozen output must first pass the oracle checks.
"""

import json
import os
import sys

import run

LIMIT_S = 120.0


def dump(name, data):
    with open(os.path.join(run.HERE, "goldens", name), "w",
              encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    os.makedirs(run.OUT, exist_ok=True)
    spec = run.load_json("spec.json")
    res, _ = run.child_json([run.CHILD, "corpus"])
    problems = run.oracle.corpus_check(res["lines"]) + res["unsound"]
    if problems:
        sys.exit("corpus output fails its oracle: %s" % problems)
    dump("corpus.json", {"lines": res["lines"]})
    golden = {}
    for row in spec["ladder"]["rows"]:
        for depth in row["depths"]:
            for recipe in row["recipes"]:
                code, out, err, seconds, _ = run.run_child(
                    ["-m", "numerals", "verify", recipe, "--depth",
                     str(depth)], LIMIT_S)
                run.log("%s @ %d: %s in %.2f s" % (recipe, depth, code,
                                                   seconds))
                if code is None:
                    continue
                problems = run.oracle.ladder_check(recipe, code, out)
                if problems:
                    sys.exit("%s @ %d fails its oracle: %s"
                             % (recipe, depth, problems))
                golden["%s @ %d" % (recipe, depth)] = {
                    "exit": code, "stdout": out, "seconds": seconds}
    dump("ladder.json", golden)


if __name__ == "__main__":
    main()
