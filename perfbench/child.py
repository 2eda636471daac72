"""One benchmark operation sequence in a fresh process.

    python3 perfbench/child.py setup KIND TEXT
    python3 perfbench/child.py corpus [--trace PATH]
    python3 perfbench/child.py verify RECIPE DEPTH [--trace PATH]
    python3 perfbench/child.py random-eval ITEMS_JSON [--trace PATH]

`numerals` must be importable (run.py puts the checkout's `src` on
PYTHONPATH). Results go to standard output as one JSON line, except for
`verify`, which prints exactly what `numerals verify` prints and exits with
its code; run.py uses it only for traced ladder cells. With --trace, the
wrappers of tracing.py are installed after the imports and the span
summary is written to PATH (raw spans to PATH.spans).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _modules():
    import numerals
    from numerals import (acceptance, builders, cli, engine, formulas, reals,
                          sexpr, spaces)
    return {"numerals": numerals, "acceptance": acceptance,
            "builders": builders, "cli": cli, "engine": engine,
            "formulas": formulas, "reals": reals, "sexpr": sexpr,
            "spaces": spaces}


def _tracer(args):
    if "--trace" not in args:
        return None, None
    import tracing
    path = args[args.index("--trace") + 1]
    tracer = tracing.Tracer()
    tracer.install(_modules())
    return tracer, path


def _finish_trace(tracer, path, wall_s):
    if tracer is None:
        return
    tracer.uninstall()
    summary = tracer.summary()
    summary["wall_s"] = wall_s
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.write_spans(path + ".spans")


def setup(kind, text):
    """Import numerals, build the builtin suite and parse the first input.
    Then time the calibration: the benchmark's own reference evaluator on
    a fixed input, which no change to numerals can speed up."""
    from numerals import builders, formulas, spaces
    spaces.builtin_suite()
    if kind == "recipe":
        builders.parse_recipe(text)
    else:
        formulas.parse(text)
    setup_s = time.perf_counter() - _T0
    import randomeval
    started = time.perf_counter()
    randomeval.items(0, 4)
    print(json.dumps({"setup_s": setup_s,
                      "calibration_s": time.perf_counter() - started}))
    return 0


def corpus(args):
    """acceptance.run_all(Engine()), as `numerals demo` runs it."""
    mods = _modules()
    import oracle
    checker = oracle.CorpusBoundChecker(mods)
    tracer, path = _tracer(args)
    checker.install()
    engine = mods["engine"].Engine()
    started = time.perf_counter()
    results = mods["acceptance"].run_all(engine)
    wall_s = time.perf_counter() - started
    checker.uninstall()
    _finish_trace(tracer, path, wall_s)
    print(json.dumps({
        "wall_s": wall_s,
        "lines": [res.line() for res in results],
        "seconds": [res.seconds for res in results],
        "bounds_checked": checker.checked,
        "unsound": checker.unsound,
    }))
    return 0


def verify(args):
    """`numerals verify RECIPE --depth DEPTH`, run through cli.main as
    `python3 -m numerals` runs it."""
    recipe, depth = args[0], args[1]
    mods = _modules()
    tracer, path = _tracer(args)
    started = time.perf_counter()
    code = mods["cli"].main(["verify", recipe, "--depth", depth])
    wall_s = time.perf_counter() - started
    sys.stdout.flush()
    _finish_trace(tracer, path, wall_s)
    return code


def random_eval(args):
    """Run a random-eval item stream through one long-lived Engine."""
    with open(args[0], encoding="utf-8") as fh:
        items = json.load(fh)
    mods = _modules()
    formulas, spaces, engine_mod = (mods["formulas"], mods["spaces"],
                                    mods["engine"])
    uniform = engine_mod.TruncationSchedule.uniform
    tracer, path = _tracer(args)
    engine = engine_mod.Engine()
    outputs, seconds = [], []
    clock = time.perf_counter
    started = clock()
    for item in items:
        t = clock()
        item_spaces = [spaces.load_space(text) for text in item["spaces"]]
        parsed = [(formulas.parse(f["code"]), f["depths"])
                  for f in item["formulas"]]
        values = []
        for space in item_spaces:
            for phi, depths in parsed:
                if depths is None:
                    values.append(engine.eval_exact(phi, space))
                    continue
                for depth in depths:
                    sched = uniform(depth)
                    values.append(engine.eval_enclosure(phi, space, sched))
                    values.append(engine.truncation_value(phi, space, sched))
        seconds.append(clock() - t)
        outputs.append(values)
    wall_s = clock() - started
    _finish_trace(tracer, path, wall_s)
    print(json.dumps({
        "wall_s": wall_s,
        "seconds": seconds,
        "atomic_evals": engine.atomic_evals,
        "values": [[str(v) if not hasattr(v, "lo") else "%s %s" % (v.lo, v.hi)
                    for v in values] for values in outputs],
    }))
    return 0


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        return setup(args[0], args[1])
    if mode == "corpus":
        return corpus(args)
    if mode == "verify":
        return verify(args)
    if mode == "random-eval":
        return random_eval(args)
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
