"""The numerals benchmark.

    python3 perfbench/run.py --workload {corpus,ladder,random-eval} \
        --seed N --seconds S --trace {0,1} [--record PATH]

Run from the root of a numerals checkout; the package is taken from its
`src` directory. Every operation runs in a child process, one at a time, as
a closed loop from a single client. The workload's fixed operation
sequence (a pass) is repeated about --seconds long, and each operation is
timed by the median of its repetitions (see untraced()). With
--trace 1 the run makes one untraced pass and one traced pass of the same
operations and reports the per-layer metrics instead.

Every output is checked: against goldens frozen from the seed program
(goldens/), against the hand-written reals of oracle.py and, for
random-eval, against a reference evaluator over Fractions. The last line
of standard output is the JSON result; progress goes to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import randomeval  # noqa: E402

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("corpus", "ladder", "random-eval")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, limit=None):
    """(exit code, stdout, stderr, seconds, peak RSS in MB) of one child
    process. A child still running after `limit` seconds is killed and
    gives (None, stdout, stderr, limit, None)."""
    with tempfile.TemporaryFile("w+", dir=OUT) as out, \
            tempfile.TemporaryFile("w+", dir=OUT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err)
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(limit, kill) if limit else None
        if timer:
            timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - started
        if timer:
            timer.cancel()
        out.seek(0)
        err.seek(0)
        if killed and proc.returncode == -signal.SIGKILL:
            return None, out.read(), err.read(), limit, None
        return (proc.returncode, out.read(), err.read(), seconds,
                usage.ru_maxrss / 1024.0)


def child_json(argv):
    """The JSON line a child.py mode prints, and the child's peak RSS."""
    code, out, err, seconds, rss_mb = run_child(argv)
    if code != 0:
        raise RuntimeError("child %s failed (%s): %s" % (argv[:2], code,
                                                         err.strip()[-2000:]))
    return json.loads(out.strip().splitlines()[-1]), rss_mb


class Op:
    """One operation's outcome: latency and the problems found with it."""

    def __init__(self, name, seconds, problems=(), rss_mb=None):
        self.name = name
        self.seconds = seconds
        self.problems = list(problems)
        self.rss_mb = rss_mb  # peak RSS of the process that ran it

    @property
    def ok(self):
        return not self.problems


# ------------------------------------------------------------- workloads


class Corpus:
    def __init__(self, spec, seed):
        self.golden = load_json("goldens/corpus.json")
        self.first_input = ("recipe", spec["corpus"]["first_input"])
        self.budget_overruns = 0

    def run_pass(self, trace_path=None, between=None):
        argv = [CHILD, "corpus"] + (["--trace", trace_path]
                                    if trace_path else [])
        res, rss_mb = child_json(argv)
        unsound = {}
        for index, problem in res["unsound"]:
            unsound.setdefault(index, []).append("unsound bound " + problem)
        expected = oracle.corpus_check(res["lines"])
        ops = []
        for i, (line, seconds) in enumerate(zip(res["lines"],
                                                res["seconds"]), 1):
            problems = unsound.get(i, []) + [
                p for p in expected if p.startswith("criterion %d" % i)]
            want = self.golden["lines"][i - 1]
            if trace_path and line != want and _budget_only(line, want):
                # a budget FAIL that only tracing causes is overhead
                self.budget_overruns += 1
                problems = [p for p in problems if "exceeded" not in p
                            and not p.startswith("criterion %d:" % i)]
            elif line != want:
                problems.append("golden mismatch: %s" % line)
            ops.append(Op("criterion %d" % i, seconds, problems, rss_mb))
        if len(res["lines"]) != 7 or res["bounds_checked"] == 0:
            ops.append(Op("corpus", res["wall_s"],
                          ["no bounds checked or wrong line count"]))
        return ops, res["wall_s"]


def _budget_only(line, golden):
    """line is golden turned FAIL by an exceeded criterion budget."""
    if not line.startswith("[FAIL]") or "(exceeded " not in line:
        return False
    stripped = "[PASS]" + line[len("[FAIL]"):line.rindex(" (exceeded ")]
    return stripped == golden


class Ladder:
    """Rows of `numerals verify` cells. A pass runs every row once, up to
    its first timeout, then runs the decided cells `rounds - 1` more times,
    so that each cell's latency is sampled at several moments."""

    def __init__(self, spec, seed):
        ladder = spec["ladder"]
        self.limit = ladder["limit_s"]
        self.traced_limit = ladder["traced_limit_s"]
        self.rounds = ladder["rounds"]
        self.rows = ladder["rows"]
        self.golden = load_json("goldens/ladder.json")
        self.first_input = ("recipe", self.rows[0]["recipes"][0])
        self.decided = None  # cells decided by the last untraced pass

    def cells(self, row):
        for depth in row["depths"]:
            for recipe in row["recipes"]:
                yield recipe, depth

    def _run(self, recipe, depth, limit, trace_path=None):
        if trace_path:
            argv = [CHILD, "verify", recipe, str(depth), "--trace", trace_path]
        else:
            argv = ["-m", "numerals", "verify", recipe, "--depth", str(depth)]
        code, out, err, seconds, rss_mb = run_child(argv, limit)
        name = "%s @ %d" % (recipe, depth)
        if code is None:
            return Op(name, seconds, ["timeout"])
        problems = oracle.ladder_check(recipe, code, out)
        want = self.golden.get(name)
        if want is not None and (want["exit"], want["stdout"]) != (code, out):
            problems.append("golden mismatch")
        return Op(name, seconds, problems, rss_mb)

    def run_pass(self, trace_path=None, between=None):
        ops = []
        if trace_path is None:
            self.decided = []
            for row in self.rows:
                for recipe, depth in self.cells(row):
                    ops.append(self._run(recipe, depth, self.limit))
                    if between:
                        between()
                    if ops[-1].problems == ["timeout"]:
                        break
                    self.decided.append((recipe, depth))
            for _ in range(self.rounds - 1):
                for recipe, depth in self.decided:
                    ops.append(self._run(recipe, depth, self.limit))
                    if between:
                        between()
            return ops, sum(op.seconds for op in ops)
        # traced: each decided cell once, one trace file each
        self.cell_traces = []
        for k, (recipe, depth) in enumerate(self.decided):
            path = "%s.%d" % (trace_path, k)
            op = self._run(recipe, depth, self.traced_limit, path)
            if op.problems == ["timeout"]:
                op.problems = ["timeout under tracing"]
            else:
                self.cell_traces.append((op.name, path))
            ops.append(op)
        return ops, sum(op.seconds for op in ops
                        if op.problems != ["timeout under tracing"])


class RandomEval:
    """Its golden is the reference evaluator: randomeval.check requires
    every value to equal the reference value exactly."""

    def __init__(self, spec, seed):
        count = spec["random_eval"]["items_per_pass"]
        self.items = randomeval.items(seed, count)
        self.first_input = ("formula", self.items[0]["formulas"][0]["code"])
        self.path = os.path.join(OUT, "random-eval-items.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump([{"spaces": it["spaces"], "formulas": it["formulas"]}
                       for it in self.items], fh)

    def run_pass(self, trace_path=None, between=None):
        argv = [CHILD, "random-eval", self.path] + (
            ["--trace", trace_path] if trace_path else [])
        res, rss_mb = child_json(argv)
        ops = []
        for k, (item, values, seconds) in enumerate(
                zip(self.items, res["values"], res["seconds"])):
            ops.append(Op("item %d" % k, seconds,
                          randomeval.check(item, values), rss_mb))
        if len(res["values"]) != len(self.items):
            ops.append(Op("stream", res["wall_s"], ["missing items"]))
        return ops, res["wall_s"]


# --------------------------------------------------------------- metrics


class SetupProbes:
    """Fresh processes that import numerals, build the builtin suite and
    parse the workload's first input, timed from inside; each then times
    the calibration (child.setup).

    The machine's speed drifts over seconds, so probes are spread over the
    run: gap() runs one probe per `interval` elapsed since the last gap,
    finish() tops them up to `count` and returns the medians."""

    def __init__(self, workload, count, seconds):
        self.argv = [CHILD, "setup"] + list(workload.first_input)
        self.count = count
        self.interval = seconds / count
        self.times = []
        self.calibrations = []
        self.last = time.perf_counter()

    def _probe(self):
        res = child_json(self.argv)[0]
        self.times.append(res["setup_s"])
        self.calibrations.append(res["calibration_s"])

    def gap(self):
        now = time.perf_counter()
        due = min(int((now - self.last) / self.interval),
                  self.count - len(self.times))
        if not self.times:
            due = max(due, 1)
        for _ in range(due):
            self._probe()
        if due:
            self.last = now

    def finish(self):
        """(median setup time, median calibration time)."""
        while len(self.times) < self.count:
            self._probe()
        return (statistics.median(self.times),
                statistics.median(self.calibrations))


def tail(latencies):
    """(percentile, value): the highest percentile with >= 10 samples
    beyond it, or None below 20 samples."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    pct = int(100 * (n - 10) / n)
    return pct, ordered[min(n - 1, int(n * pct / 100))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, name, seconds, spec):
    """Repeat passes for about `seconds`; time every operation by the
    median of its repetitions in the run, at the calibration speed.

    The host's speed swings by up to 40% over a few seconds and by up to
    2x over minutes, both ways. The median repetition damps the first:
    over six runs of one random-eval seed, the sum of the fastest item
    times spread 0.24 (quartile distance over median), the sum of the
    median item times 0.08. For the second, every measured time is scaled
    by spec calibration_s over the median calibration time of the setup
    probes, which are spread over the run; a timeout counts its limit
    unscaled. wall_s sums the scaled medians over the fixed operation
    sequence, setup_s is the scaled median of the setup probes."""
    probes = SetupProbes(workload, spec["setup_probes"], seconds)
    probes.gap()
    # A fixed number of passes for a given --seconds, so that every
    # program is measured over the same operations: a count that followed
    # the speed of the code or of the host would widen the spread it is
    # meant to narrow.
    count = max(1, int(seconds // spec["pass_seconds"][name]))
    done = []
    for k in range(count):
        ops, wall = workload.run_pass(between=probes.gap)
        probes.gap()
        log("pass %d/%d: %d ops, wall %.3f s" % (k + 1, count, len(ops), wall))
        done += ops
    setup_s, calibration_s = probes.finish()
    speed = spec["calibration_s"] / calibration_s
    samples = {}
    for op in done:
        samples.setdefault(op.name, []).append(
            op.seconds if op.problems == ["timeout"] else op.seconds * speed)
    failed = [op for op in done if not op.ok]
    for op in failed[:20]:
        log("FAILED %s: %s" % (op.name, "; ".join(op.problems)[:500]))
    latencies = [statistics.median(s) for s in samples.values()]
    # Per-operation latency is reported here, not as a metric: the median
    # of a corpus pass's 7 criteria is too unsteady on a noisy host.
    t = tail(latencies)
    log("passes %d, operations run %d, call_p50 %.1f ms over %d operations%s"
        % (count, len(done), statistics.median(latencies) * 1e3,
           len(latencies),
           ", p%d %.1f ms (n=%d)" % (t[0], t[1] * 1e3, len(latencies)) if t
           else ", tail omitted (fewer than 20 operations)"))
    log("calibration %.4f s, times scaled by %.3f; setup_s unscaled %.4f"
        % (calibration_s, speed, setup_s))
    # A killed ladder cell has no peak RSS: its memory grows with how far
    # it got before the limit, so it would measure speed, not memory.
    metrics = {
        "wall_s": metric(sum(latencies), "s"),
        "decided_share": metric((len(done) - len(failed)) / len(done),
                                "share"),
        "peak_rss_mb": metric(max(op.rss_mb for op in done
                                  if op.rss_mb is not None), "MB"),
        "setup_s": metric(setup_s * speed, "s"),
    }
    return done, failed, metrics


def _merge(paths):
    """Sum span summaries of several traced processes."""
    total = {"spans": {}, "distinct": {}, "maxima": {}, "atomic_evals": 0,
             "wall_s": 0.0, "recorded_spans": 0, "dropped_spans": 0}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            s = json.load(fh)
        for name, agg in s["spans"].items():
            into = total["spans"].setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for name, count in s["distinct"].items():
            total["distinct"][name] = total["distinct"].get(name, 0) + count
        for name, value in s["maxima"].items():
            total["maxima"][name] = max(total["maxima"].get(name, 0), value)
        for key in ("atomic_evals", "wall_s", "recorded_spans",
                    "dropped_spans"):
            total[key] += s[key]
    return total


def layer_metrics(s):
    spans = s["spans"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    gens = ("dyadic-upper-cut", "dyadic-lower-cut", "staged-approx",
            "successor-members", "limit-members")
    members = ["builders.member.%s" % g for g in gens]
    extraction = ("reals.SequenceExtraction.s_approx",
                  "reals.SequenceExtraction.r_approx")
    engine = [n for n in spans if n.startswith("engine.")]
    harness = ["engine.Engine.%s" % m for m in (
        "verify_recipe", "independence_check", "convergence_report",
        "sandwich")]
    criteria = ["acceptance.criterion_%d" % i for i in range(1, 8)]
    out = {}
    for g, name in zip(gens, members):
        out["builders.members.%s" % g] = (calls(name), "count")
    out.update({
        "builders.member_distinct_ratio": (ratio(
            sum(s["distinct"].get(n, 0) for n in members), calls(*members)),
            "ratio"),
        "builders.member_s": (self_s(*members), "s"),
        "builders.build_s": (self_s("builders.build_numeral"), "s"),
        "builders.dyadic_numeral_calls": (calls("builders.dyadic_numeral"),
                                          "count"),
        "builders.dyadic_numeral_distinct_ratio": (ratio(
            s["distinct"].get("builders.dyadic_numeral", 0),
            calls("builders.dyadic_numeral")), "ratio"),
        "builders.dyadic_numeral_s": (self_s("builders.dyadic_numeral"), "s"),
        "reals.extraction_calls": (calls(*extraction), "count"),
        "reals.extraction_s": (self_s(*extraction), "s"),
        "reals.extraction_max_stage": (
            s["maxima"].get("reals.extraction_max_stage", 0), "count"),
        "reals.cut_hit_calls": (calls("reals.CutEnumerator.hit"), "count"),
        "reals.cut_hit_s": (self_s("reals.CutEnumerator.hit"), "s"),
        "reals.cut_max_k": (s["maxima"].get("reals.cut_max_k", 0), "count"),
        "formulas.classify_calls": (calls("formulas.classify"), "count"),
        "formulas.classify_s": (self_s("formulas.classify"), "s"),
        "formulas.free_vars_calls": (calls("formulas.free_vars"), "count"),
        "formulas.free_vars_s": (self_s("formulas.free_vars"), "s"),
        "formulas.parse_s": (self_s("formulas.parse"), "s"),
        "sexpr.read_calls": (calls("sexpr.read"), "count"),
        "sexpr.read_s": (self_s("sexpr.read"), "s"),
        "engine.self_s": (self_s(*engine), "s"),
        "engine.eval_exact_s": (self_s("engine.Engine.eval_exact"), "s"),
        "engine.eval_enclosure_s": (self_s("engine.Engine.eval_enclosure"),
                                    "s"),
        "engine.truncation_value_s": (
            self_s("engine.Engine.truncation_value"), "s"),
        "engine.harness_s": (self_s(*harness), "s"),
        "engine.atomic_evals": (s["atomic_evals"], "count"),
        "spaces.load_s": (self_s("spaces.load_space"), "s"),
        "spaces.suite_s": (self_s("spaces.builtin_suite",
                                  "spaces.random_repaired_space"), "s"),
        "acceptance.self_s": (self_s(*criteria), "s"),
    })
    for i, name in enumerate(criteria, 1):
        out["acceptance.criterion_%d_s" % i] = (
            spans.get(name, {}).get("total_s", 0.0), "s")
    covered = sum(agg["self_s"] for agg in spans.values())
    out["trace.wall_s"] = (s["wall_s"], "s")
    out["trace.unwrapped_s"] = (s["wall_s"] - covered, "s")
    out["trace.spans"] = (s["recorded_spans"] + s["dropped_spans"], "count")
    return out


def traced(workload, name):
    trace_dir = os.path.join(OUT, "trace-%s" % name)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    base_ops, base_wall = workload.run_pass()
    path = os.path.join(trace_dir, "summary.json")
    ops, wall = workload.run_pass(trace_path=path)
    if name == "ladder":
        paths = [p for _, p in workload.cell_traces]
        for cell, p in workload.cell_traces:
            s = _merge([p])
            log("trace %s: %s" % (cell, json.dumps({
                name: "%d calls, %d distinct" % (
                    agg["calls"], s["distinct"].get(name, 0))
                for name, agg in s["spans"].items() if agg["calls"]
                and name.startswith(("builders.member.",
                                     "builders.dyadic"))})))
        samples = {}
        for op in base_ops:
            samples.setdefault(op.name, []).append(op.seconds)
        base_wall = sum(statistics.median(samples[name])
                        for name, _ in workload.cell_traces)
    else:
        paths = [path]
    summary = _merge(paths)
    metrics = {k: metric(v, unit) for k, (v, unit) in
               layer_metrics(summary).items()}
    metrics["trace.overhead_ratio"] = metric(wall / base_wall, "ratio")
    metrics["trace.budget_overruns"] = metric(
        getattr(workload, "budget_overruns", 0), "count")
    all_ops = base_ops + ops
    failed = [op for op in all_ops if not op.ok
              and op.problems != ["timeout"]]
    for op in failed[:20]:
        log("FAILED %s: %s" % (op.name, "; ".join(op.problems)[:500]))
    return all_ops, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result as a JSON line "
                        "to this file, for compare.py")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "numerals",
                                       "__init__.py")):
        log("error: run from the root of a numerals checkout "
            "(no src/numerals here)")
        return 2
    os.makedirs(OUT, exist_ok=True)
    spec = load_json("spec.json")
    cls = {"corpus": Corpus, "ladder": Ladder, "random-eval": RandomEval}
    workload = cls[args.workload](spec, args.seed)
    if args.trace:
        ops, failed, metrics = traced(workload, args.workload)
    else:
        ops, failed, metrics = untraced(workload, args.workload, args.seconds,
                                        spec)
    # A ladder timeout is an undecided cell: it lowers decided_share but
    # is no wrong output, so `failed` counts only wrong or missing outputs.
    wrong = [op for op in failed if op.problems != ["timeout"]]
    result = {"correct": not wrong, "attempted": len(ops),
              "failed": len(wrong), "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result})
                     + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
