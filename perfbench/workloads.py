"""The three workloads: the ops each cycle runs and the checks on their outputs.

Every op goes through treebet's public API or ``treebet.cli.main``, looked
up on the module at call time so that a tracer's wrappers are used when
installed.  Checks run after each op, outside its timed region, and record
mismatches instead of raising, so one bad output does not hide the others.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import inputs

DEFAULT_SEED = 1
PINS = Path(__file__).with_name("pins.json")


class NonZeroExit(Exception):
    """A CLI op returned a non-zero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.code = code


class Sink(io.TextIOBase):
    """Stands in for stdout: counts and hashes what the CLI writes, keeping
    only its head and tail, so 100 MB outputs are never held in memory."""

    HEAD = 1 << 18
    TAIL = 1 << 16

    def __init__(self):
        self.bytes = 0
        self.lines = 0
        self._digest = hashlib.sha256()
        self._head: list[str] = []
        self._head_len = 0
        self.tail = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode()
        self.bytes += len(data)
        self.lines += s.count("\n")
        self._digest.update(data)
        if self._head_len < self.HEAD:
            part = s[: self.HEAD - self._head_len]
            self._head.append(part)
            self._head_len += len(part)
        self.tail = (self.tail + s[-self.TAIL:])[-self.TAIL:]
        return len(s)

    @property
    def head(self) -> str:
        return "".join(self._head)

    @property
    def complete(self) -> bool:
        return self.bytes <= self.HEAD

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def run_cli(tb, argv: list[str]) -> Sink:
    sink = Sink()
    err = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = tb.cli.main(argv)
    if code != 0:
        raise NonZeroExit(code, err.getvalue())
    return sink


@dataclass
class Op:
    """One closed-loop request.  ``run`` is timed; ``prepare`` and ``check``
    are not.  ``nodes`` is the number of tree situations the op covers.
    ``known_failure`` names the error a known program defect raises in this
    op; any other failure of any op is a mismatch."""

    name: str
    run: Callable[[], object]
    nodes: int
    check: Callable[[object], None] | None = None
    prepare: Callable[[], None] | None = None
    known_failure: str | None = None


class Workload:
    name = ""

    def __init__(self, tb, seed: int, workdir: Path):
        self.tb = tb
        self.seed = seed
        self.dir = workdir
        self.mismatches: list[str] = []
        self._generated: dict[int, object] = {}

    def inputs_for(self, c: int):
        """The inputs of cycle c, generated and written on first use.  The
        first cycle's are made during set-up; later ones between cycles."""
        g = c % inputs.GENERATED_CYCLES
        if g not in self._generated:
            self._generated[g] = self.generate(random.Random(f"{self.name}:{self.seed}:{g}"), g)
        return g, self._generated[g]

    def generate(self, rng: random.Random, g: int):
        raise NotImplementedError

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; adds to ``mismatches``."""

    def report(self) -> dict:
        """Input properties measured during the run, printed for the record."""
        return {}


# ----------------------------------------------------------------- convert

class Convert(Workload):
    name = "convert"

    def __init__(self, tb, seed, workdir):
        super().__init__(tb, seed, workdir)
        self._fs_objects = {}
        self.inputs_for(0)

    def generate(self, rng, g):
        chains = inputs.convert_inputs(rng)
        for i, chain in enumerate(chains):
            (self.dir / f"c{g}s{i}.fs").write_text(chain.system.text)
            (self.dir / f"c{g}s{i}.proc").write_text(chain.proc_text)
        return chains

    def _fs(self, system: inputs.System):
        """The program's own object for a system, for the checks."""
        if system.text not in self._fs_objects:
            self._fs_objects[system.text] = self.tb.formats.parse_forecasting_system(system.text)
        return self._fs_objects[system.text]

    def cycle(self, c):
        g, chains = self.inputs_for(c)
        ops = []
        for i, chain in enumerate(chains):
            ops += self._chain_ops(g, i, chain)
        return ops

    def _chain_ops(self, g, i, chain):
        tb = self.tb
        base = self.dir / f"c{g}s{i}"
        fs, proc, a, w, s, u = (f"{base}.fs", f"{base}.proc", f"{base}.a.test",
                                f"{base}.w.proc", f"{base}.s.test", f"{base}.u.test")
        nodes = (1 << (chain.depth + 1)) - 1
        tag = f"d{chain.depth} {chain.system.name} {chain.kind}"
        to_martingale = ["convert", "to-martingale", "--test", a, "--fs", fs,
                         "--levels", "?", "--out", w]

        def set_levels():
            with open(a, encoding="utf-8") as handle:
                first = handle.readline()
            to_martingale[7] = str(int(first.split(":")[1]) - 1)

        def cli(argv):
            return lambda: run_cli(tb, argv)

        return [
            Op(f"to-test {tag}", cli(["convert", "to-test", "--process", proc, "--fs", fs,
                                      "--out", a]),
               nodes, check=lambda out: self._check_test_op(out, a, chain)),
            Op(f"to-martingale {tag}", cli(to_martingale), nodes, prepare=set_levels,
               check=lambda out: self._check_process_op(out, w, chain)),
            Op(f"schnorr {tag}", cli(["convert", "schnorr-from-martingale", "--process", w,
                                      "--fs", fs, "--rho", inputs.RHO, "--out", s]),
               nodes, check=lambda out: self._check_test_op(out, s, chain)),
            Op(f"universal {tag}", cli(["convert", "universal", a, s, "--fs", fs, "--out", u]),
               nodes, check=lambda out: self._check_test_op(out, u, chain)),
        ]

    def _check_report(self, out: Sink, path: str, last: str) -> bool:
        text = out.head
        lines = text.splitlines()
        ok = (out.complete and lines and lines[-1] == last and "FAIL" not in text
              and all(line.endswith("pass") for line in lines
                      if line.startswith(("level ", "tail K="))))
        self.expect(ok, f"{path}: report does not end in '{last}' with every level passing")
        return ok

    def _check_test_op(self, out, path, chain):
        if not self._check_report(out, path, "all budgets pass"):
            return
        fmt = self.tb.formats
        text = Path(path).read_text(encoding="utf-8")
        test = fmt.parse_test(text)
        self.expect(fmt.dump_test(test) == text, f"{path}: re-dump is not byte-identical")
        reports = self.tb.validate_ml_test(self._fs(chain.system), test)
        self.expect(all(r.passed for r in reports), f"{path}: validate_ml_test fails")

    def _check_process_op(self, out, path, chain):
        if not self._check_report(out, path, "supermartingale check pass"):
            return
        process = self.tb.formats.load(path, self.tb.formats.parse_process)
        self.expect(self.tb.check_test_supermartingale(self._fs(chain.system), process),
                    f"{path}: not a test supermartingale")


# ------------------------------------------------------------------- query

def _trie_size(cut, cond: str) -> int:
    """Situations the sparse recursion visits: prefixes of members below cond."""
    return len({m[:k] for m in cut if m.startswith(cond) for k in range(len(cond), len(m) + 1)})


class Query(Workload):
    name = "query"
    CYCLES = 4096

    def __init__(self, tb, seed, workdir):
        super().__init__(tb, seed, workdir)
        self.fs = [tb.formats.parse_forecasting_system(s.text) for s in inputs.SYSTEMS]
        self.pools, self.slot_pool, self.draws = inputs.query_inputs(
            random.Random(f"query:{seed}"), self.CYCLES)
        self.calls = [[self._build(q) for q in pool] for pool in self.pools]
        self.answers: dict[tuple[int, int], object] = {}
        self.served = 0

    def _build(self, q: inputs.Query):
        tb, fs = self.tb, self.fs[q.system]
        if q.kind == "sparse":
            fn = "cut_lower_prob" if q.lower else "cut_upper_prob"
            return fn, (fs, frozenset(q.cut), q.cond), _trie_size(q.cut, q.cond)
        if q.kind == "cylinder":
            return "cylinder_bounds", (fs, q.situation), len(q.situation) + 1
        if q.kind == "dense":
            fn = "cond_lower" if q.lower else "cond_upper"
            g = tb.DepthGamble(q.depth, q.values)
            return fn, (fs, g, q.cond), (1 << (q.depth - len(q.cond) + 1)) - 1
        fn = "lower_expectation" if q.lower else "upper_expectation"
        return fn, (fs.at(q.situation), tb.gamble(*q.gamble)), 3

    def cycle(self, c):
        tb = self.tb
        ops = []
        for slot, rank in enumerate(self.draws[c % self.CYCLES]):
            pool = self.slot_pool[slot]
            fn, args, nodes = self.calls[pool][rank]
            q = self.pools[pool][rank]
            ops.append(Op(
                f"{q.kind} {fn} {inputs.QUERY_CLASSES[slot][1]}",
                lambda fn=fn, args=args: getattr(tb, fn)(*args),
                nodes,
                check=lambda answer, key=(pool, rank): self._record(key, answer),
            ))
        return ops

    def _record(self, key, answer):
        self.served += 1
        first = self.answers.setdefault(key, answer)
        self.expect(answer == first, f"query {key}: repeated answer differs")

    def finish(self):
        for (pool, rank), answer in self.answers.items():
            self._verify(self.pools[pool][rank], self.calls[pool][rank], answer, (pool, rank))

    def _verify(self, q, call, answer, key):
        tb = self.tb
        fn, args, _ = call
        fs = args[0]
        if q.kind == "sparse":
            self.expect(0 <= answer <= 1, f"query {key}: probability {answer} outside [0, 1]")
            depth = max(len(m) for m in q.cut)
            if depth <= inputs.CHECKED_CUT_DEPTH:
                g = tb.DepthGamble.indicator(q.cut, depth)
                dense = (tb.cond_lower if q.lower else tb.cond_upper)(fs, g, q.cond)
                self.expect(answer == dense, f"query {key}: sparse {answer} != dense {dense}")
        elif q.kind == "cylinder":
            other = (tb.cut_upper_prob(fs, {q.situation}), tb.cut_lower_prob(fs, {q.situation}))
            self.expect(answer == other, f"query {key}: cylinder {answer} != cut {other}")
        elif q.kind == "dense":
            g = args[1]
            dual = -(tb.cond_upper if q.lower else tb.cond_lower)(fs, -g, q.cond)
            self.expect(answer == dual, f"query {key}: {answer} != conjugate {dual}")
        else:
            forecast, f = args
            values = [p * f.on1 + (1 - p) * f.on0 for p in (forecast.lo, forecast.hi)]
            want = min(values) if q.lower else max(values)
            self.expect(answer == want, f"query {key}: one-step {answer} != {want}")

    def report(self):
        distinct = len(self.answers)
        return {"repeat_share": round(1 - distinct / self.served, 4) if self.served else 0.0,
                "distinct_queries": distinct}


# ------------------------------------------------------------------ stream

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _interval_at(system: inputs.System, path, n: int):
    """The system's interval after the first n bits of ``path``."""
    if system.markov_rows is not None:
        return system.markov_rows["".join(path[max(0, n - 2):n])]
    if n > inputs.TABLE_OVERRIDE_DEPTH or not system.overrides:
        return system.default
    return system.overrides.get("".join(path[:n]), system.default)


def expected_sample(system, selector: str, n: int, seed: int) -> str:
    """The bits `sample` must print, recomputed with integer arithmetic."""
    state = seed & _MASK
    path: list[str] = []
    for i in range(n):
        lo, hi = _interval_at(system, path, i)
        if selector == "mid":
            p = (lo + hi) / 2
            state, word = _splitmix64(state)
            one = word * p.denominator < p.numerator << 64
        else:
            state, w1 = _splitmix64(state)
            state, word = _splitmix64(state)
            spread = hi - lo
            b, d = lo.denominator, spread.denominator
            one = word * b * d < ((lo.numerator * d) << 64) + spread.numerator * w1 * b
        path.append("1" if one else "0")
    return "".join(path)


def expected_summary(system, strategies, seq: str, tests) -> tuple[F, int]:
    """(max_capital, test_deficiency) of `analyze`, recomputed independently.

    Capitals are kept as unreduced integer ratios; a float log2 picks the
    running maximum and exact comparison settles near-ties.
    """
    bettors = []
    for stake, direction in strategies:
        bettors.append([F(stake), direction, 1, 1, 0.0])   # stake, dir, num, den, log2
    best = (0.0, 1, 1)
    factors: dict = {}
    for n, bit in enumerate(seq):
        if all(b[2] == 0 for b in bettors):
            break
        interval = _interval_at(system, seq, n)
        for b in bettors:
            if b[2] == 0:
                continue
            key = (interval, b[0], b[1], bit)
            if key not in factors:
                up, down = inputs.kelly_factors(interval, b[0], b[1])
                f = up if bit == "1" else down
                factors[key] = (f.numerator, f.denominator, math.log2(f) if f else 0.0)
            num, den, lg = factors[key]
            b[2] *= num
            b[3] *= den
            b[4] += lg
            if b[2] == 0:
                continue
            if b[4] > best[0] + 1e-6 or (b[4] >= best[0] - 1e-6
                                         and b[2] * best[2] > best[1] * b[3]):
                best = (b[4], b[2], b[3])
    hit = {level for test in tests for level, members in enumerate(test)
           if any(seq.startswith(m) for m in members)}
    return F(best[1], best[2]), (max(hit) + 1 if hit else 0)


class Stream(Workload):
    name = "stream"

    def __init__(self, tb, seed, workdir):
        super().__init__(tb, seed, workdir)
        self.fs_paths = []
        for system in inputs.SYSTEMS:
            path = self.dir / f"{system.name}.fs"
            path.write_text(system.text)
            self.fs_paths.append(str(path))
        self._expected: dict = {}
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        self.pins = pins.get("digests", {}) if seed == pins.get("seed") else {}
        self.inputs_for(0)

    def generate(self, rng, g):
        ops = inputs.stream_inputs(rng)
        return ops, [self._write(g, i, op) for i, op in enumerate(ops)]

    def _write(self, g, i, op: inputs.StreamOp) -> list[str]:
        fs = self.fs_paths[op.system]
        if op.command == "sample":
            return ["sample", "--fs", fs, "--selector", op.selector, "--n", str(op.n),
                    "--seed", str(op.seed)]
        seq = self.dir / f"c{g}s{i}.seq"
        seq.write_text(op.seq_text)
        argv = ["analyze", "--fs", fs, "--seq", str(seq)]
        if op.strategies != inputs.BATTERY:
            for stake, direction in op.strategies:
                argv += ["--kelly", f"{stake},{direction}"]
        for t, levels in enumerate(op.tests):
            path = self.dir / f"c{g}s{i}t{t}.test"
            path.write_text(inputs.test_text(levels))
            argv += ["--test", str(path)]
        return argv

    def cycle(self, c):
        g, (stream_ops, argvs) = self.inputs_for(c)
        ops = []
        for i, op in enumerate(stream_ops):
            argv = argvs[i]
            battery = op.strategies == inputs.BATTERY
            name = (f"sample {op.selector}" if op.command == "sample"
                    else f"analyze {'battery' if battery else 'stake-1'}")
            long_battery = battery and (op.system, op.n) in inputs.LONG_BATTERY
            ops.append(Op(
                f"{name} {op.n} {inputs.SYSTEMS[op.system].name}",
                lambda argv=argv: run_cli(self.tb, argv),
                op.n,
                check=lambda out, g=g, i=i: self._check(g, i, out),
                known_failure="ValueError" if long_battery else None,
            ))
        return ops

    def _check(self, g, i, out: Sink):
        op = self._generated[g][0][i]
        system = inputs.SYSTEMS[op.system]
        key = f"{g}.{i}"
        if key in self.pins:
            self.expect(out.hexdigest() == self.pins[key], f"stream {key}: digest differs from pin")
        if op.command == "sample":
            if key not in self._expected:
                text = expected_sample(system, op.selector, op.n, op.seed) + "\n"
                self._expected[key] = hashlib.sha256(text.encode()).hexdigest()
            self.expect(out.hexdigest() == self._expected[key], f"stream {key}: sampled bits differ")
            return
        self.expect(out.lines == op.n + 3, f"stream {key}: {out.lines} lines, want {op.n + 3}")
        summary = out.tail.rstrip("\n").rsplit("\n", 1)[-1]
        fields = dict(part.split("=", 1) for part in summary.split()[2:])
        if key not in self._expected:
            self._expected[key] = expected_summary(system, op.strategies, op.seq_text, op.tests)
        max_capital, deficiency = self._expected[key]
        self.expect(
            summary.startswith("# summary ")
            and F(fields.get("max_capital", "-1")) == max_capital
            and F(fields.get("ville_bound", "-1")) == 1 / max_capital
            and int(fields.get("test_deficiency", "-1")) == deficiency,
            f"stream {key}: summary disagrees with the recomputed max_capital/deficiency",
        )
