"""Text formats for forecasting systems, processes, tests, and sequences.

All formats are line oriented UTF-8; ``#`` starts a comment that runs to
the end of the line, and blank lines are ignored.  Rationals go through
``numerals``.  Serialisation is canonical: fixed key order, levels ascending,
situations sorted, so a parse/serialise round trip of our own output is byte identical.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .forecast import ForecastingSystem, IntervalForecast, Markov, Stationary, Table
from .growth import GrowthFunction
from .martingale import Process
from .numerals import format_rational, parse_rational
from .randtest import RandomnessTest
from .tree import format_situation, parse_situation


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _meaningful(text: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if line:
            out.append((number, line))
    return out


def _int(text: str, what: str, number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", number) from None


def _key_value(line: str, number: int) -> tuple[str, str]:
    if ":" not in line:
        raise ParseError(f"expected 'key: value', got {line!r}", number)
    key, value = line.split(":", 1)
    return key.strip(), value.strip()


def _parse_interval(text: str, number: int) -> IntervalForecast:
    parts = text.split()
    if len(parts) != 2:
        raise ParseError(f"expected '<lo> <hi>', got {text!r}", number)
    try:
        return IntervalForecast(parse_rational(parts[0]), parse_rational(parts[1]))
    except ParseError as exc:
        raise ParseError(str(exc), number) from None


def parse_forecasting_system(text: str) -> ForecastingSystem:
    lines = _meaningful(text)
    if not lines:
        raise ParseError("empty forecasting-system config")
    number, first = lines[0]
    key, kind = _key_value(first, number)
    if key != "kind":
        raise ParseError(f"config must start with 'kind:', got {first!r}", number)

    if kind == "stationary":
        for number, line in lines[1:]:
            key, value = _key_value(line, number)
            if key != "interval":
                raise ParseError(f"unexpected key {key!r} in stationary config", number)
            return Stationary(_parse_interval(value, number))
        raise ParseError("stationary config missing 'interval:'")

    if kind == "table":
        default = None
        overrides = {}
        for number, line in lines[1:]:
            if line.startswith("node "):
                parts = line.split()
                if len(parts) != 4:
                    raise ParseError(f"expected 'node <situation> <lo> <hi>', got {line!r}", number)
                s = parse_situation(parts[1])
                overrides[s] = _parse_interval(f"{parts[2]} {parts[3]}", number)
            else:
                key, value = _key_value(line, number)
                if key != "default":
                    raise ParseError(f"unexpected key {key!r} in table config", number)
                default = _parse_interval(value, number)
        if default is None:
            raise ParseError("table config missing 'default:'")
        return Table(default, overrides)

    if kind == "markov":
        order = None
        rows = {}
        for number, line in lines[1:]:
            if line.startswith("row "):
                parts = line.split()
                if len(parts) != 4:
                    raise ParseError(f"expected 'row <context> <lo> <hi>', got {line!r}", number)
                ctx = parse_situation(parts[1])
                rows[ctx] = _parse_interval(f"{parts[2]} {parts[3]}", number)
            else:
                key, value = _key_value(line, number)
                if key != "order":
                    raise ParseError(f"unexpected key {key!r} in markov config", number)
                order = _int(value, "order", number)
        if order is None:
            raise ParseError("markov config missing 'order:'")
        return Markov(order, rows)

    raise ParseError(f"unknown kind {kind!r}", number)


def _interval_text(i: IntervalForecast) -> str:
    return f"{format_rational(i.lo)} {format_rational(i.hi)}"


def dump_forecasting_system(fs: ForecastingSystem) -> str:
    if isinstance(fs, Stationary):
        return f"kind: stationary\ninterval: {_interval_text(fs.interval)}\n"
    if isinstance(fs, Table):
        lines = ["kind: table", f"default: {_interval_text(fs.default)}"]
        for s in sorted(fs.overrides, key=lambda t: (len(t), t)):
            lines.append(f"node {format_situation(s)} {_interval_text(fs.overrides[s])}")
        return "\n".join(lines) + "\n"
    if isinstance(fs, Markov):
        lines = ["kind: markov", f"order: {fs.order}"]
        for ctx in sorted(fs.rows, key=lambda t: (len(t), t)):
            lines.append(f"row {format_situation(ctx)} {_interval_text(fs.rows[ctx])}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"not a forecasting system: {fs!r}")


def parse_process(text: str) -> Process:
    lines = _meaningful(text)
    if not lines:
        raise ParseError("empty process file")
    number, first = lines[0]
    key, value = _key_value(first, number)
    if key != "depth":
        raise ParseError(f"process file must start with 'depth:', got {first!r}", number)
    depth = _int(value, "depth", number)
    values = {}
    # value texts repeat heavily, so each distinct one is parsed once
    rationals: dict[str, Fraction] = {}
    for number, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<situation> <rational>', got {line!r}", number)
        name, literal = parts
        s = parse_situation(name)
        if s in values:
            raise ParseError(f"duplicate situation {name!r}", number)
        v = rationals.get(literal)
        if v is None:
            v = rationals[literal] = parse_rational(literal)
        values[s] = v
    try:
        return Process(depth, values)
    except Exception as exc:
        raise ParseError(str(exc)) from None


def dump_process(process: Process) -> str:
    lines = [f"depth: {process.depth}"]
    lines += (f"{format_situation(s)} {format_rational(v)}" for s, v in process.values.items())
    return "\n".join(lines) + "\n"


def parse_growth(text: str) -> GrowthFunction:
    parts = text.split(";")
    if len(parts) != 2:
        raise ParseError(f"growth spec needs 'table ... ; affine a b c', got {text!r}")
    head, tail = parts[0].split(), parts[1].split()
    if not head or head[0] != "table":
        raise ParseError(f"growth spec must start with 'table', got {parts[0]!r}")
    if len(tail) != 4 or tail[0] != "affine":
        raise ParseError(f"growth tail must be 'affine a b c', got {parts[1]!r}")
    try:
        prefix = tuple(int(v) for v in head[1:])
        a, b, c = (int(v) for v in tail[1:])
    except ValueError:
        raise ParseError(f"growth spec values must be integers: {text!r}") from None
    return GrowthFunction(prefix, a, b, c)


def dump_growth(g: GrowthFunction) -> str:
    head = " ".join(str(v) for v in g.prefix)
    head = f"table {head} ;" if head else "table ;"
    return f"{head} affine {g.a} {g.b} {g.c}"


def parse_test(text: str) -> RandomnessTest:
    lines = _meaningful(text)
    if not lines:
        raise ParseError("empty test file")
    num_levels = None
    depth = None
    tail = None
    members: dict[int, set[str]] = {}
    for number, line in lines:
        if line.startswith("level "):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'level <n> <situation>', got {line!r}", number)
            n = _int(parts[1], "level index", number)
            members.setdefault(n, set()).add(parse_situation(parts[2]))
            continue
        key, value = _key_value(line, number)
        if key == "levels":
            num_levels = _int(value, "level count", number)
        elif key == "depth":
            depth = _int(value, "depth", number)
        elif key == "tail":
            tail = parse_growth(value)
        else:
            raise ParseError(f"unexpected key {key!r} in test file", number)
    if num_levels is None:
        raise ParseError("test file missing 'levels:'")
    if depth is None:
        raise ParseError("test file missing 'depth:'")
    if members and (min(members) < 0 or max(members) >= num_levels):
        raise ParseError(f"level index outside 0..{num_levels - 1}")
    levels = tuple(frozenset(members.get(n, set())) for n in range(num_levels))
    try:
        return RandomnessTest(levels, max_depth=depth, tail=tail)
    except Exception as exc:
        raise ParseError(str(exc)) from None


def dump_test(test: RandomnessTest) -> str:
    lines = [f"levels: {test.num_levels}", f"depth: {test.max_depth}"]
    if test.tail is not None:
        lines.append(f"tail: {dump_growth(test.tail)}")
    for n, cut in enumerate(test.levels):
        for s in sorted(cut):
            lines.append(f"level {n} {format_situation(s)}")
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> str:
    bits = []
    for number, raw in enumerate(text.splitlines(), start=1):
        for ch in raw.split("#", 1)[0]:
            if ch in "01":
                bits.append(ch)
            elif not ch.isspace():
                raise ParseError(f"unexpected character {ch!r} in sequence", number)
    return "".join(bits)


def load(path: str, parser):
    with open(path, "r", encoding="utf-8") as handle:
        return parser(handle.read())


def save(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
