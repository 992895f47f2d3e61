"""Text formats for forecasting systems, processes, tests, and sequences.

All formats are line oriented UTF-8; ``#`` starts a comment that runs to the end of the line, and
blank lines are ignored.  Rationals go through ``numerals``.  Serialisation is canonical: fixed key
order, levels ascending, situations sorted, so a parse/serialise round trip of our own output is byte
identical.  The line readers stream the lines and run their loop inside one try, so a ParseError or
DomainError that one line decides is refused naming that line.
A process is read on one of two paths.  A text in dump_process's own layout, which the writer itself
checks on the bytes, has its values split from the bytes once.  Any other text goes to one line reader,
which checks each line's shape, name and value as it streams the lines.  Each distinct value text is
read once into the pairs and codes a Process keeps.  The writer fills one '<name> %s' bytes template
per depth with one text per table entry, building no name per situation.
A test is read line by line in any layout, keys in any order, and each level is checked once.
"""

from __future__ import annotations

import os
import stat
from fractions import Fraction
from itertools import chain

from .errors import DomainError, ParseError, ResourceError
from .forecast import ForecastingSystem, IntervalForecast, Markov, Stationary, Table
from .growth import GrowthFunction
from .martingale import Process
from .numerals import format_rational, parse_integer, parse_rational, rational_pairs
from .randtest import RandomnessTest
from .tree import ROOT_LABEL, format_situation, is_antichain, parse_situation, situations_up_to

MAX_LEVELS = 4096  # the most levels a .test file may declare
MAX_BITS = 10**7  # the most bits sample may draw: one byte each, then the text; about 36 MB peak RSS
MAX_DEPTH = 22  # the deepest .test convert to-martingale folds: 2**(depth + 1) - 1 situations per level


def _meaningful(text: str):
    """(number, text) of each line not blank once its comment is cut."""
    for number, line in enumerate(text.splitlines(), 1):
        if line := line.partition("#")[0].strip():
            yield number, line


def _natural(text: str, what: str) -> int:
    try:
        value = parse_integer(text)
    except ParseError:
        raise ParseError(f"bad {what} {text!r}") from None
    if value < 0:
        raise ParseError(f"negative {what} {text!r}")
    return value


def _key_value(line: str) -> tuple[str, str]:
    if ":" not in line:
        raise ParseError(f"expected 'key: value', got {line!r}")
    key, value = line.split(":", 1)
    return key.strip(), value.strip()


def _parse_interval(text: str) -> IntervalForecast:
    parts = text.split()
    if len(parts) != 2:
        raise ParseError(f"expected '<lo> <hi>', got {text!r}")
    return IntervalForecast(parse_rational(parts[0]), parse_rational(parts[1]))


# per kind: the one key after 'kind:', its reader, the form of the kind's rows ('' when it takes none),
# and the system made from the key's value and the rows
_KEYS = {
    "stationary": ("interval", _parse_interval, "", lambda interval, rows: Stationary(interval)),
    "table": ("default", _parse_interval, "node <situation>", Table),
    "markov": ("order", lambda value: _natural(value, "order"), "row <context>", Markov),
}


def parse_forecasting_system(text: str) -> ForecastingSystem:
    """A config read by one keyed reader for every kind: 'kind:', the kind's one key, its rows; each once."""
    lines = _meaningful(text)
    number, first = next(lines, (None, None))
    if first is None:
        raise ParseError("empty forecasting-system config")
    found, rows = None, {}
    try:
        key, kind = _key_value(first)
        if key != "kind":
            raise ParseError(f"config must start with 'kind:', got {first!r}")
        if kind not in _KEYS:
            raise ParseError(f"unknown kind {kind!r}")
        wanted, read, row, make = _KEYS[kind]
        word = row.partition(" ")[0] + " " if row else None  # what starts a row line
        for number, line in lines:
            if word and line.startswith(word):
                parts = line.split()
                if len(parts) != 4:
                    raise ParseError(f"expected '{row} <lo> <hi>', got {line!r}")
                s = parse_situation(parts[1])
                if s in rows:
                    raise ParseError(f"duplicate {parts[0]} {parts[1]!r}")
                rows[s] = IntervalForecast(parse_rational(parts[2]), parse_rational(parts[3]))
                continue
            key, value = _key_value(line)
            if key != wanted:
                raise ParseError(f"unexpected key {key!r} in {kind} config")
            if found is not None:
                raise ParseError(f"duplicate key {key!r}")
            found = read(value)
    except (ParseError, DomainError) as exc:
        raise ParseError(str(exc), number) from None
    if found is None:
        raise ParseError(f"{kind} config missing '{wanted}:'")
    return make(found, rows)


def _interval_text(i: IntervalForecast) -> str:
    return f"{format_rational(i.lo)} {format_rational(i.hi)}"


def dump_forecasting_system(fs: ForecastingSystem) -> str:
    if isinstance(fs, Stationary):
        return f"kind: stationary\ninterval: {_interval_text(fs.interval)}\n"
    if isinstance(fs, Table):
        return _keyed_text(["kind: table", f"default: {_interval_text(fs.default)}"], "node", fs.overrides)
    if isinstance(fs, Markov):
        return _keyed_text(["kind: markov", f"order: {fs.order}"], "row", fs.rows)
    raise TypeError(f"not a forecasting system: {fs!r}")


def _keyed_text(head: list[str], word: str, rows) -> str:
    for s in sorted(rows, key=lambda t: (len(t), t)):
        head.append(f"{word} {format_situation(s)} {_interval_text(rows[s])}")
    return "\n".join(head) + "\n"


def parse_process(text: str) -> Process:
    data = text.encode()
    tokens = data.split()  # 'depth:', D, then a name and a value per situation
    depth = len(tokens).bit_length() - 3  # the one depth with 4 << depth tokens, if any
    literals, count = tokens[3::2], len(tokens)
    del tokens  # the names go before the writer makes its copy of the text, which lowers the peak
    if depth < 0 or count != 4 << depth or _process_bytes(depth, literals) != data:  # not what the writer writes
        del data, literals  # freed before the lines are read, which lowers their peak
        return _coded(*_placed(text))
    return _coded(depth, literals) or _coded(*_placed(text))  # a value that is no numeral: read by lines


def _coded(depth: int, literals: list) -> Process | None:
    """The process of the value texts in heap order, each distinct one read once; None if one is no numeral."""
    distinct = [*set(literals)]  # value texts repeat heavily
    pairs = rational_pairs(b"\n".join(distinct).decode() if isinstance(distinct[0], bytes) else "\n".join(distinct))
    if pairs is None:
        return None
    table = [*dict.fromkeys(pairs)]  # straight into the Process's codes, one per distinct pair
    code = {pair: i for i, pair in enumerate(table)}
    heap = [*map(dict(zip(distinct, map(code.__getitem__, pairs))).__getitem__, literals)]
    return Process._from_codes(table, [heap[(1 << w) - 1:(2 << w) - 1] for w in range(depth + 1)])


def _placed(text: str) -> tuple[int, list[str]]:
    """(depth, the value texts in heap order) of a .proc in any layout, each line checked as the line-by-line
    reference checks it and each distinct value text read once; a fault is refused as the reference does."""
    lines, values, texts = _meaningful(text), {}, {}
    number, head = next(lines, (None, None))
    if head is None:
        raise ParseError("empty process file")
    try:
        key, value = _key_value(head)
        if key != "depth":
            raise ParseError(f"process file must start with 'depth:', got {head!r}")
        depth = _natural(value, "depth")
        for number, line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected '<situation> <rational>', got {line!r}")
            name, value = parts
            s = parse_situation(name)
            if s in values:
                raise ParseError(f"duplicate situation {name!r}")
            if value not in texts:
                parse_rational(value)
                texts[value] = value
            values[s] = texts[value]  # one string per distinct value text
        number = None  # from here a fault is the count's, or a name's that this depth has no place for
        full = depth <= 64 and len(values) == (2 << depth) - 1
        literals = [*map(values.get, situations_up_to(depth))] if full else [None]
        if None in literals:
            Process(depth, values)  # the checked constructor names the fault
    except (ParseError, DomainError) as exc:
        raise ParseError(str(exc), number) from None
    return depth, literals


def dump_process(process: Process) -> str:
    texts = [format_rational(Fraction(*pair)).encode() for pair in process.table]  # one per distinct value
    return _process_bytes(process.depth, map(texts.__getitem__, chain.from_iterable(process.codes))).decode()


def _process_bytes(depth: int, texts) -> bytes:
    """The .proc text of the value texts in heap order, all as bytes: one '<name> %s' line template,
    filled once (a value text is an argument, never a directive); a level's lines are the level above's,
    prefixed."""
    template = [b"depth: %d\n%s %%s\n" % (depth, ROOT_LABEL.encode())]
    lines = b" %s\n"  # the root's line, its name empty
    for w in range(depth):  # '0', then '1', before each of level w's 2**w lines
        k = (1 << w) - 1
        lines = b"0" + lines.replace(b"\n", b"\n0", k) + b"1" + lines.replace(b"\n", b"\n1", k)
        template.append(lines)
    return b"".join(template) % tuple(texts)


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
        prefix = tuple(map(parse_integer, head[1:]))
        a, b, c = map(parse_integer, tail[1:])
    except ParseError:
        raise ParseError(f"growth spec values must be integers: {text!r}") from None
    return GrowthFunction(prefix, a, b, c)


def dump_growth(g: GrowthFunction) -> str:
    head = " ".join(str(v) for v in g.prefix)
    head = f"table {head} ;" if head else "table ;"
    return f"{head} affine {g.a} {g.b} {g.c}"


def parse_test(text: str) -> RandomnessTest:
    num_levels = depth = tail = number = None
    members: dict[int, set[str]] = {}
    seen = set()
    try:
        for number, line in _meaningful(text):
            if line.startswith("level "):
                parts = line.split()
                if len(parts) != 3:
                    raise ParseError(f"expected 'level <n> <situation>', got {line!r}")
                n = _natural(parts[1], "level index")
                members.setdefault(n, set()).add(parse_situation(parts[2]))
                continue
            key, value = _key_value(line)
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
            if key == "levels":
                num_levels = _natural(value, "level count")
                if num_levels > MAX_LEVELS:  # every level is built, checked and reported
                    raise ResourceError(f"line {number}: test has {value} levels, over the limit of {MAX_LEVELS}")
            elif key == "depth":
                depth = _natural(value, "depth")
            elif key == "tail":
                tail = parse_growth(value)
            else:
                raise ParseError(f"unexpected key {key!r} in test file")
    except (ParseError, DomainError) as exc:
        raise ParseError(str(exc), number) from None
    if number is None:
        raise ParseError("empty test file")
    if num_levels is None:
        raise ParseError("test file missing 'levels:'")
    if depth is None:
        raise ParseError("test file missing 'depth:'")
    if members and max(members) >= num_levels:
        raise ParseError(f"level index outside 0..{num_levels - 1}")
    levels = tuple(frozenset(members.get(n, ())) for n in range(num_levels))
    # each level checked once; the checked constructor runs only to name the first fault
    if all(is_antichain(cut) and max(map(len, cut), default=0) <= depth for cut in levels):
        return RandomnessTest._from_antichains(levels, max_depth=depth, tail=tail)
    try:
        return RandomnessTest(levels, max_depth=depth, tail=tail)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def dump_test(test: RandomnessTest) -> str:
    lines = [f"levels: {test.num_levels}", f"depth: {test.max_depth}"]
    if test.tail is not None:
        lines.append(f"tail: {dump_growth(test.tail)}")
    for n, cut in enumerate(test.levels):
        for s in sorted(cut):
            lines.append(f"level {n} {format_situation(s)}")
    return "\n".join(lines) + "\n"


def _sequence_chars(line: str) -> str:
    """A .seq line's characters, its comment cut and its whitespace dropped."""
    return "".join(line.split("#", 1)[0].split())


def parse_sequence(text: str) -> str:
    """The bits of a .seq text, by C-level string passes, tested once: a one-line text costs at most
    one copy of itself.  The lines are walked only to name the first bad character's line."""
    # empty pieces dropped, so that a comment line above one line of bits copies nothing more
    bits = "".join(filter(None, map(_sequence_chars, text.splitlines())))
    if bits.strip("01"):  # a character neither a bit nor whitespace
        for number, line in enumerate(text.splitlines(), start=1):
            if bad := _sequence_chars(line).strip("01"):
                raise ParseError(f"unexpected character {bad[0]!r} in sequence", number)
    return bits


def load(path: str, parser):
    """parser(the text of the UTF-8 file at path, read with universal newlines); a file that is not
    UTF-8 is a ParseError naming it and the offset of its first bad byte."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()  # all bytes decoded in one call, so the error's start is a file offset
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 at byte {exc.start}") from None
    return parser(text)


def save(path: str, text: str) -> None:
    """Write text to path as UTF-8 in place, then cut a regular file (not a FIFO or a device) to the bytes
    written, also when a write fails: it holds the text or a prefix of it, and keeps its inode and mode.
    Not atomic.  Opening with O_TRUNC instead made a rewrite of the same bytes cost 5 to 7 times as much."""
    data, written = text.encode("utf-8"), 0
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as handle:
        try:
            while written < len(data):
                written += os.write(handle.fileno(), data[written:])
        finally:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate(written)
