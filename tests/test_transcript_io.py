"""Transcript I/O keeps every byte, verdict and error of the straightforward code.

``reference_serialize``, ``reference_parse`` and ``reference_replay`` are
the plain versions: one dict and one sorted-key encode per message line,
``json.loads`` per line, and a replay that parses the whole text before
it re-executes the run.  The package's versions must agree with them on
every config whose views ``test_view_digests`` pins and on the damaged
texts below, except that replay compares records, not lines, so damage
that only reformats the lines is no divergence.  ``record_replay`` decodes
every record of both texts and compares them all; replay, which decodes
only the lines that differ, must match it on random damage to a deal's lines.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_view_digests import CONFIGS

import ringmpc.cli as cli
import ringmpc.engine as engine
from ringmpc.cli import execute_config, replay_transcript
from ringmpc.engine import EVERYONE, _record, parse_header, parse_transcript
from ringmpc.errors import ProtocolError, ReplayError, TopologyError
from ringmpc.ring import RingSpec
from ringmpc.topology import ChannelGraph

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot encode {value!r}")


def reference_serialize(t) -> str:
    head = {
        "meta": {
            "protocol": t.protocol.name,
            "ring": t.protocol.ring.to_config(),
            "seed": t.seed,
            "topology": t.graph.to_config(),
            "inputs": _encode(t.inputs),
            "params": _encode(t.protocol.params()),
        }
    }
    lines = [_JSON.encode(head)]
    for m in t.messages:
        lines.append(
            _JSON.encode(
                {
                    "seq": m.seq,
                    "from": m.frm,
                    "to": m.to,
                    "security": m.security,
                    "kind": m.kind,
                    "payload": _encode(m.payload),
                }
            )
        )
    return "\n".join(lines) + "\n"


def reference_parse(text: str):
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ReplayError("empty transcript")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ReplayError(f"unreadable transcript header: {e}") from None
    if "meta" not in head:
        raise ReplayError("transcript header has no metadata")
    records = []
    for n, ln in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as e:
            raise ReplayError(f"truncated or corrupt transcript at line {n}: {e}") from None
        if not isinstance(rec, dict):
            raise ReplayError(f"message record at line {n} is a JSON {type(rec).__name__}, "
                              "not an object")
        if not {"seq", "from", "to", "security", "kind", "payload"} <= rec.keys():
            raise ReplayError(f"message record at line {n} is missing fields")
        records.append(rec)
    return head["meta"], records


def reference_replay(text: str):
    meta, _ = reference_parse(text)
    try:
        _, transcript = execute_config(meta)
    except TopologyError:
        raise
    except ProtocolError as e:
        raise ReplayError(f"the transcript header cannot be re-executed: {e}") from None
    expected_lines = reference_serialize(transcript).strip().split("\n")
    got_lines = text.strip().split("\n")
    for i in range(1, max(len(expected_lines), len(got_lines))):
        exp = expected_lines[i] if i < len(expected_lines) else None
        got = got_lines[i] if i < len(got_lines) else None
        if exp != got:
            seq = None
            for candidate in (got, exp):
                if candidate:
                    try:
                        seq = json.loads(candidate).get("seq")
                        break
                    except json.JSONDecodeError:
                        continue
            return False, seq, f"first divergence at line {i + 1}"
    return True, None, "verified"


def outcome(fn, text):
    """What ``fn(text)`` returns, or the type and message of what it raises."""
    try:
        return "returned", fn(text)
    except ProtocolError as e:
        return "raised", type(e), str(e)


def _edit(text, edit):
    """``text`` with its lines replaced by ``edit(lines)``."""
    return "\n".join(edit(text.split("\n")))


def _altered_payload(lines):
    record = json.loads(lines[len(lines) // 2])
    record["payload"] = "tampered"
    lines[len(lines) // 2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return lines


def _reordered_header(lines):
    head = json.loads(lines[0])
    lines[0] = json.dumps({"meta": dict(reversed(list(head["meta"].items())))})
    return lines


def _garbage_after_line_2(lines):
    lines[1] += " x"
    return lines


def _corrupt_body_unrunnable_header(lines):
    lines[0] = lines[0].replace('"protocol":"', '"protocol":"no such ', 1)
    lines[1] = lines[1][:-1] + "]"
    return lines


def _body_line(edit):
    """Damage that puts ``edit(line)``, a list of lines, in place of the middle message line."""
    def damage(text):
        lines = text.split("\n")
        n = len(lines) // 2
        return "\n".join(lines[:n] + edit(lines[n]) + lines[n + 1:])
    return damage


def _nan_payload(line):
    record = json.loads(line)
    record["payload"] = float("nan")
    return [json.dumps(record, sort_keys=True, separators=(",", ":"))]


DAMAGE = {
    "untouched": lambda text: text,
    "one altered payload": lambda text: _edit(text, _altered_payload),
    "truncated last line": lambda text: text.rstrip("\n")[:-5],
    "dropped line": lambda text: _edit(text, lambda lines: lines[:1] + lines[2:]),
    "extra line": lambda text: text + text.split("\n")[1] + "\n",
    "reordered header keys": lambda text: _edit(text, _reordered_header),
    "leading blank lines": lambda text: "\n \n\t\n" + text,
    "byte-order mark": lambda text: "\ufeff" + text,
    "CRLF line endings": lambda text: text.replace("\n", "\r\n"),
    "whitespace-padded lines": lambda text: _edit(
        text, lambda lines: [f" \t{ln} \r" if ln else ln for ln in lines]),
    "trailing garbage": lambda text: _edit(text, _garbage_after_line_2),
    "corrupt body under an unrunnable header": lambda text: _edit(
        text, _corrupt_body_unrunnable_header),
    "a JSON array line": _body_line(lambda line: ["[1, 2]"]),
    "a JSON number line": _body_line(lambda line: ["5"]),
    "a JSON string line": _body_line(lambda line: ['"seq"']),
    "a NaN payload": _body_line(_nan_payload),
    "a duplicate key": _body_line(lambda line: [line[:-1] + ',"payload":"tampered"}']),
    "two records on one line": _body_line(lambda line: [line + line]),
    "a record split across two lines": _body_line(
        lambda line: [line[:len(line) // 2], line[len(line) // 2:]]),
    "a byte-order mark in mid-file": _body_line(lambda line: ["\ufeff" + line]),
    "a vertical-tab line": _body_line(lambda line: ["\x0b", line]),
    "a no-break-space line": _body_line(lambda line: ["\u00a0", line]),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_serialize_is_byte_equal(name):
    _, t = execute_config(CONFIGS[name])
    assert t.serialize() == reference_serialize(t)


def test_a_run_is_written_and_replayed_without_its_graph_as_a_config(monkeypatch):
    def to_config(graph):
        raise AssertionError("the graph was written as a config")

    want = reference_serialize(execute_config(CONFIGS["secure_sum"])[1])
    monkeypatch.setattr(ChannelGraph, "to_config", to_config)
    _, t = execute_config(CONFIGS["secure_sum"])
    text = t.serialize()
    assert text == want
    assert replay_transcript(text) == (True, None, "verified")


def test_serialize_is_byte_equal_for_every_payload_shape():
    _, t = execute_config(CONFIGS["secure_sum"])
    payloads = [-7, 0, 10**40 + 1, -(10**40), (1, -2, 3), [[1, [2, -3]], (), []], None,
                True, "text", ["aé\n", None]]
    routed = [event for event in t.log if event[2] is not None]
    log = tuple((audience, (label, payload), route)
                for (audience, (label, _), route), payload in zip(routed * 3, payloads))
    t = dataclasses.replace(t, log=log)
    assert len(t.messages) == len(payloads)
    assert t.serialize() == reference_serialize(t)


# Damage that leaves every record as it was: the reference replay compared
# raw lines and called it a divergence; replay compares records.  A line of
# only "\x0b" or "\u00a0" is blank to str.strip, so both parses skip it.
FORMATTING_ONLY = {"CRLF line endings", "whitespace-padded lines", "a vertical-tab line",
                   "a no-break-space line"}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_parse_and_replay_agree_with_the_reference(name, damage):
    _, t = execute_config(CONFIGS[name])
    text = DAMAGE[damage](t.serialize())
    assert outcome(parse_transcript, text) == outcome(reference_parse, text)
    if damage in FORMATTING_ONLY:
        assert outcome(replay_transcript, text) == ("returned", (True, None, "verified"))
    else:
        assert outcome(replay_transcript, text) == outcome(reference_replay, text)


def test_damage_reaches_each_verdict():
    # The damaged texts cover verification, divergence and a ReplayError.
    _, t = execute_config(CONFIGS["secure_sum"])
    verdicts = {damage: outcome(replay_transcript, fn(t.serialize()))
                for damage, fn in DAMAGE.items()}
    assert verdicts["untouched"] == ("returned", (True, None, "verified"))
    assert verdicts["leading blank lines"] == ("returned", (True, None, "verified"))
    assert verdicts["one altered payload"][1][0] is False
    assert verdicts["CRLF line endings"] == ("returned", (True, None, "verified"))
    assert verdicts["whitespace-padded lines"] == ("returned", (True, None, "verified"))
    assert verdicts["reordered header keys"] == ("returned", (True, None, "verified"))
    assert verdicts["trailing garbage"][1] is ReplayError
    assert verdicts["trailing garbage"][2].startswith(
        "truncated or corrupt transcript at line 2: Extra data")
    assert verdicts["corrupt body under an unrunnable header"][1] is ReplayError
    assert "at line 2" in verdicts["corrupt body under an unrunnable header"][2]


def test_parse_header_reads_the_first_non_blank_line_only():
    _, t = execute_config(CONFIGS["secure_sum"])
    text = "\n  \n" + t.serialize() + "not json\n"
    assert parse_header(text) == reference_parse(t.serialize())[0]
    with pytest.raises(ReplayError, match="empty transcript"):
        parse_header(" \n\t\n")


@pytest.mark.parametrize("text, line", [
    ('{"meta":{}}\n5\n', 2),
    ("HEADER\n[]\n", 2),
    ("5\n", 1),
    ('"metameta"\n', 1),
], ids=["number message", "array message", "number header", "string header"])
def test_line_that_is_not_an_object_is_a_replay_error(text, line):
    if text.startswith("HEADER"):
        _, t = execute_config(CONFIGS["secure_sum"])
        text = text.replace("HEADER", t.serialize().split("\n")[0])
    for fn in (parse_transcript, replay_transcript):
        with pytest.raises(ReplayError, match=f"line {line} is a JSON .*, not an object"):
            fn(text)


@pytest.mark.parametrize("text, line", [
    ('\n{"meta":{}}\n\n  \n5\n', 5),
    ('\n\t\n{"meta":{}}\n\n{"seq": 0,\n', 5),
], ids=["number message", "corrupt message"])
def test_message_error_line_numbers_count_blank_lines(text, line):
    for fn in (parse_transcript, replay_transcript):
        with pytest.raises(ReplayError, match=f" at line {line}[ :]"):
            fn(text)


def test_header_error_line_number_counts_blank_lines():
    for fn in (parse_header, parse_transcript, replay_transcript):
        with pytest.raises(ReplayError, match="header at line 3 is a JSON list"):
            fn(" \n\n[]\n")


# Under == a record's seq 1 equals 1.0 and true: the check is on the JSON type.
SEQ_NOT_AN_INTEGER = [
    ('"seq":1,', '"seq":true,', True, 3),
    ('"seq":1,', '"seq":1.0,', 1.0, 3),
    ('"seq":2,', '"seq":2.0,', 2.0, 4),
    ('"seq":0,', '"seq":false,', False, 2),
    ('"seq":2,', '"seq":"2",', "2", 4),
]


@pytest.mark.parametrize("old, new, seq, line", SEQ_NOT_AN_INTEGER,
                         ids=["true for 1", "1.0 for 1", "2.0 for 2", "false for 0", "string 2"])
def test_a_seq_that_is_not_a_json_integer_is_a_divergence(old, new, seq, line):
    _, t = execute_config({"protocol": "secure_sum", "inputs": ["3", "5", "7"], "seed": 7})
    text = t.serialize()
    assert text.count(old) == 1
    ok, got, detail = replay_transcript(text.replace(old, new))
    assert (ok, got, type(got), detail) == (False, seq, type(seq), f"first divergence at line {line}")


def test_an_untouched_replay_does_not_parse_the_body(monkeypatch):
    import ringmpc.cli

    def parse_transcript(text):
        raise AssertionError("the body was parsed")

    _, t = execute_config(CONFIGS["secure_sum"])
    monkeypatch.setattr(ringmpc.cli, "parse_transcript", parse_transcript)
    assert replay_transcript(t.serialize()) == (True, None, "verified")


def test_a_replay_with_one_altered_payload_decodes_that_line_and_its_counterpart(monkeypatch):
    import ringmpc.cli

    def parse_transcript(text):
        raise AssertionError("the body was parsed")

    decoded = []

    def record(line, n):
        decoded.append(line)
        return _record(line, n)

    lines = _deal_lines()
    faithful = list(lines)
    _altered_payload(lines)
    n = len(lines) // 2
    monkeypatch.setattr(ringmpc.cli, "parse_transcript", parse_transcript)
    monkeypatch.setattr(ringmpc.cli, "_record", record)
    assert replay_transcript("\n".join(lines)) == (
        False, _seq(faithful[n]), f"first divergence at line {n + 1}")
    assert decoded == [lines[n], faithful[n]]


def record_replay(text: str):
    """Replay as a comparison of every record of the text with every record of the run."""
    meta = parse_header(text)
    try:
        _, transcript = execute_config(meta)
    except TopologyError:
        parse_transcript(text)
        raise
    except ProtocolError as e:
        parse_transcript(text)
        raise ReplayError(f"the transcript header cannot be re-executed: {e}") from None
    _, got = parse_transcript(text)
    _, want = parse_transcript(transcript.serialize())
    for i in range(max(len(got), len(want))):
        g = got[i] if i < len(got) else None
        w = want[i] if i < len(want) else None
        if g != w or type(g["seq"]) is not int:
            return False, (w if g is None else g)["seq"], f"first divergence at line {i + 2}"
    return True, None, "verified"


_LINE_DAMAGE = st.sampled_from(["alter", "corrupt", "drop", "duplicate", "swap", "blank", "pad",
                                "crlf", "reorder keys", "seq true", "not an object"])


def _damage(lines, kind, n):
    """``lines`` with damage of the given kind at message line ``n``."""
    line = lines[n]
    if kind == "alter":
        lines[n] = line.replace('"payload":', '"payload":["x",', 1).replace(',"security"',
                                                                            '],"security"', 1)
    elif kind == "corrupt":
        lines[n] = line[:-2]
    elif kind == "drop":
        del lines[n]
    elif kind == "duplicate":
        lines.insert(n, line)
    elif kind == "swap":
        lines[n], lines[n + 1] = lines[n + 1], line
    elif kind == "blank":
        lines.insert(n, " ")
    elif kind == "pad":
        lines[n] = f" {line}\t"
    elif kind == "crlf":
        lines[n] = line + "\r"
    elif kind == "reorder keys" and line.startswith("{") and line.endswith("}"):
        lines[n] = json.dumps(dict(reversed(json.loads(line).items())))
    elif kind == "reorder keys":
        pass
    elif kind == "seq true":
        lines[n] = line.replace('"seq":', '"seq":true,"was":', 1)
    else:
        lines[n] = "[]"
    return lines


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LINE_DAMAGE, st.floats(0, 1, exclude_max=True)), max_size=3))
def test_replay_agrees_with_a_full_record_comparison(damages):
    lines = _deal_lines()
    for kind, pick in damages:
        lines = _damage(lines, kind, 1 + int(pick * (len(lines) - 3)))
    text = "\n".join(lines)
    assert outcome(replay_transcript, text) == outcome(record_replay, text)


# Damage to one or two message lines of a card deal's transcript and the verdict
# each must get: line n is the text's n-th line, counted from 1.
def _deal_lines():
    _, t = execute_config(CONFIGS["card_deal"])
    return t.serialize().split("\n")


def _seq(line):
    return json.loads(line)["seq"]


def test_a_divergence_then_a_corrupt_later_line_is_a_replay_error():
    lines = _deal_lines()
    _altered_payload(lines)
    later = len(lines) // 2 + 10
    lines[later - 1] = lines[later - 1][:-3]
    with pytest.raises(ReplayError, match=f"corrupt transcript at line {later}: "):
        replay_transcript("\n".join(lines))


@pytest.mark.parametrize("edit", [
    lambda lines: lines.__setitem__(20, f"  {lines[20]}\t"),
    lambda lines: lines.insert(20, ""),
    lambda lines: lines.insert(20, " \t "),
    lambda lines: lines.__setitem__(
        20, json.dumps(dict(reversed(json.loads(lines[20]).items())))),
], ids=["one padded line", "a blank line inserted", "a whitespace line inserted",
        "one line's keys reordered"])
def test_reformatting_one_message_line_is_verified(edit):
    lines = _deal_lines()
    edit(lines)
    assert replay_transcript("\n".join(lines)) == (True, None, "verified")


def test_two_swapped_message_lines_diverge_at_the_first():
    lines = _deal_lines()
    lines[20], lines[21] = lines[21], lines[20]
    assert replay_transcript("\n".join(lines)) == (
        False, _seq(lines[20]), "first divergence at line 21")


def test_a_dropped_last_message_diverges_at_its_seq():
    lines = _deal_lines()
    last = lines.pop(-2)
    assert replay_transcript("\n".join(lines)) == (
        False, _seq(last), f"first divergence at line {len(lines)}")


# serialize quotes each name, kind and security once per transcript and writes
# it into every message line, so a "%" or an escape in any of them must come out as is.
ODD_NAMES = ["P%d", "P%%s", 'P"2\\', "Pé%s"]


def _named_sum(names, inputs=None, seed=3):
    k = len(names)
    return {
        "protocol": "secure_sum", "inputs": inputs or list(range(1, k + 1)), "seed": seed,
        "topology": {"k": k, "parties": [{"name": n} for n in names],
                     "edges": [[i, (i + 1) % k, "secure"] for i in range(k)]},
    }


def _routes(t):
    return [route for _, _, route in t.log if route is not None]


def test_serialize_is_byte_equal_for_names_that_hold_format_characters():
    _, t = execute_config(_named_sum(ODD_NAMES))
    text = t.serialize()
    assert text == reference_serialize(t)
    assert all(json.dumps(name) in text for name in ODD_NAMES)


def test_serialize_is_byte_equal_for_kind_and_security_that_hold_percent():
    _, t = execute_config(_named_sum(ODD_NAMES))
    odd = [("%s", "se%cure%%"), ("elem%d", "%"), ("%(x)s", 'in"secure\\')]
    log = []
    for n, (audience, entry, route) in enumerate(t.log):
        if route is not None:
            kind, security = odd[n % len(odd)]
            route = (route[0], route[1], security, kind)
        log.append((audience, entry, route))
    t = dataclasses.replace(t, log=tuple(log))
    assert {m.kind for m in t.messages} == {kind for kind, _ in odd}
    assert t.serialize() == reference_serialize(t)


def test_serialize_is_byte_equal_when_every_route_is_distinct():
    _, t = execute_config({"protocol": "secure_sum", "inputs": list(range(50)), "seed": 9})
    routes = _routes(t)
    assert len(set(routes)) == len(routes) == 100  # 50 cycle hops, 50 broadcasts
    assert t.serialize() == reference_serialize(t)


def test_serialize_is_byte_equal_when_a_few_routes_repeat_hundreds_of_times():
    _, t = execute_config({"protocol": "card_deal", "inputs": [], "seed": 0,
                           "params": {"r": 52, "k": 3, "N": 10, "with_labels": True}})
    routes = _routes(t)
    assert len(routes) > 10 * len(set(routes))
    assert t.serialize() == reference_serialize(t)


_ODD_TEXT = st.text(alphabet=st.sampled_from('%"\\sdé\n*'), max_size=6)
_PAYLOADS = st.recursive(
    st.one_of(st.booleans(), st.none(), st.integers(-10**40, 10**40), _ODD_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)),
    max_leaves=8,
)
_EVENTS = st.lists(st.one_of(
    st.tuples(st.integers(0, 3), _PAYLOADS).map(lambda e: ((e[0],), ("note", e[1]), None)),
    st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 2, 3, EVERYONE]),
              st.sampled_from(["secure", "insecure", "%s"]), st.sampled_from(["elem", "%d"]),
              _PAYLOADS).map(lambda e: ((e[0],), ("sent", e[4]), e[:4])),
), max_size=40)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_EVENTS)
def test_serialize_is_byte_equal_for_random_logs(events):
    _, t = execute_config(_named_sum(ODD_NAMES))
    t = dataclasses.replace(t, log=tuple(events))
    assert t.serialize() == reference_serialize(t)


# The header's topology is written field by field rather than by the encoder; the stdlib's
# json.dumps of the same meta is the oracle.
_NAME_TEXT = st.text(alphabet=st.sampled_from('P1"\\%s\n\t\x00\x1f\x7féЖ漢\u2028'), max_size=5)
_BIG_INTS = st.one_of(st.integers(-10**30, -1), st.integers(2**64, 2**80), st.integers(-3, 3))
_PARAM_VALUES = st.one_of(_BIG_INTS, st.lists(_BIG_INTS, max_size=3),
                          st.lists(st.lists(_BIG_INTS, max_size=2), max_size=2),
                          _NAME_TEXT, st.booleans(), st.none())


@st.composite
def _headers(draw):
    """(meta, params): a header's meta as the stdlib writes it, and the params it encodes."""
    k = draw(st.integers(3, 12))
    names = draw(st.lists(_NAME_TEXT, min_size=k, max_size=k, unique=True))
    full = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs),
                                    st.sampled_from(["secure", "insecure"])),
                          unique_by=lambda e: e[0], max_size=2 * k))
    ring = draw(st.one_of(st.builds(lambda m: {"ring": "Zm", "m": m}, st.integers(2, 2**70)),
                          st.builds(lambda b: {"ring": "Z", "noise_bound": b},
                                    st.integers(1, 2**70))))
    inputs = draw(st.lists(_BIG_INTS, min_size=k, max_size=k))
    params = draw(st.dictionaries(_NAME_TEXT, _PARAM_VALUES, max_size=3))
    meta = {
        "protocol": draw(st.sampled_from(["secure_sum", 'a"b%s\\é'])),
        "ring": ring,
        "seed": draw(st.integers(0, 2**40)),
        "topology": {"k": k,
                     "parties": [{"full": f, "name": n} for n, f in zip(names, full)],
                     "edges": sorted([i, j, security] for (i, j), security in edges)},
        "inputs": [str(v) for v in inputs],
        "params": _encode(params),
    }
    return meta, params


class _Named(engine.Protocol):
    """A protocol of any name and params; its program is never run."""

    def __init__(self, ring, name, params):
        super().__init__(ring)
        self.name, self._params = name, params

    def params(self):
        return self._params


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_headers())
def test_the_header_line_is_the_stdlib_encoding_of_the_meta(header):
    meta, params = header
    protocol = _Named(RingSpec.from_config(meta["ring"]), meta["protocol"], params)
    graph = ChannelGraph.from_config(meta["topology"])
    run = engine.Run(protocol, graph, [int(v) for v in meta["inputs"]], meta["seed"])
    for i in range(graph.k):
        run.broadcast(i, i, f"b{i}")
    t = run.transcript()
    text = t.serialize()
    assert text.split("\n")[0] == json.dumps({"meta": meta}, sort_keys=True,
                                             separators=(",", ":"))
    assert text == reference_serialize(t)
    assert parse_header(text) == meta


# A faithful labelled 52-card deal written with CRLF line endings: each line equals its
# counterpart once its carriage return is removed, so replay decodes none of them.
_LABELLED_DEAL = {"protocol": "card_deal", "inputs": [], "seed": 5,
                  "params": {"r": 52, "k": 3, "N": 10, "with_labels": True}}


def _counted_records(monkeypatch):
    """The line numbers of the body records replay decodes from now on."""
    decoded = []

    def record(line, n):
        decoded.append(n)
        return _record(line, n)

    monkeypatch.setattr(cli, "_record", record)
    return decoded


def test_a_faithful_crlf_replay_decodes_no_body_line(monkeypatch):
    _, t = execute_config(_LABELLED_DEAL)
    text = t.serialize().replace("\n", "\r\n")
    decoded = _counted_records(monkeypatch)
    assert replay_transcript(text) == (True, None, "verified")
    assert decoded == []


def test_a_crlf_transcript_with_one_altered_payload_diverges_at_that_seq(monkeypatch):
    _, t = execute_config(_LABELLED_DEAL)
    lines = _altered_payload(t.serialize().split("\n"))
    n = len(lines) // 2
    decoded = _counted_records(monkeypatch)
    ok, seq, detail = replay_transcript("\r\n".join(lines))
    assert (ok, seq, detail) == (False, _seq(lines[n]), f"first divergence at line {n + 1}")
    assert decoded == [n + 1, n + 1]  # the altered line and its counterpart


# Each line padded with JSON whitespace at both ends equals its counterpart once the
# padding is stripped, so replay decodes none of a faithful transcript's lines.
PADDINGS = {"space and tab": (" ", "\t"), "tabs and CRLF": ("\t\t", " \r"), "spaces": ("  ", " ")}


def _padded(lines, padding):
    before, after = PADDINGS[padding]
    return "\n".join(f"{before}{line}{after}" if line else line for line in lines)


@pytest.mark.parametrize("padding", sorted(PADDINGS))
def test_a_faithful_padded_replay_decodes_no_body_line(monkeypatch, padding):
    _, t = execute_config(_LABELLED_DEAL)
    text = _padded(t.serialize().split("\n"), padding)
    decoded = _counted_records(monkeypatch)
    assert replay_transcript(text) == (True, None, "verified")
    assert decoded == []


@pytest.mark.parametrize("padding", sorted(PADDINGS))
def test_a_padded_transcript_with_one_altered_payload_diverges_at_that_seq(monkeypatch, padding):
    _, t = execute_config(_LABELLED_DEAL)
    lines = _altered_payload(t.serialize().split("\n"))
    n = len(lines) // 2
    decoded = _counted_records(monkeypatch)
    ok, seq, detail = replay_transcript(_padded(lines, padding))
    assert (ok, seq, detail) == (False, _seq(lines[n]), f"first divergence at line {n + 1}")
    assert decoded == [n + 1, n + 1]  # the altered line and its counterpart


def test_parse_decodes_a_faithful_body_by_scans_alone(monkeypatch):
    """Every line of a faithful transcript is a whole record to the scan: none goes to
    ``_record``, and the records are those ``json.loads`` gives."""
    import ringmpc.engine as engine

    _, t = execute_config(_LABELLED_DEAL)
    text = t.serialize()
    fallbacks = []
    monkeypatch.setattr(engine, "_record", lambda line, n: fallbacks.append(n))
    assert parse_transcript(text) == reference_parse(text)
    assert fallbacks == []
