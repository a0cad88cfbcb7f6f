"""Command-line front end: run protocols from JSON configs, replay, verify.

Exit codes: 0 success, 2 config/schema problem, 3 topology rejection,
4 cheat detection or replay divergence, 1 anything else.

``run`` and ``replay`` name no protocol: ``RUNNERS`` maps each protocol
name to its ``Protocol`` class, whose hooks decode the config and encode
the outcome.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import analysis, arithmetic, poker, sharing
from . import ring as ring_mod
from .commitment import COMMIT2_CHECKS, COMMIT3_CHECKS, Commit2Dummy, Commit3, ObliviousTransfer
from .engine import _record, commit, parse_header, parse_transcript, run
from .errors import CheatDetected, ProtocolError, ReplayError, TopologyError
from .jsonvalues import json_int, json_ints, json_object
from .poker import CardDeal, DealConfig
from .topology import ChannelGraph

EXIT_SCHEMA = 2
EXIT_TOPOLOGY = 3
EXIT_CHEAT = 4

# The order of the classes is the order of ``analysis.standard_suite`` and ``ringmpc verify``.
RUNNERS = {
    cls.name: cls
    for cls in (
        arithmetic.SecureSum, arithmetic.SecureRating, arithmetic.SecureProduct,
        arithmetic.SumOfPowers, arithmetic.ExampleF1, arithmetic.ExampleF2,
        Commit3, Commit2Dummy, arithmetic.MillionairesCompare, arithmetic.MillionairesBitwise,
        ObliviousTransfer, CardDeal, sharing.ShareSecret, sharing.DistributeShares,
    )
}

_REQUIRED = object()


def _field(config: dict, key: str, decode, default=_REQUIRED):
    """``decode`` of field ``key`` of ``config``, or of ``default`` if it is absent or null.

    A None default leaves an absent field None.  Any fault in the value is
    raised as a ProtocolError that names the field.
    """
    raw = config.get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ProtocolError(f"{key!r} is missing")
        if default is None:
            return None
        raw = default
    try:
        return decode(raw)
    except KeyError as e:
        raise ProtocolError(f"{key!r} is missing {e}") from None
    except (IndexError, ValueError, TypeError, AttributeError) as e:
        raise ProtocolError(f"bad {key!r}: {e}") from None


# The fields of a run config, which a transcript header writes.
FIELDS = ("protocol", "inputs", "ring", "params", "topology", "seed")


def _known(raw, fields, where: str = "") -> None:
    """Refuse a key of ``raw``, a decoded JSON object or None, that is not in ``fields``."""
    for key in raw or ():
        if key not in fields:
            raise ProtocolError(f"unknown field {key!r}{where}")


def decode_config(config):
    """(protocol, graph, inputs, seed) from a run config or a transcript header.

    A field outside ``FIELDS``, a ring field that ``RingSpec.to_config``
    does not write and a params field that ``Protocol.params`` does not
    write are each refused: no field is ignored.
    """
    if not isinstance(config, dict):
        raise ProtocolError(f"a config is a JSON object, not {type(config).__name__}")
    _known(config, FIELDS)
    name = config.get("protocol")
    cls = RUNNERS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ProtocolError(f"unknown protocol {name!r}; choose from {sorted(RUNNERS)}")
    inputs = _field(config, "inputs", cls.decode_inputs, [] if cls.arity == 0 else _REQUIRED)
    ring = _field(config, "ring", lambda raw: ring_mod.RingSpec.from_config(json_object(raw)),
                  {"ring": "Z"})
    protocol = _field(config, "params",
                      lambda raw: cls.from_params(ring, json_object(raw), inputs), {})
    _known(config.get("ring"), ring.to_config(), " in 'ring'")
    _known(config.get("params"), protocol.params(), " in 'params'")
    graph = _field(config, "topology", lambda raw: ChannelGraph.from_config(json_object(raw)),
                   None)
    return protocol, graph, inputs, _field(config, "seed", json_int, 0)


def execute_config(config):
    """Run a config; returns (outcome JSON, transcript).

    A protocol with a reveal phase is committed and revealed at once, and
    its transcript holds both phases.
    """
    protocol, graph, inputs, seed = decode_config(config)
    if protocol.reveal is None:
        outcome, transcript = run(protocol, graph, inputs, seed)
    else:
        session = commit(protocol, graph, inputs, seed)
        outcome, transcript = session.reveal(), session.transcript
    return protocol.encode(outcome), transcript


def replay_transcript(text: str):
    """Re-execute a transcript's run and compare its message records.

    Returns (ok, divergence_seq, detail).  A header that does not describe
    a run this package can re-execute raises ReplayError.  Only the header
    is decoded unless the text differs from the re-executed run's; then
    only the body lines that differ from their counterparts are, so a
    structural fault is a ReplayError, not a divergence, and records are
    compared, so line endings and padding are not either.  A record whose
    ``seq`` is not a JSON integer is a divergence.
    """
    meta = parse_header(text)
    try:
        _, transcript = execute_config(meta)
    except ProtocolError as e:
        parse_transcript(text)  # a corrupt body is reported before the header's fault
        if isinstance(e, TopologyError):
            raise
        raise ReplayError(f"the transcript header cannot be re-executed: {e}") from None
    expected = transcript.serialize()
    if expected == text:
        return True, None, "verified"
    return _compare_body(text, expected.split("\n")[1:-1])


def _compare_body(text: str, want: list):
    """(ok, divergence_seq, detail) of the text's message records against the lines ``want``.

    Message i, the i-th non-blank line after the header, is compared with
    ``want[i]`` and is reported as line i + 2.  A line equal to its
    counterpart once JSON whitespace (space, tab, carriage return) is
    stripped from both ends holds the same record, with an integer seq;
    every other non-blank line is decoded, also after the first divergence,
    so that a structural fault anywhere is a ReplayError.
    """
    lines = text.split("\n")
    start = next(n for n, line in enumerate(lines) if line.strip()) + 1  # after the header
    verdict, i = None, 0
    for n in range(start, len(lines)):
        line = lines[n]
        w = want[i] if i < len(want) else None
        if line.strip(" \t\r") != w:
            if not line.strip():
                continue
            got = _record(line, n + 1)
            # 1 == 1.0 == True: a seq that is not a JSON integer differs, whatever its value.
            if verdict is None and (w is None or got != _record(w, i + 2)
                                    or type(got["seq"]) is not int):
                verdict = False, got["seq"], f"first divergence at line {i + 2}"
        i += 1
    if verdict is None and i < len(want):
        verdict = False, _record(want[i], i + 2)["seq"], f"first divergence at line {i + 2}"
    return verdict or (True, None, "verified")


def _check_names(raw) -> list:
    """The ``checks`` of a verify spec file: a JSON list of check names."""
    if not isinstance(raw, list) or not all(isinstance(name, str) for name in raw):
        raise TypeError("it must be a list of strings")
    return raw


def _json_int(raw) -> int:
    """A JSON integer: not a bool, a float or, unlike ``json_int``, a string of digits."""
    if type(raw) is not int:
        raise TypeError(f"{raw!r} is not a JSON integer")
    return raw


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exit_codes():
    """Exit 3 on a rejected topology, 4 on detected cheating, 2 on any other package error."""
    try:
        yield
    except TopologyError as e:
        _fail(EXIT_TOPOLOGY, str(e))
    except CheatDetected as e:
        _fail(EXIT_CHEAT, str(e))
    except ProtocolError as e:
        _fail(EXIT_SCHEMA, str(e))


def _load(path, what: str) -> dict:
    """The JSON object in the file at ``path``; exits 2 if the file holds none."""
    try:
        body = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        _fail(EXIT_SCHEMA, f"{what} is not valid JSON: {e}")
    if not isinstance(body, dict):
        _fail(EXIT_SCHEMA, f"{what} must be a JSON object, not {type(body).__name__}")
    return body


def _int_list(ctx, param, value):
    """Click callback: the option's comma-separated integers as a tuple."""
    try:
        return tuple(int(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None


def _tamper_option(checks):
    """``--tamper label=value``: one reveal payload substituted, its label one of ``checks``."""
    labels = [label for label, _ in checks]

    def parse(ctx, param, value):
        if value is None:
            return None
        label, _, number = value.partition("=")
        if label in labels:
            try:
                return {label: int(number)}
            except ValueError:
                pass
        raise click.BadParameter(f"expected label=integer with a label from {labels}")

    return click.option("--tamper", default=None, callback=parse,
                        help="label=value substitution injected into one reveal message.")


def _modulus_ring(modulus):
    """Z_modulus, or Z when no modulus is given."""
    return ring_mod.integers() if modulus is None else ring_mod.mod_ring(modulus)


def _emit(body, transcript, out, indent=None):
    """Print ``body`` as JSON; write the transcript to the file ``out`` if one is named."""
    if out:
        with _exit_codes():
            text = transcript.serialize()
        Path(out).write_text(text)
    click.echo(json.dumps(body, indent=indent))


def _reveal(session, tamper, out, indent=None):
    with _exit_codes():
        outcome = session.reveal(tamper)
    _emit(session.run.protocol.encode(outcome), session.transcript, out, indent)


@click.group()
def main():
    """Unconditionally secure multi-party protocols on cycle topologies."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Where to write the transcript (line-delimited JSON).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def cmd_run(config_path, out, seed):
    """Run a protocol described by a JSON config file."""
    config = _load(config_path, "config")
    if seed is not None:
        config["seed"] = seed
    with _exit_codes():
        outcome, transcript = execute_config(config)
    _emit({"protocol": config["protocol"], "outcome": outcome}, transcript, out, indent=2)


@main.command("replay")
@click.argument("transcript_path", type=click.Path(exists=True, dir_okay=False))
def cmd_replay(transcript_path):
    """Re-run a recorded transcript and verify it byte-for-byte."""
    with _exit_codes():
        ok, seq, detail = replay_transcript(Path(transcript_path).read_text())
    if ok:
        click.echo("verified")
    else:
        click.echo(f"divergence at seq {seq} ({detail})")
        sys.exit(EXIT_CHEAT)


@main.command("verify")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with {'checks': [...], 'budget': n}.")
@click.option("--budget", type=int, default=2_000_000)
@click.option("--list", "list_only", is_flag=True, help="List available checks and exit.")
def cmd_verify(spec_path, budget, list_only):
    """Run the exhaustive secrecy-claim suite and report pass/fail."""
    names = None
    if spec_path:
        spec_cfg = _load(spec_path, "spec file")
        with _exit_codes():
            names = _field(spec_cfg, "checks", _check_names, None)
            budget = _field(spec_cfg, "budget", _json_int, budget)
            if names == []:
                raise ProtocolError("'checks' is empty: the spec file selects no check")
    if list_only:
        for s in analysis.standard_suite(budget):
            click.echo(s.name)
        return
    failures = 0
    with _exit_codes():
        for spec in analysis.suite_by_name(names, budget):
            report = analysis.secrecy_enumeration_check(spec)
            if report.ok:
                click.echo(f"PASS  {report.name}  ({report.runs} runs)")
            else:
                failures += 1
                ce = report.counterexample
                click.echo(
                    f"FAIL  {report.name}  ({report.runs} runs): "
                    f"targets {ce.target_a!r} vs {ce.target_b!r} in group {ce.group!r}; "
                    f"{ce.detail}"
                )
    if failures:
        sys.exit(1)


@main.command("deal")
@click.option("--cards", "m", type=int, required=True)
@click.option("--players", "k", type=int, required=True)
@click.option("--counter-bound", "n_bound", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dummies", type=click.Choice(["auto", "two-player"]), default=None,
              help="'auto' with --per-player for a dummy dealer; 'two-player' for 2 reals + dummy.")
@click.option("--per-player", "per_player", type=int, default=None,
              help="Fixed hand size for the dummy-dealer construction.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_deal(m, k, n_bound, seed, dummies, per_player, out):
    """Deal an m-card deck to k players over a secure cycle."""
    if dummies == "auto" and per_player is None:
        raise click.UsageError("--dummies auto needs --per-player")
    if dummies == "two-player" and k != 2:
        raise click.UsageError(f"--dummies two-player deals to 2 players, not --players {k}")
    if dummies == "two-player" and per_player is not None:
        raise click.UsageError("--dummies two-player deals even hands; it takes no --per-player")
    extra = {}
    with _exit_codes():
        if dummies == "two-player":
            real_hands, discarded, outcome, transcript = poker.dummy_deal_two_players(
                m, n_bound, seed
            )
            extra = {
                "real_hands": [[str(c) for c in hand] for hand in real_hands],
                "discarded": [str(c) for c in discarded],
            }
        elif per_player is not None:
            outcome, transcript = poker.dummy_dealer_fixed_hands(
                m, k, per_player, N=n_bound, seed=seed
            )
        else:
            deal = CardDeal(DealConfig(m, k, n_bound), with_labels=True)
            outcome, transcript = run(deal, None, (), seed)
    _emit({**CardDeal.encode(outcome), **extra}, transcript, out, indent=2)


@main.command("share")
@click.option("--secret", type=int, required=True)
@click.option("--players", "k", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--modulus", type=int, default=None, help="Share over Z_m instead of Z.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the shares to a JSON file for later reconstruction.")
def cmd_share(secret, k, seed, modulus, out):
    """Split a secret into k shares that only all k together can recombine."""
    with _exit_codes():
        R = _modulus_ring(modulus)
        shares, _ = run(sharing.ShareSecret(R, k), None, (secret,), seed)
    body = {**sharing.ShareSecret.encode(shares), "ring": R.to_config()}
    if out:
        Path(out).write_text(json.dumps(body))
    click.echo(json.dumps(body, indent=2))


@main.command("reconstruct")
@click.option("--shares", "shares_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
def cmd_reconstruct(shares_path):
    """Recombine a shares file produced by 'share'."""
    body = _load(shares_path, "shares file")
    with _exit_codes():
        R = _field(body, "ring", ring_mod.RingSpec.from_config, {"ring": "Z"})
        shares = _field(body, "shares", json_ints)
        secret = sharing.reconstruct(shares, ring=R)
    click.echo(json.dumps({"secret": str(secret)}))


@main.command("commit3")
@click.option("--values", required=True, callback=_int_list, help="Three comma-separated integers.")
@click.option("--modulus", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--state", "state_path", type=click.Path(dir_okay=False), required=True,
              help="Where to store the committed session for decommit3.")
def cmd_commit3(values, modulus, seed, state_path):
    """Commit three parties to values; reveal later with decommit3."""
    with _exit_codes():
        session = commit(Commit3(ring_mod.mod_ring(modulus)), None, values, seed)
    state = {
        "values": [str(v) for v in session.run.inputs],
        "modulus": modulus,
        "seed": seed,
        "commit_transcript": session.transcript.serialize(),
    }
    Path(state_path).write_text(json.dumps(state))
    ledger_view = {
        name: {label: str(v) for label, v in led.items()}
        for name, led in session.ledgers.items()
    }
    click.echo(json.dumps({"phase": "committed", "ledgers": ledger_view}, indent=2))


@main.command("decommit3")
@click.option("--state", "state_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@_tamper_option(COMMIT3_CHECKS)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the full (commit + reveal) transcript here.")
def cmd_decommit3(state_path, tamper, out):
    """Reveal a commit3 session; corroboration failures exit with code 4."""
    state = _load(state_path, "state file")
    with _exit_codes():
        values = _field(state, "values", Commit3.decode_inputs)
        modulus, seed = _field(state, "modulus", json_int), _field(state, "seed", json_int)
        session = commit(Commit3(ring_mod.mod_ring(modulus)), None, values, seed)
    if session.transcript.serialize() != state.get("commit_transcript"):
        _fail(EXIT_SCHEMA, "state file does not match a faithful commit run")
    _reveal(session, tamper, out, indent=2)


@main.command("commit2")
@click.option("--values", required=True, callback=_int_list, help="Two comma-separated integers.")
@click.option("--modulus", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_tamper_option(COMMIT2_CHECKS)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_commit2(values, modulus, seed, tamper, out):
    """Two-party commitment via a dummy: commit, then reveal immediately."""
    with _exit_codes():
        session = commit(Commit2Dummy(ring_mod.mod_ring(modulus)), None, values, seed)
    _reveal(session, tamper, out)


@main.command("ot")
@click.option("--messages", required=True, callback=_int_list,
              help="Comma-separated integers held by A.")
@click.option("--indices", required=True, callback=_int_list,
              help="Comma-separated 1-based indices B wants.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--modulus", type=int, default=None, help="Run over Z_m instead of Z.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_ot(messages, indices, seed, modulus, out):
    """k-of-n oblivious transfer through a dummy."""
    with _exit_codes():
        protocol = ObliviousTransfer(_modulus_ring(modulus))
        outcome, transcript = run(protocol, None, (messages, indices), seed)
    _emit(ObliviousTransfer.encode(outcome), transcript, out)


if __name__ == "__main__":
    main()
