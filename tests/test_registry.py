"""Every protocol in ``cli.RUNNERS`` round-trips through its own description.

The configs are the ones whose view digests ``test_view_digests`` pins,
one per registered protocol.
"""

import copy

import pytest
from test_view_digests import CONFIGS

from ringmpc import ring as rr
from ringmpc.analysis import standard_suite
from ringmpc.arithmetic import ExampleF2, SecureSum
from ringmpc.cli import RUNNERS, decode_config, execute_config, replay_transcript
from ringmpc.commitment import ObliviousTransfer
from ringmpc.engine import run
from ringmpc.errors import ProtocolError, ReplayError


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_run_then_replay_verifies(name):
    _, transcript = execute_config(CONFIGS[name])
    assert replay_transcript(transcript.serialize()) == (True, None, "verified")


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_from_params_rebuilds_a_byte_identical_run(name):
    protocol, graph, inputs, seed = decode_config(CONFIGS[name])
    clone = type(protocol).from_params(protocol.ring, protocol.params(), inputs)
    assert clone.params() == protocol.params()
    _, original = run(protocol, graph, inputs, seed)
    _, rebuilt = run(clone, graph, inputs, seed)
    assert rebuilt.serialize() == original.serialize()


MALFORMED = [None, -1, 0, 7, "x", [], [1], [[1, 2]], [None], {}, {"a": 1}, True, 1.5]


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_malformed_fields_raise_typed_errors(name):
    # Each top-level field replaced by a malformed value either still runs
    # or raises a ProtocolError; no builtin exception escapes the decoder.
    base = CONFIGS[name]
    for key in ("protocol", "inputs", "ring", "params", "topology", "seed"):
        for value in MALFORMED:
            config = copy.deepcopy(base)
            config[key] = value
            try:
                execute_config(config)
            except ProtocolError:
                pass


def test_custom_g_run_is_refused_on_replay():
    _, transcript = run(ExampleF2(rr.mod_ring(11), lambda x: x + 1), None, (2, 3, 4), seed=1)
    with pytest.raises(ReplayError, match="caller-supplied g"):
        replay_transcript(transcript.serialize())


def test_wrong_input_count_names_the_inputs():
    config = dict(CONFIGS["millionaires_compare"], inputs=[1, 2, 3])
    with pytest.raises(ProtocolError, match="inputs"):
        execute_config(config)


def test_a_transcript_header_holds_lists_of_decimal_strings():
    assert SecureSum.decode_inputs(["3", "-5", "7"]) == (3, -5, 7)
    assert ObliviousTransfer.decode_inputs([["10", "20", "30"], ["1", "3"]]) == ((10, 20, 30),
                                                                                  (1, 3))


# -- the secrecy claims each class declares ------------------------------------

CLAIMING = {"secure_sum", "commit3", "commit2_dummy", "millionaires_compare"}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_each_claim_is_about_the_class_that_declares_it(name):
    # Every other registered class keeps the default: no claim.
    cls = RUNNERS[name]
    specs = cls.claims()
    if name in CLAIMING:
        assert specs
    else:
        assert specs == ()
    assert all(type(spec.protocol) is cls for spec in specs)


def test_the_suite_is_the_classes_claims_in_registry_order_with_one_budget():
    suite = standard_suite(budget=7)
    assert len(suite) == 24
    assert all(spec.budget == 7 for spec in suite)
    assert len({spec.name for spec in suite}) == len(suite)
    assert [spec.name for spec in suite] == [
        spec.name for cls in RUNNERS.values() for spec in cls.claims()]
