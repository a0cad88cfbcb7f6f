"""The report of every standard secrecy check and of its planted leak is pinned.

``repr(SecrecyReport)`` holds the verdict, the run count and, on a FAIL,
the counterexample: its group, its two target values and the cell counts
that differ.  The 24 checks of ``standard_suite()`` must PASS with these
run counts.  Each of the 20 checks with a ``given`` concession, run
without it, is a planted leak and must FAIL with exactly this
counterexample, so any change in how runs are enumerated, keyed or
tallied, or in the order the tally is read, shows here.
"""

import dataclasses

import pytest

from ringmpc.analysis import secrecy_enumeration_check, standard_suite

STANDARD = [
    'SecrecyReport(name="secure_sum/Z_2/k=3/P1 learns only the others\' total", ok=True, runs=64, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_2/k=3/P2 learns only the others\' total", ok=True, runs=64, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_2/k=3/P3 learns only the others\' total", ok=True, runs=64, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_2/k=4/P1 learns only the others\' total", ok=True, runs=256, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_2/k=4/P2 learns only the others\' total", ok=True, runs=256, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_2/k=4/P3 learns only the others\' total", ok=True, runs=256, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_2/k=4/P4 learns only the others\' total", ok=True, runs=256, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_3/k=3/P1 learns only the others\' total", ok=True, runs=729, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_3/k=3/P2 learns only the others\' total", ok=True, runs=729, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_3/k=3/P3 learns only the others\' total", ok=True, runs=729, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_3/k=4/P1 learns only the others\' total", ok=True, runs=6561, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_3/k=4/P2 learns only the others\' total", ok=True, runs=6561, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_3/k=4/P3 learns only the others\' total", ok=True, runs=6561, counterexample=None)',
    'SecrecyReport(name="secure_sum/Z_3/k=4/P4 learns only the others\' total", ok=True, runs=6561, counterexample=None)',
    "SecrecyReport(name='commit3/Z_2/P2 learns nothing about (n1,n3)', ok=True, runs=64, counterexample=None)",
    "SecrecyReport(name='commit3/Z_2/P1 learns only n2+n3', ok=True, runs=64, counterexample=None)",
    "SecrecyReport(name='commit3/Z_2/P3 learns only n1+n2', ok=True, runs=64, counterexample=None)",
    "SecrecyReport(name='commit3/Z_3/P2 learns nothing about (n1,n3)', ok=True, runs=729, counterexample=None)",
    "SecrecyReport(name='commit3/Z_3/P1 learns only n2+n3', ok=True, runs=729, counterexample=None)",
    "SecrecyReport(name='commit3/Z_3/P3 learns only n1+n2', ok=True, runs=729, counterexample=None)",
    "SecrecyReport(name='commit2_dummy/Z_2/D learns only n1+n2', ok=True, runs=16, counterexample=None)",
    "SecrecyReport(name='commit2_dummy/Z_2/A learns nothing about n2', ok=True, runs=16, counterexample=None)",
    "SecrecyReport(name='commit2_dummy/Z_2/B learns nothing about n1', ok=True, runs=16, counterexample=None)",
    "SecrecyReport(name='millionaires/Z_11/D learns only n1-n2', ok=True, runs=14641, counterexample=None)",
]

PLANTED = [
    'SecrecyReport(name="planted leak: secure_sum/Z_2/k=3/P1 learns only the others\' total", ok=False, runs=64, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail=\'view distribution differs between target values (cell count 1, expected 2*8/32)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_2/k=3/P2 learns only the others\' total", ok=False, runs=64, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail=\'view distribution differs between target values (cell count 1, expected 2*8/32)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_2/k=3/P3 learns only the others\' total", ok=False, runs=64, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail=\'view distribution differs between target values (cell count 1, expected 2*8/32)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_2/k=4/P1 learns only the others\' total", ok=False, runs=256, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 4*16/128)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_2/k=4/P2 learns only the others\' total", ok=False, runs=256, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 4*16/128)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_2/k=4/P3 learns only the others\' total", ok=False, runs=256, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 4*16/128)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_2/k=4/P4 learns only the others\' total", ok=False, runs=256, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 4*16/128)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_3/k=3/P1 learns only the others\' total", ok=False, runs=729, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail=\'view distribution differs between target values (cell count 1, expected 3*27/243)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_3/k=3/P2 learns only the others\' total", ok=False, runs=729, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail=\'view distribution differs between target values (cell count 1, expected 3*27/243)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_3/k=3/P3 learns only the others\' total", ok=False, runs=729, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail=\'view distribution differs between target values (cell count 1, expected 3*27/243)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_3/k=4/P1 learns only the others\' total", ok=False, runs=6561, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 9*81/2187)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_3/k=4/P2 learns only the others\' total", ok=False, runs=6561, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 9*81/2187)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_3/k=4/P3 learns only the others\' total", ok=False, runs=6561, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 9*81/2187)\'))',
    'SecrecyReport(name="planted leak: secure_sum/Z_3/k=4/P4 learns only the others\' total", ok=False, runs=6561, counterexample=Counterexample(group=((0,), None), target_a=(0, 0, 0), target_b=(0, 0, 1), detail=\'view distribution differs between target values (cell count 1, expected 9*81/2187)\'))',
    "SecrecyReport(name='planted leak: commit3/Z_2/P1 learns only n2+n3', ok=False, runs=64, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail='view distribution differs between target values (cell count 2, expected 4*8/32)'))",
    "SecrecyReport(name='planted leak: commit3/Z_2/P3 learns only n1+n2', ok=False, runs=64, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail='view distribution differs between target values (cell count 2, expected 4*8/32)'))",
    "SecrecyReport(name='planted leak: commit3/Z_3/P1 learns only n2+n3', ok=False, runs=729, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail='view distribution differs between target values (cell count 3, expected 9*27/243)'))",
    "SecrecyReport(name='planted leak: commit3/Z_3/P3 learns only n1+n2', ok=False, runs=729, counterexample=Counterexample(group=((0,), None), target_a=(0, 0), target_b=(0, 1), detail='view distribution differs between target values (cell count 3, expected 9*27/243)'))",
    "SecrecyReport(name='planted leak: commit2_dummy/Z_2/D learns only n1+n2', ok=False, runs=16, counterexample=Counterexample(group=((), None), target_a=(0, 0), target_b=(0, 1), detail='view distribution differs between target values (cell count 2, expected 4*4/16)'))",
    "SecrecyReport(name='planted leak: millionaires/Z_11/D learns only n1-n2', ok=False, runs=14641, counterexample=Counterexample(group=((), None), target_a=(0, 0), target_b=(0, 1), detail='view distribution differs between target values (cell count 11, expected 121*121/14641)'))",
]


def _planted(spec):
    return dataclasses.replace(spec, name=f"planted leak: {spec.name}", given=None)


SUITE = standard_suite()
SPECS = SUITE + [_planted(s) for s in SUITE if s.given is not None]


def test_every_standard_check_and_planted_leak_is_pinned():
    assert (len(SUITE), len(SPECS)) == (len(STANDARD), len(STANDARD) + len(PLANTED)) == (24, 44)


@pytest.mark.parametrize("spec, expected", list(zip(SPECS, STANDARD + PLANTED)),
                         ids=[s.name for s in SPECS])
def test_report_matches_its_pin(spec, expected):
    assert repr(secrecy_enumeration_check(spec)) == expected
