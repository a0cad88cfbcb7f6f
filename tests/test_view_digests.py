"""Every observer's view is pinned by a digest taken before the event-log engine.

One fixed config per CLI protocol, plus a secure sum over Z_5 on two
disjoint cycles, is run through ``execute_config``; the SHA-256 of each
party's view entries and of the eavesdropper's view must equal the
recorded digest.  Any change to what the engine shows an observer, or in
what order, changes a digest.  The SHA-256 of every config's serialized
transcript is pinned too, as is that of runs at two composite moduli, and
so is what ``ringmpc run`` prints for every config.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from ringmpc.cli import execute_config, main
from ringmpc.commitment import Commit2Dummy, Commit3, CommitK
from ringmpc.engine import EAVESDROPPER, commit, eavesdropper_view, extract_view
from ringmpc.poker import dummy_deal_two_players, dummy_dealer_fixed_hands
from ringmpc.ring import mod_ring

CONFIGS = {
    "card_deal": {"protocol": "card_deal", "inputs": [], "seed": 11,
                  "params": {"N": 3, "k": 3, "r": 8, "with_labels": True}},
    "commit2_dummy": {"protocol": "commit2_dummy", "inputs": [1, 2], "seed": 11,
                      "ring": {"ring": "Zm", "m": 3}},
    "commit3": {"protocol": "commit3", "inputs": [1, 0, 1], "seed": 11,
                "ring": {"ring": "Zm", "m": 2}},
    "distribute_shares": {"protocol": "distribute_shares", "inputs": [100], "seed": 11,
                          "params": {"initiator": 1, "k": 4}},
    "example_f1": {"protocol": "example_f1", "inputs": [2, 3, 4], "seed": 11},
    "example_f2": {"protocol": "example_f2", "inputs": [2, 3, 4], "seed": 11,
                   "params": {"g": "square"}, "ring": {"ring": "Zm", "m": 11}},
    "millionaires_bitwise": {"protocol": "millionaires_bitwise", "inputs": [5, 3], "seed": 11,
                             "params": {"bit_width": 4}},
    "millionaires_compare": {"protocol": "millionaires_compare", "inputs": [7, 3], "seed": 11},
    "ot_dummy": {"protocol": "ot_dummy", "seed": 11,
                 "inputs": {"messages": [10, 20, 30], "indices": [1, 3]}},
    "secure_product": {"protocol": "secure_product", "inputs": [2, 3, 4], "seed": 11,
                       "ring": {"ring": "Zm", "m": 101}},
    "secure_rating": {"protocol": "secure_rating", "inputs": [2, 4, 6, 8], "seed": 11},
    "secure_sum": {"protocol": "secure_sum", "inputs": [3, 5, 7, 11], "seed": 11},
    "share_secret_kk": {"protocol": "share_secret_kk", "inputs": [100], "seed": 11,
                        "params": {"k": 3}},
    "sum_of_powers": {"protocol": "sum_of_powers", "inputs": [1, 2, 3], "seed": 11,
                      "params": {"exponent": 3}},
    "secure_sum/Z_5/two cycles": {
        "protocol": "secure_sum", "inputs": [1, 2, 3, 4, 0, 2], "seed": 5,
        "ring": {"ring": "Zm", "m": 5},
        "topology": {"k": 6, "edges": [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"],
                                       [3, 4, "secure"], [4, 5, "secure"], [3, 5, "secure"]]},
    },
}


def _digest(entries) -> str:
    return _digest_text(repr(entries))


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def view_digests(config) -> dict:
    """SHA-256 of repr(view entries) for every party of the run and the eavesdropper."""
    _, t = execute_config(config)
    out = {p.name: _digest(extract_view(t, p.name).entries) for p in t.graph.parties}
    out[EAVESDROPPER] = _digest(eavesdropper_view(t).entries)
    return out


# Recorded on the engine with per-party view lists, before the event log.
DIGESTS = {
    "card_deal": {
        "P1": "e6d7ee575b4844bec0678e56c6edeaade6bbcbd36a4974cac4a6e87356156cb6",
        "P2": "b0d0aac8f64ad95071fee9234ee250ab4b7fdbbd2ccc3f8b28c46a1273cff797",
        "P3": "735f607db7f3bd61a7dd14f709d2566b6df5d137997c078cb1644bd8f21a4a9e",
        "eavesdropper": "abdb862067f79eb16749037fedafe7177758987a4ed1365911156fa30255520e",
    },
    "commit2_dummy": {
        "A": "b483bd64d54de5c4ce5ac419583c708ceed77020826a70108ef5cb58ea931c21",
        "B": "3f764681194ad27f7ac0d00e4472d3b012960ce8eb8b1b83f83d0e0cb3aaf62e",
        "D": "7f0dbfe3e25f3aa727cf6ab472a80c30eec742614bf445ed8e205a1502dc4ab3",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "commit3": {
        "P1": "5ffcd121d45ae40ce8659ce991e758d2ca88f1c687c84d2d27e2fdb692fd59eb",
        "P2": "9f9e54a6e60fc1b472f118560f22e76e95b9a2569d341c41ecdd297ab3e89d48",
        "P3": "bee9df9459b32f6f9273f8f1799bbe1927e159873d96bc0f129a6bad9380ef8b",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "distribute_shares": {
        "P1": "47ca3ac36d9d5acc5554317dcd81028334c986db988607ac1652ac86525e399f",
        "P2": "6a06574986734df9a4f5de99ca3ed7b36ae503f570495c34426c7f21b5edab7b",
        "P3": "e4bb48d806d6c8e78411a99ab86918f81fc9814e35def774bafbacd19e144421",
        "P4": "34a15bfcd719d7661ffba20e5557f6c1aa142b40a1803508fce696c636d0d163",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "example_f1": {
        "P1": "a31d991f455e944bc52fd163e3aceee64e0dba3110f9614d5caaa6f5ea699b09",
        "P2": "f8717f67d5379ba7b5ef6e8154a157d49eb21b48f8b5806a723aae52a024801e",
        "P3": "18532fcbc3ad4bd65cb2d0fe0517f4d6df25cfeed20273a810c01b71ac69368f",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "example_f2": {
        "P1": "1aaa26f57d105b26dcc8a086e8f280c1db4e71b1015d6bb7ef58b0a29298aeec",
        "P2": "ecebda779421561cccd44924cb416ef5a372c3ff6483a45fa312f53359dc87f4",
        "P3": "67d492ba5c4ee5076206420d73009302160625700a82ab31ab3d759a4795bfd7",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "millionaires_bitwise": {
        "A": "314b630d02b1ccae4b0e4a27ae6ff1077870ebee9b7e30f4a1a4679e2e2ab674",
        "B": "d7b2014316d3b70e16ba7c08a58179ff217f15bcf38073bb5e0c114a41c66631",
        "D": "19cdf8e6408148ca5a728f6490dd83982bc5fe15af367244706613732535160c",
        "eavesdropper": "38346c97c9eb4633395bf1b3cfdb5b80ff7d06fcadde3580bdca985e214e5243",
    },
    "millionaires_compare": {
        "A": "a973cf07a574136f3e39d7953ce07bd619c7ed4613bf394ac716094c25a3ad5c",
        "B": "304461924f3eee71c81a4ba3a83ea702bde70180a8d8d730e3d1840b866b8cc3",
        "D": "31df82f051de345c70d5f33b165bfea7adcde3d451b7e5f0f7b6f718891d95e8",
        "eavesdropper": "8af27d37613e6aa2ab21670a746a889ab88e49448af8feb90290d056f3ac9282",
    },
    "ot_dummy": {
        "A": "63b255ff87965cb43c301c72b21b3c4cdcef515fdb66097435eb5a82074054a8",
        "B": "b49342e1d8afb6785372b31d99df4320bfa5e0d40dc020aa1550ac569585513c",
        "D": "c5ef249482eaa375eaea84111c832a0bd796379bddee5f2a870245228dd11ff0",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "secure_product": {
        "P1": "0c05964ac31634cc9c36ed12df6a5cebb08025f6f9a73bb1656996527a1f39ef",
        "P2": "fd649554ce3f7870108d9d2c0335644916c8e4d149d48a7a829c76aff23e339a",
        "P3": "ea8f57db00e2cd7dac0b9d806a519253ee3914015d483e1118c1febcafd05761",
        "eavesdropper": "03603e8e19116686cb930341886859b0306d3343bb0ad2f3fe5a9a2eb89ca4bc",
    },
    "secure_rating": {
        "B": "1fe91c634f18ad67940e2bc99cb0f44bd678d8fdd99bf25f73ac2e1a202598a3",
        "P1": "71728bcbbc502916e9f3c99b5a456d2267bd0220dc96ab98c4d94e06aa10fd58",
        "P2": "768bc408073b092542c3a86a001101849ba0bacfeeec86772fa10a9ff006f8ba",
        "P3": "99a70e49b7ebee364fc0cefb450be30058e1aa9b6fc91c8194b85330856571e9",
        "P4": "14174f405401eefac1fca03d82a818cb500673fddb135c9bed378b0bb64fc0d3",
        "eavesdropper": "c521df05c19e58e03f5426417d4957800180b85dbd1193b9694c84cae77494ec",
    },
    "secure_sum": {
        "P1": "db0395de10adc7627154da3806bc69ce459dc701c78f468af1d7b97e22b198a7",
        "P2": "14ad370699a63646289085ebd78870c7a5806ee660e053e246e268e619d8cf6f",
        "P3": "773e15a11ca364c262830fc77f5df08146db2627e6082890e0a3359623fbee35",
        "P4": "25a372033bc60318874c45cba4e8b44d94f30a10d14840db3737cbc756c81ebc",
        "eavesdropper": "be759f726ab28abcf5059834d4181703e7aa9d5f08c29366eec42d58baad4a0f",
    },
    "secure_sum/Z_5/two cycles": {
        "P1": "fb7df84f47ed4e8dee1c7dfbbcc88a9aa323c1ea80efcb0ae414a20d469d01e8",
        "P2": "f0fad502b737fac1c868b9c9999e78974d9c19e95a0eb70de5b34dddfecda207",
        "P3": "70c870dd8732d9f97ec181fa71f55e42e89a057da64faabd374b2866dd1fd9d6",
        "P4": "686fb866bf4f872e298d7130e8f2de7594b85315e6758ac8160564e80cc75a0d",
        "P5": "3493d8328bd7ab682c0a5220125efbef6f7bc9016514c6814d821eedfecfabce",
        "P6": "ec05ff828a7989df9c9a5ee7fe1f3f16f3e6d4e54b4a23f66fd31394b12a6312",
        "eavesdropper": "f5e455bb7c8f17049fe61c3a6047ee4d86479891219e7362984c2fb3d2704322",
    },
    "share_secret_kk": {
        "D": "09bf307a2e68364483822e53a078dc0039986fadd335eabdbfe641ba4ae66bb2",
        "P1": "b099ba34a109564149015c58848413fa8e04dc49a3fad8a5e2cc20a664e997f5",
        "P2": "7e5b1e8904d91721824e521db2ee62d1ff8603882ef66cf850d643e0b925866e",
        "P3": "22569f9ac48069dc2f250cba8bb03f361ad085468944992490a494c7792c68c2",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "sum_of_powers": {
        "P1": "ed4811895307dc53a4ffc9b53001046f375daf33b58db9a9fd9d6e8de0d8d11d",
        "P2": "c990e9d3de94d025495977a6b93b32301eec3bdba2f6e23160f0211910c7451f",
        "P3": "101426e3abd27308a35bcf17c0d26fd211ca6bf0ffb308d2ea35370284d966f6",
        "eavesdropper": "4cc45ab3e6d8f7a922ae073fd7d36a6fe7fba48fc371d4d04a60e7efa5140bcb",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_views_match_recorded_digests(name):
    assert view_digests(CONFIGS[name]) == DIGESTS[name]


# SHA-256 of each config's serialized transcript, recorded on the engine that
# kept every message a second time beside the event log.  A wrong seq, sender,
# receiver, security or kind on any message line changes a digest.
TRANSCRIPT_DIGESTS = {
    "card_deal": "ab1504aa8b0d41195d3b147c8d61fdd89b3f9d052ee14b720e95c006463623af",
    "commit2_dummy": "f9ac8238171cd33c9cc9ba5a822d502274fb14de7fcd77d33bf1e25b5ca690ed",
    "commit3": "a762c113d8a381f3232985509edf6b6a97190e949cdc73127656e59c599cce05",
    "distribute_shares": "84113d3de2a399bb61cd57d40948804ee2b10884ff6580674868bb6b464c5780",
    "example_f1": "63b984fb046d04e4fe6137832d3f8306caa7dae9302ec0a21382c2a981815f5e",
    "example_f2": "242d3add3a8765dcc382830d1afacdf0b9e88f9aa557bf122e357c4779914173",
    "millionaires_bitwise": "30b8df7247009bbd32f5ff1fab75fa4c6d61abc9c748a6eebf5775362bf855cc",
    "millionaires_compare": "4c588eb7ff42f6fe5fbcc833ae980096db5a601d3b4cf0af3930761e8e3025bf",
    "ot_dummy": "e79b849604152a22747259ba761a72b90d981976ca98397fe43474a2ba710cd6",
    "secure_product": "cf064e2d0a3c462f1e51ee48b54f67f5033c4834a435906c0dd1b4bc08933fb4",
    "secure_rating": "e793942b8b5dced1e2cbfa7f493a1c2c5993b54f0a601cbde21db0e06e99091a",
    "secure_sum": "4e9a3a53b1b3b808ccdbfca40565e0a9786b3fd7641ba8b08b7c54e032a8df34",
    "secure_sum/Z_5/two cycles":
        "9d62a3008a68887c085b9c70159d27352685445f1843b960d4afcb197c4e537b",
    "share_secret_kk": "08b7f2ea8c8d2a20746e52eb32320e9d8b31a50ee6d8e4942908cecce5d7eb31",
    "sum_of_powers": "00a60d081b4252c506a6c3011f59a8270f5b52838c44d6f9af6f9a8c0514baa7",
    # Recorded before each message line was written as one f-string: a header
    # with every party and edge of a 60- and a 600-cycle, and 2k lines each.
    "secure_sum/Z/k=60": "51168741c8fe0051879d47daf9bf5807fa85ae9a451b4bcc7b42e49aa0f5810f",
    "secure_sum/Z/k=600": "afcd7f94d45a0d48a2840057f872197b3c3b9067434165c93b2d4a8430c07d4b",
    # Recorded before each token hop's event was built once: the deal shapes
    # that the card_deal config above does not reach.
    "card_deal/k=5/r=12/quota lottery":
        "0da405a10e76410f67c41f306cb96fcb3173a9283db634ab380cad20c5748713",
    "card_deal/k=4/quotas with a zero":
        "80378c978f8c60cdbcc4c43ff0c07c658c1b79337be914721ac47b6212a094d3",
    "card_deal/N=1": "a695af8610775324269393701beb38cffb8d201d5984a7e5c36d7ff30cdcd101",
    "card_deal/r=52/k=3/N=10/seed=401":
        "302470202222ec6f7c1e4e4909ce5ebfca4f75cd577a4f5403585009cfeb8c22",
    "card_deal/r=52/k=3/N=10/seed=402":
        "cef669a44fa166ab7548f6e6deab8a5d68b1b95c9e85d2b05fa8b4a2de360160",
    "dummy_deal_two_players/m=9/N=4":
        "5247bf861226289058e0f7f92fa0d84f1af05e8e314bee322ea4c922cc4175d4",
}

# Transcript-only configs: a view digest per party of a 600-party run is not worth its lines.
LARGE_SUMS = {
    f"secure_sum/Z/k={k}": {"protocol": "secure_sum", "seed": 17,
                            "inputs": [(i * 7919) % 10007 - 5003 for i in range(k)]}
    for k in (60, 600)
}

# Transcript-only deals, each with the quotas it must come out with: a lottery
# for the two extra cards of 12 among 5, explicit quotas that give one player
# nothing, counters bounded by 1, and the benchmark's labelled 52-card deal.
DEALS = {
    "card_deal/k=5/r=12/quota lottery": (
        {"protocol": "card_deal", "inputs": [], "seed": 5, "params": {"r": 12, "k": 5, "N": 3}},
        ["2", "2", "3", "3", "2"]),
    "card_deal/k=4/quotas with a zero": (
        {"protocol": "card_deal", "inputs": [], "seed": 6,
         "params": {"r": 8, "k": 4, "N": 2, "quotas": [3, 0, 2, 3]}},
        ["3", "0", "2", "3"]),
    "card_deal/N=1": (
        {"protocol": "card_deal", "inputs": [], "seed": 7,
         "params": {"r": 6, "k": 3, "N": 1, "with_labels": True}},
        ["2", "2", "2"]),
    **{f"card_deal/r=52/k=3/N=10/seed={seed}": (
        {"protocol": "card_deal", "inputs": [], "seed": seed,
         "params": {"r": 52, "k": 3, "N": 10, "with_labels": True}},
        ["18", "17", "17"]) for seed in (401, 402)},
}


def _pinned_transcript(name):
    if name == "dummy_deal_two_players/m=9/N=4":
        real_hands, discarded, _, t = dummy_deal_two_players(9, 4, seed=3)
        assert (real_hands, discarded) == (((1, 3, 7), (4, 8, 9)), (2, 5, 6))
        return t
    if name in DEALS:
        config, quotas = DEALS[name]
        outcome, t = execute_config(config)
        assert outcome["quotas"] == quotas
        return t
    config = CONFIGS.get(name) or LARGE_SUMS[name]
    outcome, t = execute_config(config)
    if name in LARGE_SUMS:
        assert outcome == {"sum": str(sum(config["inputs"]))}
    return t


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_DIGESTS))
def test_transcripts_match_recorded_digests(name):
    assert _digest_text(_pinned_transcript(name).serialize()) == TRANSCRIPT_DIGESTS[name]


# Unit draws at composite moduli: 720720 = 2^4*3^2*5*7*11*13 and 995328 = 2^12*3^5.
# The configs above use only prime moduli, where the i-th unit is simply i + 1.
COMPOSITE_CONFIGS = {
    f"{protocol}/Z_{m}": {"protocol": protocol, "seed": 11, "ring": {"ring": "Zm", "m": m}, **body}
    for m, units, compare in ((720720, [17, 19, 23, 720719, 101], [300000, 12345]),
                              (995328, [5, 7, 11, 995327, 1001], [12345, 400000]))
    for protocol, body in (("secure_product", {"inputs": units}),
                           ("millionaires_compare", {"inputs": compare}),
                           ("example_f2", {"inputs": units[:3], "params": {"g": "cube"}}))
}

# Recorded on the engine whose unit draws indexed a table of every unit.
COMPOSITE_DIGESTS = {
    "example_f2/Z_720720": {
        "P1": "a2157ea966474d205351a96858aa11741a63afb315b5d872d1530643804770ac",
        "P2": "94abfebbe8ba680937e3bb40e415039a53e884dccbd86ad7906d230d758b20be",
        "P3": "cf8922204cc5c74f800fe9f0fff240da4dcd073867e7468b36320b25dd45c977",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "transcript": "b527fa21f0bd7ae6f47cc93d479afe54ad9536336508d97d7f47a381d848d219",
    },
    "example_f2/Z_995328": {
        "P1": "e0eccd50c8468803fa7a4ea42cb94724d4648b3b0d4e525bc047f5eed27f6232",
        "P2": "5322f5a3d158003042968c826724fc5f4e73214f4a9260b9fa5e952d62686a54",
        "P3": "f62113c0a531bc9f17bdee11cd240c9254030f54046d3fec8024a66615ab3340",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "transcript": "c4f2598dda81394921d3956ab4ce0a5c542dec1b2edd92bd0f9823434106467a",
    },
    "millionaires_compare/Z_720720": {
        "A": "fe6103ae5304ba49343171a5381a95425b3477fddc6f239e1be779b537d4e647",
        "B": "e69d2429e1e22750f74c460057ed4cc4c485d4d77c4cb873fc6a0f52fd38087e",
        "D": "a4199487f724c44017e0aeca3ec2170e5a9044d3229011e64b6ea17d55f6617c",
        "eavesdropper": "8af27d37613e6aa2ab21670a746a889ab88e49448af8feb90290d056f3ac9282",
        "transcript": "898dc98b1cb8d739549032c19f50fc07e7df9d0c2fc325b55182656a57b634e3",
    },
    "millionaires_compare/Z_995328": {
        "A": "6c95de4a375adfe04f4347ca7cfb01b77f27264a0aae40f3fa172bfd8d9899c7",
        "B": "08910e638a791a3c43cb0bcb587ca067a09b9f2070bb86329f27b8b0ba78e3ee",
        "D": "1cde435aff1187b1f72b09d94f298be3920cc53f474764b6b5756a0db48f8f7e",
        "eavesdropper": "7dc3b12f3fabb6ef122e3fca631121c95a47f9669d199a2e96040ebfad3a1e1b",
        "transcript": "2220e303a2161efe4e94be9f5434f7829bcff6d53c3bddc9d1d996371e6a05ec",
    },
    "secure_product/Z_720720": {
        "P1": "2e46b676114a41af45180b038c4008c212262535f420bd4b6cda3e1b26d604e7",
        "P2": "7c739879e9d35a3bd2d391f9c6e3109fb972d810ae2b26ae8ba76aa62c5bf0c1",
        "P3": "cae7c5a25b10832277ff7fb633a07fe58c4e6de59ee1945bc50de52c7b9b7e1e",
        "P4": "43dae3215a840948421d70a87176a5986665708df3cbc19b68a70f75bf53d73f",
        "P5": "702073dc8f4c35aa2bf3ae6b45b9965c2a5d24e3284cfc8844c257674681fe00",
        "eavesdropper": "75857deb80b8977607ad5aca100bbab655f66f33a501d6b6d439aa29db0ea665",
        "transcript": "e42891cf95dd6e94a20cdb6ced550334f2bf30ec0d39a714a2a7ee6604a46721",
    },
    "secure_product/Z_995328": {
        "P1": "b2ee6615ea7d088efddd7ccc5051360539b89ce4c78d5b293ab4fea08751e97d",
        "P2": "39fd6742d3aa76eb22f15625054372c335efadbfd36751f4d054e1ab708a53dc",
        "P3": "4ac1407e86e951f8facbc6db177c04509b247070a0ac9a9ae28345c91880eb21",
        "P4": "cf38bde9aec9c06c68922866833fdf57893ab7c49e9a4e5c36c86112d3e97139",
        "P5": "5762e6222246a50d42f41011e2f975851550ac581bf27dcfb1ed0ff7c00bcb8d",
        "eavesdropper": "75b995e907a939147a1b2447b4a1a6518e950caecef02021d9218f00f2a1a5d1",
        "transcript": "3afcbee458fd70216e358b961ee52431eae3940b05d7e2e238b20b5f9a75d722",
    },
}


@pytest.mark.parametrize("name", sorted(COMPOSITE_CONFIGS))
def test_composite_modulus_runs_match_recorded_digests(name):
    config = COMPOSITE_CONFIGS[name]
    _, t = execute_config(config)
    got = dict(view_digests(config), transcript=_digest_text(t.serialize()))
    assert got == COMPOSITE_DIGESTS[name]


def test_every_cli_protocol_is_covered():
    from ringmpc.cli import RUNNERS

    assert set(RUNNERS) <= {cfg["protocol"] for cfg in CONFIGS.values()}


# SHA-256 of what ``ringmpc run`` prints for each config above, and for a dummy
# dealer's header (two dummies, a consolidation and one served draw), recorded
# while eight protocols still wrote their outcome JSON each with its own encoder.
OUTCOME_DIGESTS = {
    "card_deal": "4063f8ee926af6795cd13617f72e8b9e62616003b203d4d398774ddfcec0da2b",
    "card_deal/dummy dealer with a post draw":
        "0c57c0c6761e26e7034d1e223a9675747756b14f8bfbc7eec90b4288c0a2a1b3",
    "commit2_dummy": "411b070149496d680851bd871dcc3a98365640981ca1bc54de2d2cc88595c5e6",
    "commit3": "c013f0331a5efb6827c56d27ecff03b98e3a051ec1187f52d06624eed0bb312d",
    "distribute_shares": "2962376f01aed5cd4bee34b7ac9df0f771635cb3ab02561c0b04e0bf1930f21a",
    "example_f1": "ba56da00d8da15111cc8a9b87ab1ddc50f4797ae203d4a38502e1a0605b84c7f",
    "example_f2": "6e6ba6c835653ddccb936d9c836350c75d51144a8f3dbacff832300d49d8d724",
    "millionaires_bitwise": "ff62bf1b0293376594cd8c6adaffee588dcb656b26c17dc11e50e9f00f62efea",
    "millionaires_compare": "71150b633aaf7e076ec6add203e9111e3c4aa627b3a17bc524f7f244ef04bf1f",
    "ot_dummy": "69d3ad51844741e5922ccc277b2dfa7eca3c2c2131b3da7bebd347c86675f509",
    "secure_product": "1d83f8899536301c079edcda55b69c58b64bed255a5087779d40315206b3e3c6",
    "secure_rating": "0b679c119c6e3db49eb280e009ecd10d5b6cff41a289a0c044e0e71309837fda",
    "secure_sum": "695e4fa0a408af53de93c71894044739ae7dbe8f8fa0f28eae024a0bfeb62cb3",
    "secure_sum/Z_5/two cycles":
        "1a43b0a8ab358475e04f1ee3b8bb6cf6b727038df8de51d7e89f3be69dc51539",
    "share_secret_kk": "1ad1e4a6abb0598782f5d12e9b0d300e257bf72f7a6b3bd27bb42fe93523bfeb",
    "sum_of_powers": "2504dc4acd36fbc316cc5ab35c13ccce75114e93859f170eb9356ec9a90868e7",
}


def _outcome_config(name):
    if name == "card_deal/dummy dealer with a post draw":
        _, t = dummy_dealer_fixed_hands(12, 2, 3, seed=7, post_draws=[(0, 1)])
        return json.loads(t.serialize().split("\n")[0])["meta"]
    return CONFIGS[name]


@pytest.mark.parametrize("name", sorted(OUTCOME_DIGESTS))
def test_run_output_matches_recorded_digest(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_outcome_config(name)))
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 0, result.output
    assert _digest_text(result.output) == OUTCOME_DIGESTS[name]


def test_every_config_has_a_run_output_pin():
    assert set(CONFIGS) <= set(OUTCOME_DIGESTS)


# Runs that no pin above covers, recorded before the cycle pass, the input
# notes and CommitK's ledgers were each written once: a commit_k session at
# k = 4 and k = 5, committed then revealed, and a secure product over Z_101
# on two disjoint triangles.
TWO_TRIANGLES = {"k": 6, "edges": [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"],
                                   [3, 4, "secure"], [4, 5, "secure"], [3, 5, "secure"]]}
SESSION_DIGESTS = {
    "commit_k/Z_7/k=4": {
        "P1": "24f0f22c63afdc9052bdca7f0474f8bafe0372062dcb4ab49315aa8b4ff5f356",
        "P2": "c5dd80923b84fe32e2c0dc22c6c7ae9e7379a4261926d4499ebd03009eb24fdf",
        "P3": "093f3171d3cd74942d30b20235c82e60c677a57cb9abdf9b09e7516eaac0195b",
        "P4": "55642184211359b7ccd3a882dc53cb93c48922897a55dfdf8e6dfaa47dc8ac15",
        "eavesdropper": "635e4c164c384b5e09dfee707440afe6fd15ff8930006a8e32f0eecc86fedf77",
        "transcript": "9da39788c0572580bfe932a4e989730160e0f77028f0a6ad4bcfa9871b2c33ae",
    },
    "commit_k/Z_7/k=5": {
        "P1": "4e5f97d9e9a385b4c6c3fff4f5528d01c0f51f767e8d4a0a0f28f62ba492fee3",
        "P2": "9b4790baeb355e9f966cf6251069c79bb7292c8d5a9c7447e058d7f5574bdf17",
        "P3": "d486ae954b706fdcea8ff0116b160be0abfad035d034ce38bd13934b51645113",
        "P4": "cbf7c4e96e5352ec2d1b91dd06a5f2f1766a21665eed02f9224044488734aee4",
        "P5": "6bc29b4c012ab41207112dc321bf6b4a19b9652f506767a5cfae361645f1921c",
        "eavesdropper": "f025061b5c94240ce92a4f9461151b463b511cbaf92a24b31abb749b40c0ca82",
        "transcript": "1e694af1ce5ebcdfb23266e735d664f9888906f865b535e234b4119dfdde3acb",
    },
    "secure_product/Z_101/two cycles": {
        "P1": "8440d1c5b8cdccc39ba70fb03d79b5a178fa2be715a4b9ee653081daa60f258c",
        "P2": "b2efbec511c41e49d3e1a155ecd5d8e1ea117235a4bb380f3fbf0b7c55aa2ae6",
        "P3": "e16fe8aa19876467cfdbe2f4086c1658540257ec18b6afd7e08cfab22c8d46a3",
        "P4": "5bb4376c5d71b0f46dc8ba2b2dec933ad022052eb77b1a26d9bddd137cbab0cf",
        "P5": "b9081c8a82d61bacf42b997919d7f8ee6d32e2c4d195ffc07760e8380854e4ac",
        "P6": "4cff11e3faf7c86d01de645c561b99a2e0a82efaed975923f042c9a2dc767a3a",
        "eavesdropper": "4f5db43e9db8e5e5ccffe8831ea6c97918992f650892c4e8d0b75b3bd0fdc1c2",
        "transcript": "b94032f11a3c388564370158f6b3950a527bd98e3eadf5ab41c87d9aba4cc8c6",
    },
}


def _session_transcript(name):
    if name.startswith("commit_k/"):
        values = {"k=4": [1, 0, 2, 1], "k=5": [3, 1, 4, 1, 5]}[name.rsplit("/", 1)[1]]
        session = commit(CommitK(mod_ring(7)), None, values, seed=13)
        assert session.reveal() == tuple(values)
        return session.transcript
    config = {"protocol": "secure_product", "inputs": [2, 3, 4, 5, 6, 7], "seed": 5,
              "ring": {"ring": "Zm", "m": 101}, "topology": TWO_TRIANGLES}
    outcome, t = execute_config(config)
    assert outcome == {"product": "91"}  # 2*3*4 * 5*6*7 = 5040 = 91 mod 101
    return t


@pytest.mark.parametrize("name", sorted(SESSION_DIGESTS))
def test_sessions_and_multi_cycle_products_match_recorded_digests(name):
    t = _session_transcript(name)
    got = {p.name: _digest(extract_view(t, p.name).entries) for p in t.graph.parties}
    got[EAVESDROPPER] = _digest(eavesdropper_view(t).entries)
    got["transcript"] = _digest_text(t.serialize())
    assert got == SESSION_DIGESTS[name]


def test_dummy_dealer_transcript_matches_recorded_digest():
    """Two dummies, one consolidated load and one served draw; the transcript only.

    The views are not pinned: a consolidated load was logged as a list,
    and a list and a tuple of the same cards print differently.
    """
    _, t = dummy_dealer_fixed_hands(12, 2, 3, seed=7, post_draws=[(0, 1)])
    assert _digest_text(t.serialize()) == (
        "e6074068e5acbedc18a2bd1866b53313047c6eb5269ec1f1b1a53cfde732690f")


# Runs recorded before a session kept its inputs only in its ledgers: a
# dummy dealer with three reals whose dealer serves cards along its spokes,
# and two commitment sessions whose inputs lie outside 0..m-1, committed
# then revealed.
OUT_OF_RANGE_DIGESTS = {
    "dummy_dealer/m=32/k=3/s=5": {
        "P1": "49ece9b1eecc870906e9862217b7676db111633bede7e59e2a2e3ccaaa5a84e1",
        "P2": "83a4311f7828f489aa5ab6872a11bc6047c12fcfc44fc39676db1a30a92a9def",
        "P3": "c7709a55209ac91912a7ba23c611304b8f512a934204aa09f0356ebdf988857d",
        "D1": "d2bda87eaadb563946b24007d3afdce2a2e23e2bbb8825b098b1b69289b01db8",
        "D2": "d980476a67b10ce4378a1faa27b9342e2197ec49ec8c82634b5099a9b026b49b",
        "D3": "ce806acaf96f2379f41c6775053ff053906ae279d9df3292b8521120c0d4256a",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "transcript": "8d32df270ab037f33c0b6dbb87684ed49e3512fe9a2bca5705e3a9b79062a53d",
    },
    "commit3/Z_10/(12,-1,5)": {
        "P1": "6ad94e3d99419ccdf874198f5a6e1c0eb201a4213b626dc89c8ba9266710fe15",
        "P2": "4095b353389401ee3c0d8d3f568c50569fd7b9627696669b07b25180e4b7fba1",
        "P3": "a39475fe99c8591b9f28cf3f8548baa4bf3710b763ac228d2887c2787e9455f1",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "transcript": "2fd7718c208e88efa7356630e37c76d236b84107cad9817e914a4a62779e0a0c",
    },
    "commit2_dummy/Z_10/(13,-2)": {
        "A": "70111a3a7a31f144cbd21366dcfd52f31710b662257f2a706bdc51255e23a07a",
        "B": "2ea91d07234bacdcb198b2b334cb2097d768144844fc88a16356e700420921c8",
        "D": "50941a4efccc92a867760c0663d1f20758c35bef701a3a18fd555228bc5d0833",
        "eavesdropper": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "transcript": "5de74a35aecc211c4df20a9faf3cf36dfcf093368b6de436ab74cac6f604a966",
    },
}


def _out_of_range_transcript(name):
    if name.startswith("dummy_dealer/"):
        outcome, t = dummy_dealer_fixed_hands(32, 3, 5, seed=1, post_draws=[(2, 1), (0, 2)])
        assert t.protocol.params()["quotas"] == [5, 5, 5, 6, 6, 5]
        assert [who for who, _ in outcome.served] == ["P3", "P1", "P1"]
        return t
    if name.startswith("commit3/"):
        session = commit(Commit3(mod_ring(10)), None, (12, -1, 5), seed=7)
        assert session.reveal() == {name: (2, 9, 5) for name in ("P1", "P2", "P3")}
        return session.transcript
    session = commit(Commit2Dummy(mod_ring(10)), None, (13, -2), seed=7)
    assert session.reveal() == (8, 3)
    return session.transcript


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_DIGESTS))
def test_dealer_spokes_and_out_of_range_sessions_match_recorded_digests(name):
    t = _out_of_range_transcript(name)
    got = {p.name: _digest(extract_view(t, p.name).entries) for p in t.graph.parties}
    got[EAVESDROPPER] = _digest(eavesdropper_view(t).entries)
    got["transcript"] = _digest_text(t.serialize())
    assert got == OUT_OF_RANGE_DIGESTS[name]
