"""Write golden.json: one fixed config per CLI protocol and its transcript's SHA-256.

The digests pin the contract "same (protocol, inputs, seed) gives a
byte-identical transcript".  Regenerate them only on a commit whose
transcripts are known to be right:

    python3 bench/make_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ringmpc import cli  # noqa: E402

CONFIGS = {
    "secure_sum": {"inputs": [3, 5, 7, 11]},
    "secure_rating": {"inputs": [2, 4, 6, 8]},
    "secure_product": {"inputs": [2, 3, 4], "ring": {"ring": "Zm", "m": 101}},
    "sum_of_powers": {"inputs": [1, 2, 3], "params": {"exponent": 3}},
    "example_f1": {"inputs": [2, 3, 4]},
    "example_f2": {"inputs": [2, 3, 4], "params": {"g": "square"}, "ring": {"ring": "Zm", "m": 11}},
    "millionaires_compare": {"inputs": [7, 3]},
    "millionaires_bitwise": {"inputs": [5, 3], "params": {"bit_width": 4}},
    "commit3": {"inputs": [1, 0, 1], "ring": {"ring": "Zm", "m": 2}},
    "commit2_dummy": {"inputs": [1, 2], "ring": {"ring": "Zm", "m": 3}},
    "ot_dummy": {"inputs": {"messages": [10, 20, 30], "indices": [1, 3]}},
    "card_deal": {"inputs": [], "params": {"r": 8, "k": 3, "N": 3, "with_labels": True}},
    "share_secret_kk": {"inputs": [100], "params": {"k": 3}},
    "distribute_shares": {"inputs": [100], "params": {"k": 4, "initiator": 1}},
}


def main():
    missing = sorted(set(cli.RUNNERS) - set(CONFIGS))
    if missing:
        raise SystemExit(f"no golden config for {missing}")
    golden = {}
    for name, body in CONFIGS.items():
        config = {"protocol": name, "seed": 11, **body}
        _, transcript = cli.execute_config(config)
        digest = hashlib.sha256(transcript.serialize().encode()).hexdigest()
        golden[name] = {"config": config, "sha256": digest}
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
