"""(k,k) secret sharing in which nobody, the dealer included, sees a share.

The dealer splits the secret into k pieces and hands one piece to each
player; each player then re-splits its piece around the cycle with the
masking subroutine, so every player's final share is a sum of k summands
that only ever existed in masked transit.  All k shares are required to
reconstruct; any strict subset, with the secret private, pins down
nothing about the missing share.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ring as ring_mod
from .engine import Protocol, Run
from .errors import ProtocolError
from .ring import RingSpec
from .topology import (ChannelGraph, SECURE, build_cycle, hub_graph, players_subgraph, require_hub,
                       require_secure, single_cycle)


@dataclass(frozen=True)
class ShareVector:
    """Final per-player shares; their sum is the shared secret."""

    shares: tuple


def masked_split_subroutine(run: Run, cycle, initiator_pos: int, value: int, tag: str):
    """Split ``value`` into one private summand per cycle player.

    The initiator forwards value minus a random mask; every subsequent
    player peels off a fresh random summand and forwards the remainder;
    the initiator's own summand is its mask plus whatever returns.  Only
    masked partial values ever travel.  Returns summands in cycle order.
    """
    R = run.ring
    k = len(cycle)
    initiator = cycle[initiator_pos]
    mask = run.noise(initiator, f"{tag} mask of {run.name(initiator)}")
    m = R.sub(value, mask)
    summands = {}
    pos = initiator_pos
    for step in range(1, k):
        nxt = cycle[(pos + 1) % k]
        run.send(cycle[pos], nxt, m, f"{tag} masked remainder")
        pos = (pos + 1) % k
        part = run.noise(nxt, f"{tag} summand of {run.name(nxt)}")
        summands[nxt] = part
        m = R.sub(m, part)
    run.send(cycle[pos], initiator, m, f"{tag} masked remainder")
    summands[initiator] = R.add(mask, m)
    run.note(initiator, f"{tag} summand of {run.name(initiator)}", summands[initiator])
    return summands


class DistributeShares(Protocol):
    """Standalone run of the masking subroutine for one value."""

    name = "distribute_shares"
    result = "summands"
    arity = 1

    def __init__(self, ring: RingSpec, initiator: int = 0, k: int = 3):
        super().__init__(ring)
        self.initiator = initiator
        self.k = k

    def params(self):
        return {"initiator": self.initiator, "k": self.k}

    def default_graph(self, k):
        return build_cycle(self.k)

    def check_graph(self, g):
        if self.initiator not in single_cycle(self.name, g):
            raise ProtocolError(f"initiator {self.initiator} is not on the cycle")

    def program(self, run: Run):
        R = self.ring
        (value,) = run.inputs
        value = R.normalize(value)
        cycle = single_cycle(self.name, run.graph)
        run.note(self.initiator, "value to split", value)
        summands = masked_split_subroutine(run, cycle, cycle.index(self.initiator), value, "split")
        return tuple(summands[i] for i in sorted(summands))


# The most players a (k,k) sharing may ask for, as its k pieces take k + 1 messages each:
# at k = 256 it runs in 0.26 s, serializes in 0.08 s (6.2 MB) and replays in 0.37 s, under a
# second as a deal's MAX_DEAL_HOPS is (CPython 3.11 on a shared 2-core x86-64).
MAX_SHARE_PLAYERS = 256


class ShareSecret(Protocol):
    """The full (k,k) scheme: dealer splits, every piece is re-split on the cycle."""

    name = "share_secret_kk"
    arity = 1

    def __init__(self, ring: RingSpec, k: int = 3):
        if k < 3:
            raise ProtocolError("the sharing cycle needs k >= 3 players")
        if k > MAX_SHARE_PLAYERS:
            raise ProtocolError(f"k={k} is above the bound {MAX_SHARE_PLAYERS}")
        super().__init__(ring)
        self.k = k

    def params(self):
        return {"k": self.k}

    def default_graph(self, k):
        return sharing_graph(self.k)

    def check_graph(self, g):
        k = self.k
        require_hub(self.name, g, k)
        require_secure(self.name, g, [(i, k) for i in range(k)])

    def program(self, run: Run):
        R = self.ring
        k = self.k
        dealer = k
        (secret,) = run.inputs
        secret = R.normalize(secret)
        run.note(dealer, "secret", secret)
        # Dealer's arbitrary split of the secret into k pieces.
        pieces = []
        rest = secret
        for i in range(k - 1):
            piece = run.noise(dealer, f"dealer piece {i + 1}")
            pieces.append(piece)
            rest = R.sub(rest, piece)
        pieces.append(rest)
        run.note(dealer, f"dealer piece {k}", rest)
        cycle = single_cycle(self.name, players_subgraph(run.graph, k))
        totals = {i: 0 for i in range(k)}
        # Loop: piece i goes to player i, who re-splits it around the cycle.
        for i in range(k):
            run.send(dealer, i, pieces[i], f"piece for {run.name(i)}")
            summands = masked_split_subroutine(
                run, cycle, cycle.index(i), pieces[i], f"piece{i + 1}"
            )
            for j, part in summands.items():
                totals[j] = R.add(totals[j], part)
        for j in range(k):
            run.note(j, "final share", totals[j])
        return ShareVector(tuple(totals[j] for j in range(k)))


def sharing_graph(k: int) -> ChannelGraph:
    """Player cycle plus a dealer with a secure spoke to every player: 2k channels."""
    return hub_graph(k, "D", range(k), SECURE)


def reconstruct(shares, ring=None):
    """Sum of all k shares.  Every share is required; None marks a withheld one."""
    R = ring if ring is not None else ring_mod.integers()
    values = list(shares.shares if isinstance(shares, ShareVector) else shares)
    if not values or any(v is None for v in values):
        raise ProtocolError("reconstruction needs every share; this is a (k,k) scheme")
    total = 0
    for v in values:
        total = R.add(total, v)
    return total
