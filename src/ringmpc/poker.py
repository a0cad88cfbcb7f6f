"""Mental-poker dealing: random disjoint distribution plus collective shuffling.

The deal works by circulating a single token around the secure cycle.
Each player keeps a private counter, freshly drawn from 1..N whenever a
new value first passes through (and after every keep); when the same
value arrives more often than the counter allows, the player keeps it
and sends value+1 onward.  Keeps are therefore invisible: neighbours see
only values passing, and a value's keeper is hidden among everyone
upstream.  The token starts at the throwaway value 0 so that even the
first real value's keeper is ambiguous.

The keeper of the last value forwards it as if untaken, and the process
halts once that value has returned to its introducer N+1 times, at which
point every player has seen it N+1 times and knows the deal is over
without learning who took it.

Card labels are attached by a collectively generated uniform
permutation: swap positions are drawn by three-party collective
randomness (two contributors, one receiver, announced), which stays
uniform even against one adversarial contributor.  Dummy players hold no
randomness; their counters are synthesized from two real players'
contributions, combined modulo N with residue 0 mapped to N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from .engine import Protocol, Run, run
from .errors import ProtocolError, TopologyError
from .jsonvalues import json_bool, json_field, json_int, json_ints, json_list
from .topology import ChannelGraph, Party, SECURE, build_cycle, default_parties, require_secure


def expected_circles(N: int, k: int) -> Fraction:
    """Exact mean number of complete circles a value travels before it is kept.

    With every player's counter uniform on 1..N, a value is kept by the
    player whose counter first runs out, after exactly min(counters)
    complete circles; the mean of that minimum over k players is
    (sum of j^k for j = 1..N) / N^k.
    """
    if N < 1 or k < 1:
        raise ProtocolError("expected_circles needs N >= 1 and k >= 1")
    return Fraction(sum(j**k for j in range(1, N + 1)), N**k)


def knuth_shuffle(m: int, draw) -> list[int]:
    """Uniform permutation of 1..m from position-wise swaps.

    ``draw(lo, hi)`` must return a uniform integer in [lo, hi].  Walking
    positions 1..m-1 and swapping each with a uniformly chosen position
    from i..m yields every permutation with probability exactly 1/m!.
    """
    if m < 1:
        raise ProtocolError("deck size must be >= 1")
    perm = list(range(1, m + 1))
    for i in range(1, m):
        j = draw(i, m)
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return perm


def collective_round(run: Run, M: int, receiver: int, channels, label: str,
                     announce: bool = False) -> int:
    """One collective-randomness round: contributors send uniform values mod M.

    ``channels`` pairs each contributor with a ``run.sender`` from it to
    the receiver, so a deal that plays many rounds over the same channels
    looks each up once.  The receiver's result is the values' sum mod M,
    uniform as long as at least one contributor plays honestly.  With
    ``announce`` the receiver broadcasts the result (needed whenever the
    value must be public, e.g. shuffle swaps).
    """
    if M < 1:
        raise ProtocolError("modulus must be >= 1")
    contribution_label, value_label = f"{label} contribution", f"{label} value"
    total = 0
    for c, send in channels:
        v = run.rand_int(c, 0, M - 1, contribution_label)
        send(v, contribution_label)
        total = (total + v) % M
    run.note(receiver, value_label, total)
    if announce:
        run.broadcast(receiver, total, value_label)
    return total


def _channels(run: Run, contributors, receiver: int) -> list:
    """(contributor, its sender to ``receiver``) pairs for ``collective_round``."""
    return [(c, run.sender(c, receiver)) for c in contributors]


class CollectiveRandom(Protocol):
    """Standalone three-party collective randomness (one value mod M)."""

    name = "protocol2_random"
    arity = 0

    def __init__(self, M: int, receiver: int = 0, contributors=(1, 2)):
        super().__init__()
        if len(contributors) != 2 or receiver in contributors:
            raise ProtocolError("one receiver and two distinct contributors required")
        self.M = M
        self.receiver = receiver
        self.contributors = tuple(contributors)

    def params(self):
        return {"M": self.M, "receiver": self.receiver, "contributors": list(self.contributors)}

    def default_graph(self, k):
        return build_cycle(3)

    def check_graph(self, g):
        require_secure(self.name, g, [(c, self.receiver) for c in self.contributors])

    def program(self, run: Run):
        return collective_round(run, self.M, self.receiver,
                                _channels(run, self.contributors, self.receiver), "random")


def protocol2_roles(i: int, k: int) -> tuple[int, tuple[int, int]]:
    """Receiver and contributors for round i (1-based) on a k-cycle.

    Round i engages the cycle-adjacent triple: contributors P_i and
    P_{i+2}, receiver P_{i+1}, indices wrapping modulo k.  Returned as
    0-based indices.
    """
    if k < 3:
        raise ProtocolError("needs k >= 3")
    return i % k, ((i - 1) % k, (i + 1) % k)


def even_quotas(r: int, k: int, lottery: int) -> tuple:
    """Hand sizes for r cards among k players: r // k each, and one more for the
    r % k players from ``lottery`` onwards around the cycle."""
    base, extra = divmod(r, k)
    quotas = [base] * k
    for t in range(extra):
        quotas[(lottery + t) % k] += 1
    return tuple(quotas)


def _draws(raw) -> list:
    """Post draws as (requester, count) pairs from a JSON list of two-integer lists."""
    return [(json_int(a), json_int(b)) for a, b in map(json_list, json_list(raw))]


# The most token hops a deal config may ask for: under a second of hops at ~0.7 µs
# each (deals of 90,000 and 160,000 hops, CPython 3.11 on a shared 2-core x86-64).
MAX_DEAL_HOPS = 10**6


@dataclass(frozen=True)
class DealConfig:
    """Parameters of one token-passing deal.

    ``quotas`` is the per-player hand size; None means even quotas with
    the extra cards (when r % k != 0) assigned to a contiguous block of
    players picked by a public collective-randomness lottery.
    """

    r: int
    k: int
    N: int
    quotas: tuple | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ProtocolError("need at least one card index")
        if self.k < 3:
            raise ProtocolError("dealing needs k >= 3 players")
        if self.N < 1:
            raise ProtocolError("counter bound N must be >= 1")
        if self.max_hops > MAX_DEAL_HOPS:
            raise ProtocolError(
                f"a deal with N={self.N}, k={self.k}, r={self.r} may take more than "
                f"{MAX_DEAL_HOPS} token hops"
            )
        if self.quotas is not None:
            if len(self.quotas) != self.k or any(q < 0 for q in self.quotas):
                raise ProtocolError("quotas must list one non-negative size per player")
            if sum(self.quotas) != self.r:
                raise ProtocolError("quotas must sum to the number of cards")

    @property
    def max_hops(self) -> int:
        """Token hops after which the deal is abandoned as non-terminating."""
        return (self.N + 2) * self.k * (self.r + 2) + 64


@dataclass(frozen=True)
class DealResult:
    """Hands as card indices (1..r), plus the public card-label permutation if drawn.

    After a dummy dealer consolidated the dummies' cards, ``residual`` is
    what it still holds and ``served`` its draws for the reals, as
    (requester name, card) pairs; without a dealer, ``residual`` is None.
    """

    hands: tuple  # per player, sorted tuples of indices
    zero_keeper: str
    quotas: tuple
    permutation: tuple | None = None  # permutation[idx-1] = card label
    residual: tuple | None = None
    served: tuple = ()

    def labeled_hands(self):
        if self.permutation is None:
            raise ProtocolError("this deal carried no label permutation")
        return tuple(
            tuple(sorted(self.permutation[i - 1] for i in hand)) for hand in self.hands
        )


class CardDeal(Protocol):
    """Token-passing deal, optionally composed with the label shuffle.

    ``counter_contributors`` names the two real players that synthesize
    every dummy counter (required when the graph contains dummies).  In
    dummy mode they are also the contributors of the quota lottery and of
    every shuffle swap, whose receiver is the first dummy; with real
    players only, those roles rotate around the cycle.  ``consolidate_to``
    names a dummy dealer that collects the dummies' cards and then serves
    ``post_draws``, (real player, count) pairs, each card drawn by the
    same two contributors; a count below 0 is refused, and ``check_graph``
    refuses a requester that is not a real player with a secure channel
    from the dealer, and more post draws than the dummies' quotas hold
    after any outcome of the quota lottery.
    """

    name = "card_deal"
    arity = 0

    def __init__(self, cfg: DealConfig, with_labels: bool = False,
                 counter_contributors=None, consolidate_to=None, post_draws=()):
        super().__init__()
        self.cfg = cfg
        self.with_labels = with_labels
        self.counter_contributors = counter_contributors
        self.consolidate_to = consolidate_to
        self.post_draws = tuple(post_draws)
        if self.post_draws and consolidate_to is None:
            raise ProtocolError("post_draws are served by a dealer: set consolidate_to")
        if any(count < 0 for _, count in self.post_draws):
            raise ProtocolError("a post draw count must be at least 0")

    @classmethod
    def from_params(cls, ring, params, inputs):
        cfg = DealConfig(json_field(params, "r"), json_field(params, "k"), json_field(params, "N"),
                         json_field(params, "quotas", json_ints, None))
        return cls(
            cfg,
            with_labels=json_field(params, "with_labels", json_bool, False),
            counter_contributors=json_field(params, "counter_contributors", json_ints, None),
            consolidate_to=json_field(params, "consolidate_to", default=None),
            post_draws=json_field(params, "post_draws", _draws, ()),
        )

    def params(self):
        return {
            "r": self.cfg.r,
            "k": self.cfg.k,
            "N": self.cfg.N,
            "quotas": list(self.cfg.quotas) if self.cfg.quotas is not None else None,
            "with_labels": self.with_labels,
            "counter_contributors": (
                list(self.counter_contributors) if self.counter_contributors else None
            ),
            "consolidate_to": self.consolidate_to,
            "post_draws": [list(d) for d in self.post_draws],
        }

    @classmethod
    def encode(cls, outcome):
        """The hands, with ``labels`` and ``labeled_hands`` if a permutation was drawn,
        and ``residual`` and ``served`` if a dealer consolidated."""
        body = {"hands": outcome.hands, "zero_keeper": outcome.zero_keeper,
                "quotas": outcome.quotas}
        if outcome.permutation is not None:
            body.update(labels=outcome.permutation, labeled_hands=outcome.labeled_hands())
        if outcome.residual is not None:
            body.update(residual=outcome.residual, served=outcome.served)
        return super().encode(body)

    def default_graph(self, k):
        return build_cycle(self.cfg.k)

    def check_graph(self, g):
        k = self.cfg.k
        if g.k != k:
            raise TopologyError(f"deal config names {k} players, graph has {g.k}")
        require_secure(self.name, g, [(i, (i + 1) % k) for i in range(k)])
        dummies = [p.index for p in g.parties if not p.full]
        if self.consolidate_to is not None and self.consolidate_to not in dummies:
            raise TopologyError(f"consolidate_to={self.consolidate_to} is not a dummy party")
        for requester, _ in self.post_draws:
            if not (0 <= requester < k and g.parties[requester].full):
                raise TopologyError(f"post draw to party {requester}: the dealer serves real "
                                    "players only")
        require_secure(self.name, g, [(self.consolidate_to, r) for r, _ in self.post_draws])
        if dummies:
            cc = self.counter_contributors
            if cc is None or len(cc) != 2:
                raise TopologyError("dummies present: two counter contributors required")
            require_secure(self.name, g, [(c, d) for d in dummies for c in cc])
        # The dealer's residual is the dummies' quotas: fixed, or even ones after the quota
        # lottery, if k does not divide r.  A request above every lottery outcome's is refused.
        if self.consolidate_to is not None:
            cfg = self.cfg
            outcomes = [cfg.quotas] if cfg.quotas is not None else [
                even_quotas(cfg.r, k, lottery) for lottery in range(k if cfg.r % k else 1)]
            if sum(count for _, count in self.post_draws) > max(
                    sum(quotas[d] for d in dummies) for quotas in outcomes):
                raise ProtocolError("dealer has no residual cards left")

    # -- counters and collective rounds -------------------------------------

    def _counters(self, run: Run) -> list:
        """One function per player that draws its fresh counter, uniform on 1..N."""
        N = self.cfg.N
        return [run.drawer(p.index, 1, N, "counter") if p.full
                else partial(self._synthesized_counter, run, p.index) for p in run.graph.parties]

    def _synthesized_counter(self, run: Run, p: int) -> int:
        N = self.cfg.N
        a, b = self.counter_contributors
        ca = run.rand_int(a, 1, N, "counter share")
        run.send(a, p, ca, "counter share")
        cb = run.rand_int(b, 1, N, "counter share")
        run.send(b, p, cb, "counter share")
        # (ca + cb) mod N, with residue 0 mapped to N, stays uniform on 1..N.
        c = ((ca + cb - 1) % N) + 1
        run.note(p, "synthesized counter", c)
        return c

    def _rounds(self, run: Run) -> list:
        """(receiver, channels) of the collective rounds, round i playing entry i % len.
        The first dummy receives from the counter contributors if there are dummies;
        on reals alone round i engages the triple ``protocol2_roles(i + 1, k)``."""
        dummies = [p.index for p in run.graph.parties if not p.full]
        if dummies:
            roles = [(dummies[0], self.counter_contributors)]
        else:
            roles = [protocol2_roles(i + 1, self.cfg.k) for i in range(self.cfg.k)]
        return [(r, _channels(run, cs, r)) for r, cs in roles]

    def _resolve_quotas(self, run: Run, rounds: list):
        cfg = self.cfg
        if cfg.quotas is not None:
            return tuple(cfg.quotas)
        lottery = 0
        if cfg.r % cfg.k:
            lottery = collective_round(run, cfg.k, *rounds[0], "quota lottery", announce=True)
        return even_quotas(cfg.r, cfg.k, lottery)

    # -- the deal ----------------------------------------------------------

    def program(self, run: Run):
        cfg = self.cfg
        k, N, final = cfg.k, cfg.N, cfg.r
        rounds = self._rounds(run)
        quotas = self._resolve_quotas(run, rounds)
        fresh = self._counters(run)
        counters = [draw() for draw in fresh]
        # Player p passes the token to p + 1 over the cycle edge of passes[p].
        passes = [run.sender(p, (p + 1) % k, "token") for p in range(k)]
        kept = [[] for _ in range(k)]
        # Who may keep the circulating value: everyone the throwaway 0, then
        # each player until its quota is full.
        active = [True] * k
        seen = [0] * k  # how often each player has received the circulating value
        zero_keeper = final_introducer = None
        passes[0](0, "token")
        p, value = 1, 0
        hops, max_hops = 1, cfg.max_hops
        while True:
            v = value
            cnt = seen[p] = seen[p] + 1
            if active[p]:
                if cnt > counters[p]:
                    if v == 0:
                        zero_keeper = p
                        active = [q > 0 for q in quotas]
                    else:
                        kept[p].append(v)
                        active[p] = len(kept[p]) < quotas[p]
                    if v != final:
                        value = v + 1
                        seen = [0] * k
                        if value == final:
                            final_introducer = p
                    counters[p] = fresh[p]()
                elif cnt == 1:
                    counters[p] = fresh[p]()
            if v == final and final_introducer == p and cnt == N + 1:
                break  # the final value has made N+1 full circles
            passes[p](value, "token")
            p = (p + 1) % k
            hops += 1
            if hops >= max_hops:
                raise ProtocolError("deal failed to terminate within the hop bound")
        hands = tuple(tuple(sorted(h)) for h in kept)
        permutation = self._draw_permutation(run, rounds) if self.with_labels else None
        result = DealResult(hands, run.name(zero_keeper), quotas, permutation)
        return self._postprocess(run, result)

    def _draw_permutation(self, run: Run, rounds: list):
        def draw(lo, hi):
            # knuth_shuffle's i-th draw is over [i, m]: swap i is round i - 1.
            return lo + collective_round(run, hi - lo + 1, *rounds[(lo - 1) % len(rounds)],
                                         f"swap {lo}", announce=True)

        return tuple(knuth_shuffle(self.cfg.r, draw))

    def _postprocess(self, run: Run, result: DealResult):
        if self.consolidate_to is None:
            return result
        # All dummy hands travel along the dummy chain to the dealer dummy.
        dealer = self.consolidate_to
        dummies = sorted(p.index for p in run.graph.parties if not p.full)
        carried: dict[int, list] = {d: list(result.hands[d]) for d in dummies}
        for d in sorted((d for d in dummies if d != dealer), reverse=True):
            load = tuple(sorted(carried.pop(d)))
            run.send(d, d - 1, load, "consolidated cards", kind="elems")
            carried[d - 1].extend(load)
        residual = sorted(carried[dealer])
        served = []
        channels = _channels(run, self.counter_contributors, dealer)
        for requester, count in self.post_draws:
            for _ in range(count):
                if not residual:
                    raise ProtocolError("dealer has no residual cards left")
                idx = collective_round(run, len(residual), dealer, channels, "deal draw")
                card = residual.pop(idx)
                run.send(dealer, requester, card, "drawn card", kind="token")
                served.append((run.name(requester), card))
        return replace(result, residual=tuple(residual), served=tuple(served))


# -- graphs and constructions ----------------------------------------------


def dummy_deal_graph() -> ChannelGraph:
    """Two real players and a dummy third on a secure 3-cycle."""
    parties = [Party(0, "P1"), Party(1, "P2"), Party(2, "P3", full=False)]
    return ChannelGraph(parties, [(0, 1, SECURE), (1, 2, SECURE), (2, 0, SECURE)])


def dealer_graph(k: int, d: int) -> ChannelGraph:
    """k reals then d contiguous dummies on a cycle, plus the declared spokes.

    Spokes: both counter contributors (reals 0 and 1) reach every dummy,
    and the dealer dummy (index k) reaches every real, so cards can be
    served privately during play.
    """
    total = k + d
    parties = default_parties(k) + [Party(k + j, f"D{j + 1}", full=False) for j in range(d)]
    cycle = [(i, (i + 1) % total) for i in range(total)]
    spokes = [(c, dummy) for dummy in range(k, total) for c in (0, 1)]
    spokes += [(real, k) for real in range(k)]
    # A spoke may be a cycle edge or another spoke: each link is listed once.
    links = dict.fromkeys((min(i, j), max(i, j)) for i, j in cycle + spokes)
    return ChannelGraph(parties, [(i, j, SECURE) for i, j in links])


def dummy_deal_two_players(m: int, N: int, seed=0):
    """Deal to two real players via a dummy third whose hand goes back to the deck.

    Every dummy counter is synthesized from both reals' contributions;
    the dummy draws nothing itself.  Returns (real hands, discarded dummy
    hand, full result, transcript).
    """
    proto = CardDeal(DealConfig(m, 3, N), with_labels=True, counter_contributors=(0, 1))
    outcome, transcript = run(proto, dummy_deal_graph(), (), seed)
    real_hands = outcome.hands[:2]
    discarded = outcome.hands[2]
    return real_hands, discarded, outcome, transcript


def dummy_dealer_count(m: int, s: int, k: int) -> int:
    """Number of dummies so that (dummies + reals) * s is close to the deck size."""
    return max(1, round(m / s) - k)


def dummy_dealer_fixed_hands(m: int, k: int, s: int, N: int = 10, seed=0, post_draws=()):
    """Deal exactly s cards to each of k reals; dummies absorb the rest.

    The dummies' cards are consolidated at one dummy dealer, which then
    serves uniformly random residual cards on request (``post_draws`` is
    a sequence of (real player index, count) pairs).
    """
    if k < 2 or s < 1:
        raise ProtocolError("need k >= 2 real players and s >= 1 cards each")
    if m < k * s:
        raise ProtocolError(f"infeasible: {m} cards cannot give {k} players {s} each")
    d = dummy_dealer_count(m, s, k)
    quotas = (s,) * k + even_quotas(m - k * s, d, 0)
    proto = CardDeal(
        DealConfig(m, k + d, N, quotas=quotas),
        counter_contributors=(0, 1),
        consolidate_to=k,
        post_draws=post_draws,
    )
    return run(proto, dealer_graph(k, d), (), seed)
