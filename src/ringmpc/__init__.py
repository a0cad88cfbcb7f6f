"""Unconditionally secure multi-party protocols on cycle topologies.

No one-way functions anywhere: secrecy comes from random masking over a
constructible ring and from the shape of the secure-channel graph.  The
package pairs each protocol with a deterministic simulator (seeded,
replayable transcripts) and an exhaustive enumeration harness that
checks the hiding claims as exact distribution equalities.
"""

from .analysis import (
    SecrecyReport,
    SecrecySpec,
    TransmissionStats,
    secrecy_enumeration_check,
    standard_suite,
    transmission_stats,
)
from .arithmetic import (
    BitwiseOutcome,
    CompareOutcome,
    EQUAL,
    GREATER,
    LESS,
    NEGATIVE,
    POSITIVE,
    ExampleF1,
    ExampleF2,
    MillionairesBitwise,
    MillionairesCompare,
    SecureProduct,
    SecureRating,
    SecureSum,
    SumOfPowers,
    symmetric_from_power_sums,
)
from .commitment import (
    Commit2Dummy,
    Commit3,
    CommitK,
    ObliviousTransfer,
)
from .engine import (
    Message,
    Protocol,
    ScriptedSource,
    Transcript,
    View,
    eavesdropper_view,
    extract_view,
    merge_views,
    run,
    commit,
)
from .errors import (
    BudgetExceeded,
    CheatDetected,
    DummyRandomnessError,
    PhaseError,
    ProtocolError,
    ReplayError,
    RingError,
    TopologyError,
)
from .poker import (
    DealConfig,
    DealResult,
    CardDeal,
    dummy_deal_two_players,
    dummy_dealer_fixed_hands,
    expected_circles,
    knuth_shuffle,
    CollectiveRandom,
)
from .ring import RingSpec, integers, mod_ring
from .sharing import (
    ShareVector,
    DistributeShares,
    reconstruct,
    ShareSecret,
)
from .topology import (
    ChannelGraph,
    Party,
    build_cycle,
    dummy_triangle,
    validate_topology,
)

__version__ = "0.1.0"
