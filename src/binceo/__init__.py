"""Two-link binary CEO problem simulator under logarithmic loss.

Compound LDGM-LDPC encoders, joint and successive sum-product decoding,
and closed-form rate-distortion bounds for gap measurements.
"""

from .binmath import (
    ChainParams,
    average_log_loss,
    binary_convolution,
    binary_entropy,
    chain_posterior,
    log_loss,
)
from .bounds import (
    InfeasibleRateError,
    OptimumResult,
    RegionPoint,
    TestChannelPair,
    bsc_bounds,
    mi_region_oracle,
    optimize_test_channels,
    point_to_point_rate,
)
from .codec import (
    bias_propagation_quantize,
    encode_joint,
    encode_successive,
    syndrome_generate,
)
from .decoders import (
    DecodeResult,
    joint_sum_product_decode,
    reconstruct_soft,
    reconstruct_soft_successive,
    side_info_prior,
    sum_product_decode,
)
from .graphs import (
    CompoundCode,
    DegreeDistribution,
    LdgmCode,
    LdpcCode,
    SparseBipartiteGraph,
    build_anchor_compound,
    build_compound,
    sample_graph,
)

__version__ = "0.1.0"
