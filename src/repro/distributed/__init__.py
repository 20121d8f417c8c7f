"""Distinct sampling over distributed noisy streams.

The related-work discussion cites distributed distinct sampling (Chung &
Tirthapura, IPDPS 2015) and notes that rank-based approaches break on
near-duplicates.  The robust sampler, however, distributes naturally:
because every sampling decision is a deterministic function of (grid,
hash, representative cell), shard samplers built from one shared
:class:`~repro.core.base.SamplerConfig` make *consistent* accept/reject
decisions, and a coordinator can merge their states into exactly what a
single sampler would have produced on the union stream - up to group
representatives differing per shard (each shard sees its own first point
of a group), which merging reconciles by proximity.
"""

from repro.distributed.coordinator import DistributedRobustSampler

__all__ = ["DistributedRobustSampler"]
