"""Partitioned parallel execution of the Remp pipeline.

The ER graph decomposes into weakly-connected components that relational
match propagation can never bridge; this package shards a prepared state
along that structure and runs the shards concurrently:

* :mod:`repro.partition.partitioner` — component discovery, size-capped
  packing into balanced graph shards, and the classifier-only shard for
  isolated pairs.
* :mod:`repro.partition.runner` — :class:`ParallelRunner`: a
  ``multiprocessing`` pool with per-shard crowd platforms derived from
  ``(seed, shard_id)``, budget splitting, per-shard checkpointing through
  :mod:`repro.store`, and a deterministic merger whose output is
  identical for every worker count.
* :mod:`repro.partition.progress` — live per-partition status rendering
  for the CLI.
"""

from repro.partition.partitioner import (
    DEFAULT_TARGET_SHARDS,
    PartitionPlan,
    Shard,
    entity_closure_components,
    pack_components,
    partition_state,
)
from repro.partition.progress import ShardProgressPrinter
from repro.partition.runner import (
    CrowdSpec,
    ParallelRunner,
    PartialResult,
    ShardEvent,
    UnitRecord,
    content_seed,
    merge_shard_results,
    split_budget,
    unit_content_key,
    unit_record_from_doc,
)

__all__ = [
    "DEFAULT_TARGET_SHARDS",
    "CrowdSpec",
    "ParallelRunner",
    "PartialResult",
    "PartitionPlan",
    "Shard",
    "ShardEvent",
    "ShardProgressPrinter",
    "UnitRecord",
    "content_seed",
    "entity_closure_components",
    "merge_shard_results",
    "pack_components",
    "partition_state",
    "split_budget",
    "unit_content_key",
    "unit_record_from_doc",
]
