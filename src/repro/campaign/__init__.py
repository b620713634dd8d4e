"""Batched campaign execution: sweeps and ensembles at hardware speed.

This subsystem turns the library's embarrassingly parallel workloads —
channel-quality sweeps, power sweeps, quasi-static fading ensembles —
into declarative grids evaluated through pluggable executors:

* describe the grid with a :class:`CampaignSpec`
  (``protocols × powers × geometries × fading draws``),
* evaluate it with :func:`run_campaign` through the serial, vectorized
  or process-pool executor (all bitwise-equivalent),
* repeated specs are served from a content-addressed on-disk cache,
* with a cache, execution is chunk-checkpointed: interrupted campaigns
  resume instead of restarting, ``run_campaign(spec, shard=spec.shard(i, n))``
  splits the grid across processes/machines that share only a cache
  directory, and :func:`gather_campaign` merges shard artifacts into a
  result bitwise-identical to an unsharded run.

Quickstart::

    from repro.campaign import CampaignSpec, FadingSpec, run_campaign
    from repro import LinkGains, Protocol

    spec = CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC, Protocol.HBC),
        powers_db=(0.0, 10.0, 20.0),
        gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
        fading=FadingSpec(n_draws=500, seed=7),
    )
    result = run_campaign(spec, executor="vectorized", cache=True)
    print(result.ergodic_mean(Protocol.HBC, 10.0))
"""

from .cache import CampaignCache, default_cache_dir
from .engine import (
    CampaignResult,
    RetryPolicy,
    evaluate_ensemble,
    gather_campaign,
    run_campaign,
)
from .executors import (
    EXECUTOR_NAMES,
    AsyncExecutor,
    ChunkFailure,
    MultiprocessExecutor,
    SerialExecutor,
    UnitBatch,
    VectorizedExecutor,
    get_executor,
)
from .kernel import KERNEL_VERSION, batched_sum_rates
from .spec import (
    AXIS_OVERRIDE_KEYS,
    DEFAULT_CHUNK_SIZE,
    GRID_AXES,
    CampaignShard,
    CampaignSpec,
    FadingSpec,
    GridAxis,
    LinkSimSpec,
    chunk_ranges,
)

__all__ = [
    "CampaignCache",
    "default_cache_dir",
    "CampaignResult",
    "RetryPolicy",
    "evaluate_ensemble",
    "gather_campaign",
    "run_campaign",
    "EXECUTOR_NAMES",
    "AsyncExecutor",
    "ChunkFailure",
    "MultiprocessExecutor",
    "SerialExecutor",
    "UnitBatch",
    "VectorizedExecutor",
    "get_executor",
    "KERNEL_VERSION",
    "batched_sum_rates",
    "GRID_AXES",
    "AXIS_OVERRIDE_KEYS",
    "DEFAULT_CHUNK_SIZE",
    "chunk_ranges",
    "CampaignShard",
    "CampaignSpec",
    "FadingSpec",
    "GridAxis",
    "LinkSimSpec",
]
