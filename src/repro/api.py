"""The evaluation facade: one entry point over the campaign engine.

Every batch workload in this library — figure sweeps, fading ensembles,
power studies, multi-pair grids — is "evaluate a scenario", and
:func:`evaluate` is the one door they all go through::

    from repro.api import evaluate

    result = evaluate("fig3-placement")            # by registered name
    result = evaluate(my_scenario, cache=True)     # or a Scenario instance
    hbc = result.ergodic_mean(Protocol.HBC, 15.0)

Execution semantics (executors, content-addressed caching, chunk
checkpointing, sharding across machines) are inherited unchanged from
:func:`repro.campaign.engine.run_campaign`; the facade adds scenario
resolution and labeled :class:`~repro.scenarios.result.EvaluationResult`
values on top. :func:`gather` is the matching facade over shard-artifact
merging. Callers that already hold concrete channel draws (the
Monte-Carlo drivers) evaluate them with
:func:`repro.campaign.engine.evaluate_ensemble`.
"""

from __future__ import annotations

from .campaign.engine import CampaignResult, gather_campaign, run_campaign
from .exceptions import InvalidParameterError
from .scenarios.base import Scenario
from .scenarios.registry import get_scenario
from .scenarios.result import EvaluationResult

__all__ = ["evaluate", "gather"]


def _resolve_scenario(scenario_or_name) -> Scenario:
    """Accept a :class:`Scenario` or a registered scenario name."""
    if isinstance(scenario_or_name, Scenario):
        return scenario_or_name
    if isinstance(scenario_or_name, str):
        return get_scenario(scenario_or_name)
    raise InvalidParameterError(
        "expected a Scenario or a registered scenario name, "
        f"got {scenario_or_name!r}"
    )


def _evaluate_via_server(
    scenario_or_name, scenario, server, *, executor, chunk_size, progress
) -> EvaluationResult:
    """Route an evaluation through a ``repro serve`` daemon.

    The daemon owns its cache and default executor; the request forwards
    only the per-call overrides. Served values are bitwise-identical to a
    local run, so the returned result is interchangeable with one.
    """
    from .serve.client import ServeClient, ServeError

    client = server if isinstance(server, ServeClient) else ServeClient(str(server))
    executor_name = None
    if executor is not None:
        if not isinstance(executor, str):
            raise InvalidParameterError(
                "server-routed evaluation takes the executor by name, "
                f"got {executor!r}"
            )
        executor_name = executor
    served = client.evaluate(
        scenario_or_name,
        executor=executor_name,
        chunk_size=chunk_size,
        progress=progress,
    )
    spec = scenario.to_campaign_spec()
    if served.values.shape != spec.grid_shape:
        raise ServeError(
            f"server returned shape {served.values.shape} for a grid of "
            f"shape {spec.grid_shape}",
            code="internal",
        )
    campaign = CampaignResult(
        spec=spec,
        values=served.values,
        executor_name=f"serve:{served.payload.get('executor', 'unknown')}",
        from_cache=served.served_from == "cache",
        elapsed_seconds=served.elapsed_seconds,
        cells_from_cache=int(served.payload.get("cells_from_cache", 0)),
        cells_computed=int(served.payload.get("cells_computed", 0)),
        chunk_retries=int(served.payload.get("chunk_retries", 0)),
        pool_rebuilds=int(served.payload.get("pool_rebuilds", 0)),
    )
    return EvaluationResult(scenario=scenario, campaign=campaign)


def evaluate(
    scenario_or_name,
    *,
    executor=None,
    cache=None,
    shard=None,
    chunk_size=None,
    progress=None,
    server=None,
) -> EvaluationResult:
    """Evaluate a scenario end to end.

    Parameters
    ----------
    scenario_or_name:
        A :class:`~repro.scenarios.base.Scenario` or the name of a
        registered one (see :func:`repro.scenarios.list_scenarios`).
    executor:
        Campaign executor name (``"serial"``, ``"vectorized"``,
        ``"async"`` or its alias ``"process"``) or instance; defaults to
        the vectorized fast path. All built-in executors are
        bitwise-equivalent. With ``server=``, only names are accepted
        (the override travels over the wire).
    cache:
        ``None``/``False`` disables caching, ``True`` selects the default
        content-addressed store, a path or
        :class:`~repro.campaign.cache.CampaignCache` an explicit one.
        With a cache, execution is chunk-checkpointed and resumable.
    shard:
        ``None`` evaluates the whole grid; a
        :class:`~repro.campaign.spec.CampaignShard` or ``(index, count)``
        pair evaluates one balanced slice (combine with a shared cache
        and :func:`gather`).
    chunk_size:
        Checkpoint granularity in grid cells.
    progress:
        Optional ``progress(done, total)`` callable. With ``server=`` it
        receives the daemon's per-chunk progress events.
    server:
        ``None`` evaluates in-process. A socket path (or
        :class:`~repro.serve.client.ServeClient`) routes the evaluation
        through a running ``repro serve`` daemon instead: the daemon
        owns the cache and the executor pool, deduplicates identical
        in-flight requests, and returns values bitwise-identical to a
        local run. Mutually exclusive with ``cache`` and ``shard``,
        which are daemon-side concerns.
    """
    scenario = _resolve_scenario(scenario_or_name)
    if server is not None:
        if cache is not None or shard is not None:
            raise InvalidParameterError(
                "server-routed evaluation owns caching and sharding on the "
                "daemon side; pass cache/shard only for local evaluation"
            )
        return _evaluate_via_server(
            scenario_or_name,
            scenario,
            server,
            executor=executor,
            chunk_size=chunk_size,
            progress=progress,
        )
    campaign = run_campaign(
        scenario.to_campaign_spec(),
        executor=executor,
        cache=cache,
        progress=progress,
        shard=shard,
        chunk_size=chunk_size,
    )
    return EvaluationResult(scenario=scenario, campaign=campaign)


def gather(scenario_or_name, cache=True) -> EvaluationResult:
    """Merge a sharded scenario evaluation into its full labeled result.

    The scenario-level facade over
    :func:`repro.campaign.engine.gather_campaign`: reads every verified
    chunk artifact written by shard runs of this scenario's grid and
    reassembles them bitwise-identically to an unsharded evaluation.
    """
    scenario = _resolve_scenario(scenario_or_name)
    campaign = gather_campaign(scenario.to_campaign_spec(), cache)
    return EvaluationResult(scenario=scenario, campaign=campaign)

