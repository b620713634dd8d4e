"""The scenario registry: name -> scenario factory.

Scenarios register either as ready-made :class:`~repro.scenarios.base
.Scenario` instances or as zero-argument factories (so construction stays
lazy), and are resolved by name everywhere a scenario is accepted —
``repro.api.evaluate("fig3-placement")``, the ``repro scenarios`` CLI,
and any user code::

    @register_scenario(name="my-sweep")
    def my_sweep():
        return Scenario(...)

    evaluate("my-sweep")
"""

from __future__ import annotations

import inspect

from ..exceptions import InvalidParameterError
from .base import Scenario

__all__ = [
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "list_scenarios",
]

#: Registered factories, keyed by scenario name.
_REGISTRY: dict = {}


def register_scenario(target=None, *, name: str | None = None, replace: bool = False):
    """Register a scenario (or scenario factory) under a name.

    Usable three ways::

        register_scenario(scenario)                 # a Scenario instance
        @register_scenario                          # factory, name derived
        @register_scenario(name="fig3-placement")   # factory, explicit name

    A factory is any zero-argument callable returning a
    :class:`Scenario`; its default name is the function name with
    underscores mapped to dashes. Registering an existing name raises
    unless ``replace=True``. A registered scenario must name its
    ``grounding`` (the paper or result it reproduces): an instance
    without one is refused here, a factory's scenario when
    :func:`get_scenario` builds it.
    """
    if target is None:
        return lambda factory: register_scenario(factory, name=name, replace=replace)
    if isinstance(target, Scenario):
        _check_grounding(name or target.name, target)
        _add(name or target.name, lambda: target, replace)
        return target
    if callable(target):
        derived = getattr(target, "__name__", "").replace("_", "-")
        _add(name or derived, target, replace)
        return target
    raise InvalidParameterError(
        f"expected a Scenario or a zero-argument factory, got {target!r}"
    )


def _add(name: str, factory, replace: bool) -> None:
    if not isinstance(name, str) or not name:
        raise InvalidParameterError(
            f"scenario name must be a non-empty string, got {name!r}"
        )
    if name in _REGISTRY and not replace:
        raise InvalidParameterError(
            f"scenario {name!r} is already registered; pass replace=True "
            "to overwrite it"
        )
    _REGISTRY[name] = factory


def _check_grounding(name: str, scenario: Scenario) -> None:
    if not scenario.grounding.strip():
        raise InvalidParameterError(
            f"scenario {name!r} has no grounding; a registered scenario must "
            "name the paper or result it reproduces"
        )


def unregister_scenario(name: str) -> None:
    """Remove a registered scenario (no-op for unknown names)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str, **params) -> Scenario:
    """Resolve a registered scenario by name.

    Keyword ``params`` are forwarded to the scenario's factory (e.g.
    sweep granularity or SNR points of a parameterized scenario); they
    are validated against the factory's signature up front, so a typo'd
    or unsupported parameter fails with a clear error instead of a bare
    ``TypeError``. Scenarios registered as ready-made instances accept
    no parameters.
    """
    if name not in _REGISTRY:
        raise InvalidParameterError(
            f"unknown scenario {name!r}; registered: {list_scenarios()}"
        )
    factory = _REGISTRY[name]
    if params:
        try:
            inspect.signature(factory).bind_partial(**params)
        except TypeError as error:
            raise InvalidParameterError(
                f"scenario {name!r} does not accept parameters "
                f"{sorted(params)}: {error}"
            ) from None
    scenario = factory(**params)
    if not isinstance(scenario, Scenario):
        raise InvalidParameterError(
            f"factory for {name!r} returned {scenario!r}, not a Scenario"
        )
    _check_grounding(name, scenario)
    return scenario


def list_scenarios() -> tuple:
    """Names of every registered scenario, sorted."""
    return tuple(sorted(_REGISTRY))
