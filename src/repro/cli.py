"""Command-line interface: ``repro <subcommand>`` / ``python -m repro``.

Subcommands
-----------
* ``fig3`` / ``fig4`` — regenerate the paper's evaluation figures as text
  tables, ASCII plots and optional CSVs.
* ``scenarios`` — list the registered evaluation scenarios, evaluate one
  by name through the ``repro.api`` facade (``scenarios list``,
  ``scenarios run NAME``), or merge a sharded scenario's chunk artifacts
  (``scenarios gather NAME``). ``--param key=value`` forwards factory
  parameters (sweep granularity, SNR points, seeds) to parameterized
  scenarios; the ``grid`` scenario takes the whole protocols × powers ×
  geometries × fading draws grid this way. ``scenarios run --shard I/N``
  evaluates one balanced slice of the scenario's grid — analytic or
  operational (link-level) — so independent processes or machines can
  split it, coordinating only through the shared cache directory;
  interrupted runs resume from cached chunks. ``scenarios gather`` takes
  the same name and ``--param`` list and merges the shard artifacts
  bitwise-identically to an unsharded run.
* ``serve`` — run the campaign daemon: a long-lived process owning a warm
  executor pool and the content-addressed cache, answering scenario
  evaluation requests over a Unix socket with in-flight deduplication,
  a cache hot path, bounded backpressure and graceful shutdown.
* ``client`` — talk to a running daemon: ``client run NAME`` evaluates a
  registered scenario remotely (transparently retrying transient
  failures — see ``--retries``), ``client ping`` / ``client stats`` /
  ``client shutdown`` probe and administer it.
  When no daemon is listening at ``--socket`` the client exits with
  status 2 and a clear "daemon not running" message.
* ``region`` — trace any protocol's rate region (or, with ``--outer``,
  its outer bound) on any channel. Sum rates of every protocol across a
  power or placement grid are ``scenarios run grid --param draws=0``.
* ``simulate`` — run the operational link-level simulator (the batched
  link engine by default; ``--reference`` runs the per-round loop,
  which produces the identical report; ``--target-rel-error`` +
  ``--max-rounds`` run escalating adaptive round waves until the FER
  estimate meets the precision target). ``scenarios run
  operational-goodput`` / ``operational-fading-fer`` evaluate the same
  simulator as campaign workloads with executors, caching and sharding.
* ``diagrams`` — print the protocol timelines (paper Figs. 1–2).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .channels.gains import LinkGains
from .core.capacity import achievable_region, outer_bound_region
from .core.gaussian import GaussianChannel
from .core.protocols import Protocol
from .exceptions import InvalidParameterError
from .experiments.config import FIG4_P0, FIG4_P10, Fig4Config
from .experiments.diagrams import all_protocol_diagrams
from .experiments.runner import fig3_report, fig4_report, run_experiment
from .experiments.tables import render_table
from .information.functions import db_to_linear

__all__ = ["main", "build_parser"]


def _channel_from_args(args) -> GaussianChannel:
    return GaussianChannel(
        gains=LinkGains.from_db(args.gab_db, args.gar_db, args.gbr_db),
        power=db_to_linear(args.power_db),
    )


def _add_channel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--power-db",
        type=float,
        default=10.0,
        help="per-node transmit power P in dB (default 10)",
    )
    parser.add_argument(
        "--gab-db",
        type=float,
        default=-7.0,
        help="direct-link gain G_ab in dB (default -7)",
    )
    parser.add_argument(
        "--gar-db",
        type=float,
        default=0.0,
        help="a-relay gain G_ar in dB (default 0)",
    )
    parser.add_argument(
        "--gbr-db",
        type=float,
        default=5.0,
        help="b-relay gain G_br in dB (default 5)",
    )


def _cmd_fig3(args) -> int:
    report = fig3_report()
    print(report.render())
    if args.csv_dir:
        for path in report.write_csvs(args.csv_dir):
            print(f"wrote {path}")
    return 0 if report.all_checks_pass() else 1


def _cmd_fig4(args) -> int:
    if args.power_db is None:
        ok = True
        for experiment_id in ("fig4a", "fig4b"):
            report = run_experiment(experiment_id)
            print(report.render())
            if args.csv_dir:
                for path in report.write_csvs(args.csv_dir):
                    print(f"wrote {path}")
            ok = ok and report.all_checks_pass()
        return 0 if ok else 1
    config = Fig4Config(power_db=args.power_db)
    experiment_id = "fig4a" if args.power_db < 5 else "fig4b"
    if config.power_db not in (FIG4_P0.power_db, FIG4_P10.power_db):
        experiment_id = f"fig4(P={args.power_db:g}dB)"
    try:
        report = fig4_report(config, experiment_id)
    except InvalidParameterError as error:
        print(f"error: {error}")
        return 2
    print(report.render())
    if args.csv_dir:
        for path in report.write_csvs(args.csv_dir):
            print(f"wrote {path}")
    return 0 if report.all_checks_pass() else 1


def _cmd_region(args) -> int:
    protocol = Protocol.from_name(args.protocol)
    try:
        channel = _channel_from_args(args)
        region = (
            outer_bound_region(protocol, channel)
            if args.outer
            else achievable_region(protocol, channel)
        )
        boundary = region.boundary(args.points)
    except InvalidParameterError as error:
        print(f"error: {error}")
        return 2
    rows = [[float(ra), float(rb)] for ra, rb in boundary]
    title = (
        f"{protocol.name} {'outer bound' if args.outer else 'achievable'} "
        f"region boundary — {channel.describe()}"
    )
    print(render_table(["Ra", "Rb"], rows, title=title))
    best = region.max_sum_rate()
    print(
        f"\nmax sum rate {best.sum_rate:.4f} bits/use at "
        f"Ra={best.ra:.4f}, Rb={best.rb:.4f}, "
        f"durations={tuple(round(d, 4) for d in best.durations)}"
    )
    return 0


def _sampling_from_args(args):
    """Build the ``ImportanceSamplingSpec`` requested on the command line.

    Returns ``None`` when no sampling flags were given. Raises
    :class:`ValueError` on incompatible combinations so the caller's
    usage-error path (exit code 2) handles them uniformly.
    """
    from .simulation.sampling import ImportanceSamplingSpec

    dependents = {
        "--is-noise-shift": args.is_noise_shift,
        "--is-target-snr-db": args.is_target_snr_db,
        "--is-min-ess": args.is_min_ess,
    }
    if args.importance_sampling is None:
        stray = [flag for flag, value in dependents.items() if value is not None]
        if stray:
            verb = "requires" if len(stray) == 1 else "require"
            raise ValueError(f"{', '.join(stray)} {verb} --importance-sampling SCALE")
        return None
    if args.reference:
        raise ValueError(
            "importance sampling runs through the fused batched kernel; "
            "it is incompatible with --reference"
        )
    kwargs = {"noise_scale": args.importance_sampling}
    if args.is_noise_shift is not None:
        kwargs["noise_shift"] = args.is_noise_shift
    if args.is_target_snr_db is not None:
        kwargs["target_snr_db"] = args.is_target_snr_db
    if args.is_min_ess is not None:
        kwargs["min_ess_fraction"] = args.is_min_ess
    return ImportanceSamplingSpec(**kwargs)


def _cmd_simulate(args) -> int:
    from .simulation.linkcodec import default_codec
    from .simulation.montecarlo import simulate_protocol

    protocol = Protocol.from_name(args.protocol)
    gains = LinkGains.from_db(args.gab_db, args.gar_db, args.gbr_db)
    rng = np.random.default_rng(args.seed)
    try:
        sampling = _sampling_from_args(args)
        report = simulate_protocol(
            protocol,
            gains,
            db_to_linear(args.power_db),
            args.rounds,
            rng,
            codec=default_codec(args.payload_bits),
            method="reference" if args.reference else "batched",
            target_rel_error=args.target_rel_error,
            max_rounds=args.max_rounds,
            importance_sampling=sampling,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    rows = [
        [
            "a->b",
            report.a_to_b.fer,
            report.a_to_b.ber,
            report.throughput.direction_throughput("a->b"),
        ],
        [
            "b->a",
            report.b_to_a.fer,
            report.b_to_a.ber,
            report.throughput.direction_throughput("b->a"),
        ],
    ]
    print(
        render_table(
            ["direction", "FER", "BER", "goodput [bits/symbol]"],
            rows,
            title=(
                f"link-level simulation: {protocol.name}, "
                f"{report.n_rounds} rounds, P={args.power_db:g} dB"
            ),
            float_format=".5f",
        )
    )
    print(
        f"\nsum goodput {report.sum_goodput:.5f} bits/symbol; "
        f"relay failures {report.relay_failures}/{report.n_rounds}"
    )
    if report.sampling is not None:
        counter = report.sampling
        print(
            f"importance sampling: weighted FER {counter.weighted_fer:.4e} "
            f"(rel std err {counter.rel_std_error:.3f}), "
            f"ESS {counter.ess_fraction:.3f} of {counter.frames} trials, "
            f"max weight {counter.max_weight:.3g}"
        )
    if report.resolved is False:
        print(
            "warning: cell exhausted --max-rounds without meeting "
            "--target-rel-error (estimate unresolved)",
            file=sys.stderr,
        )
    return 0


def _cmd_diagrams(_args) -> int:
    print(all_protocol_diagrams())
    return 0


def _stderr_progress(label: str):
    """A ``progress(done, total)`` callback drawing a one-line meter."""
    state = {"last_percent": -1}

    def callback(done: int, total: int) -> None:
        percent = int(100 * done / total) if total else 100
        if percent != state["last_percent"]:
            state["last_percent"] = percent
            print(
                f"\r[{label}] {done}/{total} cells ({percent}%)",
                end="" if done < total else "\n",
                file=sys.stderr,
                flush=True,
            )

    return callback


def _parse_shard(text: str) -> tuple:
    """Parse a 1-based ``--shard I/N`` value into 0-based (index, count)."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"expected --shard I/N (e.g. 2/3), got {text!r}")
    index, count = int(parts[0]), int(parts[1])
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard {text!r} out of range; need 1 <= I <= N")
    return index - 1, count


def _coerce_param_value(text: str):
    """Coerce a ``--param`` value: int, float, float list, else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        try:
            return tuple(float(part) for part in text.split(","))
        except ValueError:
            pass
    return text


def _parse_scenario_params(pairs) -> dict:
    """Parse repeated ``--param key=value`` flags into factory kwargs.

    Values coerce in order int → float → comma-separated float tuple →
    raw string; dashes in keys map to underscores so flags can mirror
    the CLI convention (``--param n-splits=6``). Raises ``ValueError``
    on a malformed pair (no ``=``, empty key) and on a key given twice
    (after dash normalization) — a silent last-wins overwrite would make
    ``--param scheduler=a --param scheduler=b`` evaluate a different
    scenario than the operator reviewed.
    """
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not key:
            raise ValueError(f"expected --param key=value, got {pair!r}")
        if key in params:
            raise ValueError(
                f"duplicate --param key {key!r}; each key may be given once"
            )
        params[key] = _coerce_param_value(value.strip())
    return params


def _shard_from_args(args, spec):
    """Resolve ``--shard``/``--chunk-size``/``--no-cache`` for a spec.

    Raises ``ValueError`` (printed as ``error: ...`` with exit code 2)
    on any conflict; returns the ``CampaignShard`` or ``None``.
    """
    shard = spec.shard(*_parse_shard(args.shard)) if args.shard else None
    if args.chunk_size is not None and args.chunk_size < 1:
        raise ValueError(f"--chunk-size must be positive, got {args.chunk_size}")
    if shard is not None and args.no_cache:
        raise ValueError(
            "a shard run checkpoints into the shared cache directory; "
            "drop --no-cache"
        )
    return shard


def _dump_values(result, path) -> None:
    np.save(path, result.values)
    print(f"wrote {path}")


def _cmd_scenarios_list(args) -> int:
    from .scenarios import get_scenario, list_scenarios

    if getattr(args, "as_json", False):
        import json

        from .scenarios.catalog import catalog_entries

        print(json.dumps(catalog_entries(), indent=2))
        return 0
    rows = []
    for name in list_scenarios():
        scenario = get_scenario(name)
        spec = scenario.to_campaign_spec()
        rows.append(
            [
                name,
                ",".join(p.name for p in scenario.protocols),
                scenario.n_pairs,
                spec.n_units,
                scenario.objective,
                scenario.description,
            ]
        )
    print(
        render_table(
            ["scenario", "protocols", "pairs", "cells", "objective", "description"],
            rows,
            title="registered scenarios",
        )
    )
    return 0


_OBJECTIVE_UNITS = {
    "operational_goodput": "goodput [bits/symbol]",
    "operational_fer": "frame error rate",
    "latency_quantiles": "delivery latency [slots]",
    "stable_throughput": "stable offered load [frames/slot]",
}


def _scenario_summary(result, objective):
    """Summary table (headers, rows) with objective-appropriate columns.

    Rate-like objectives report the ergodic mean and the *lower* 10%
    quantile (the outage rate: high is good, the bad tail is low). A
    frame error rate or a delivery latency is a loss metric — high is
    bad — so its outage-relevant tail is the *upper* 90% quantile, and
    "ergodic mean" would be rate jargon.
    """
    if objective in ("operational_fer", "latency_quantiles"):
        label = "mean FER" if objective == "operational_fer" else "mean latency"
        headers = ["protocol", "P [dB]", label, "std err", "90%-tail", "median"]
        return headers, result.summary_rows(epsilon=0.9)
    headers = ["protocol", "P [dB]", "ergodic mean", "std err", "10%-outage", "median"]
    return headers, result.summary_rows(epsilon=0.1)


def _scenario_from_args(args):
    """The scenario named by ``name`` + ``--param`` (shared by run/gather)."""
    from .scenarios import get_scenario

    return get_scenario(args.name, **_parse_scenario_params(args.param))


def _cmd_scenarios_run(args) -> int:
    from .api import evaluate
    from .campaign import CampaignCache, get_executor

    try:
        scenario = _scenario_from_args(args)
        spec = scenario.to_campaign_spec()
        shard = _shard_from_args(args, spec)
        executor = get_executor(args.executor, processes=args.processes or None)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    cache = False if args.no_cache else CampaignCache(args.cache_dir)
    label = shard.label if shard is not None else args.name
    progress = None if args.quiet else _stderr_progress(label)
    result = evaluate(
        scenario,
        executor=executor,
        cache=cache,
        progress=progress,
        shard=shard,
        chunk_size=args.chunk_size,
    )
    units = _OBJECTIVE_UNITS.get(scenario.objective, "sum rates [bits/use]")
    if shard is None:
        headers, rows = _scenario_summary(result, scenario.objective)
        print(
            render_table(
                headers,
                rows,
                title=(f"scenario {scenario.name}: {scenario.description} — {units}"),
            )
        )
        if scenario.objective == "round_robin_sum_rate":
            print()
            print(
                render_table(
                    ["protocol", "P [dB]", f"mean {scenario.objective}"],
                    result.objective_rows(),
                    title=(
                        f"objective {scenario.objective} over "
                        f"{scenario.n_pairs} pairs"
                    ),
                )
            )
        print()
    campaign = result.campaign
    source = "cache" if result.from_cache else f"{result.executor_name} executor"
    done = campaign.cells_from_cache + campaign.cells_computed
    scope = shard.n_units if shard is not None else spec.n_units
    print(
        f"{label}: {done}/{scope} cells via {source} "
        f"in {result.elapsed_seconds:.3f} s, "
        f"{campaign.cells_from_cache} from cache, "
        f"{campaign.cells_computed} computed"
    )
    if campaign.unresolved_cells:
        print(
            f"warning: {campaign.unresolved_cells} adaptive cells unresolved "
            "(exhausted max_rounds without meeting target_rel_error)",
            file=sys.stderr,
        )
    print(f"spec {spec.spec_hash()}")
    if args.dump:
        _dump_values(result, args.dump)
    return 0


def _cmd_scenarios_gather(args) -> int:
    from .api import gather
    from .exceptions import IncompleteCampaignError

    try:
        scenario = _scenario_from_args(args)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    cache = _gather_store_or_error(args)
    if cache is None:
        return 1
    try:
        result = gather(scenario, cache)
    except IncompleteCampaignError as error:
        print(f"error: {error}")
        return 1
    spec = result.spec
    units = _OBJECTIVE_UNITS.get(scenario.objective, "sum rates [bits/use]")
    headers, rows = _scenario_summary(result, scenario.objective)
    print(
        render_table(
            headers,
            rows,
            title=f"gathered scenario {scenario.name} — {units}",
        )
    )
    print(
        f"\ngathered {spec.n_units}/{spec.n_units} cells from "
        f"{cache.directory} in {result.elapsed_seconds:.3f} s"
    )
    print(f"spec {spec.spec_hash()}")
    if args.dump:
        _dump_values(result, args.dump)
    return 0


def _cmd_scenarios_catalog(args) -> int:
    from .scenarios.catalog import check_catalog, render_markdown, write_catalog

    if args.check:
        if check_catalog(args.check):
            print(f"{args.check} matches the scenario registry")
            return 0
        print(
            f"error: {args.check} is stale; regenerate it with "
            f"'repro scenarios catalog --write {args.check}'"
        )
        return 1
    if args.write:
        print(f"wrote {write_catalog(args.write)}")
        return 0
    print(render_markdown(), end="")
    return 0


def _cmd_serve(args) -> int:
    from .exceptions import ReproError
    from .serve import ServeConfig
    from .serve import serve as run_server

    try:
        config = ServeConfig(
            socket_path=args.socket,
            cache=False if args.no_cache else (args.cache_dir or True),
            executor=args.executor,
            processes=args.processes or None,
            max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            chunk_size=args.chunk_size,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    print(
        f"serving campaigns on {args.socket} "
        f"(executor {args.executor}, max {args.max_pending} jobs in flight); "
        "stop with Ctrl-C or 'repro client shutdown'",
        file=sys.stderr,
    )
    try:
        run_server(config)
    except KeyboardInterrupt:
        print("\ninterrupted; socket closed", file=sys.stderr)
    except ReproError as error:
        print(f"error: {error}")
        return 1
    return 0


def _cmd_client(args) -> int:
    from .serve import ServeClient, ServeError

    try:
        client = ServeClient(args.socket, timeout=args.timeout, retries=args.retries)
        if args.action == "ping":
            pong = client.ping()
            draining = " (draining)" if pong.get("draining") else ""
            print(f"pong: protocol v{pong.get('protocol_version')}{draining}")
        elif args.action == "stats":
            reply = client.stats()
            print(f"status: {reply.get('status', 'unknown')}")
            for key in ("in_flight", "max_pending", "executor", "pool_rebuilds"):
                if key in reply:
                    print(f"{key}: {reply[key]}")
            for key, value in sorted((reply.get("faults_injected") or {}).items()):
                print(f"fault {key}: {value}")
            for key, value in sorted(reply.get("stats", {}).items()):
                print(f"{key}: {value}")
        elif args.action == "shutdown":
            client.shutdown()
            print("server is draining")
        else:
            progress = None if args.quiet else _stderr_progress(args.name)
            served = client.evaluate(
                args.name,
                executor=args.executor,
                chunk_size=args.chunk_size,
                timeout=args.request_timeout,
                progress=progress,
            )
            shape = "x".join(str(n) for n in served.values.shape)
            print(
                f"{args.name}: {shape} grid served from {served.served_from} "
                f"in {served.elapsed_seconds:.3f} s server-side"
            )
            print(f"spec {served.spec_hash}")
            if args.dump:
                np.save(args.dump, served.values)
                print(f"wrote {args.dump}")
    except InvalidParameterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ServeError as error:
        if error.code == "unreachable":
            # No daemon is listening: an operator problem, not a request
            # problem — distinct exit status, no traceback.  The message
            # already reads "daemon not running at PATH (...)".
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"error [{error.code}]: {error}")
        return 1
    return 0


def _gather_store_or_error(args):
    """The gather cache store, or ``None`` after a clear operator error.

    ``scenarios gather`` reads shard artifacts that earlier ``scenarios
    run --shard`` runs must have written; a missing, non-directory or
    empty cache directory means the operator pointed at the wrong place
    (or no shard has run), which deserves a direct message instead of
    the generic "missing N of N cells" incompleteness report.
    """
    from .campaign import CampaignCache
    from .campaign.cache import ENTRY_SUFFIX

    cache = CampaignCache(args.cache_dir)
    directory = cache.directory
    if not directory.exists():
        print(
            f"error: cache directory {directory} does not exist; "
            "run the shards first or point --cache-dir at their cache"
        )
        return None
    if not directory.is_dir():
        print(f"error: {directory} is not a directory")
        return None
    if not any(directory.glob(f"*{ENTRY_SUFFIX}")) and not any(
        directory.glob("*.chunks")
    ):
        print(
            f"error: cache directory {directory} holds no campaign "
            "artifacts; run the shards first or point --cache-dir at "
            "their cache"
        )
        return None
    return cache


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by ``scenarios run`` and ``scenarios gather``.

    A gather must describe the same spec as the shard runs it merges for
    the content hashes to line up, so both subcommands take the scenario
    name and its ``--param`` list from one definition.
    """
    parser.add_argument("name", help="registered scenario name")
    parser.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="forward a factory parameter to a parameterized scenario "
        "(repeatable); values coerce int, then float, then "
        "comma-separated floats, else string",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory, shared by shard runs and their "
        "gather (default $REPRO_CAMPAIGN_CACHE or ~/.cache/repro/campaigns)",
    )
    parser.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="also write the raw result array to PATH via np.save",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bidirectional coded cooperation: bounds and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig3 = sub.add_parser("fig3", help="regenerate the paper's Fig. 3")
    p_fig3.add_argument("--csv-dir", default=None, help="also write CSV tables here")
    p_fig3.set_defaults(func=_cmd_fig3)

    p_fig4 = sub.add_parser("fig4", help="regenerate the paper's Fig. 4")
    p_fig4.add_argument(
        "--power-db",
        type=float,
        default=None,
        help="panel power in dB (omit to run both panels)",
    )
    p_fig4.add_argument("--csv-dir", default=None, help="also write CSV tables here")
    p_fig4.set_defaults(func=_cmd_fig4)

    p_region = sub.add_parser("region", help="trace a protocol's rate region")
    p_region.add_argument(
        "--protocol",
        required=True,
        choices=[p.value for p in Protocol],
    )
    p_region.add_argument(
        "--outer",
        action="store_true",
        help="trace the outer bound instead of the inner",
    )
    p_region.add_argument(
        "--points",
        type=int,
        default=17,
        help="number of boundary directions (default 17)",
    )
    _add_channel_arguments(p_region)
    p_region.set_defaults(func=_cmd_region)

    p_sim = sub.add_parser("simulate", help="run the link-level simulator")
    p_sim.add_argument(
        "--protocol",
        required=True,
        choices=[p.value for p in Protocol],
    )
    p_sim.add_argument("--rounds", type=int, default=100)
    p_sim.add_argument("--payload-bits", type=int, default=128)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--reference",
        action="store_true",
        help="run the per-round reference loop instead of the batched "
        "kernel (identical results)",
    )
    p_sim.add_argument(
        "--target-rel-error",
        type=float,
        default=None,
        help="adaptive budget: stop once the FER estimate's relative "
        "std error meets this target (requires --max-rounds)",
    )
    p_sim.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help="adaptive budget: hard cap on rounds when --target-rel-error is set",
    )
    p_sim.add_argument(
        "--importance-sampling",
        type=float,
        default=None,
        metavar="SCALE",
        help="rare-event mode: twist the noise proposal by this per-component "
        "standard-deviation factor (>= 1) and reweight each frame by its "
        "exact likelihood ratio; FER stays unbiased",
    )
    p_sim.add_argument(
        "--is-noise-shift",
        type=float,
        default=None,
        metavar="SHIFT",
        help="importance sampling: mean shift (in noise std units) pushed "
        "against the transmitted signal (requires --importance-sampling)",
    )
    p_sim.add_argument(
        "--is-target-snr-db",
        type=float,
        default=None,
        metavar="DB",
        help="importance sampling: per-cell twist calibration — cells whose "
        "best-link SNR is below this threshold fall back toward vanilla "
        "draws (requires --importance-sampling)",
    )
    p_sim.add_argument(
        "--is-min-ess",
        type=float,
        default=None,
        metavar="FRAC",
        help="importance sampling: refuse to resolve adaptive cells whose "
        "effective sample size falls below this fraction of trials "
        "(requires --importance-sampling)",
    )
    _add_channel_arguments(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_diag = sub.add_parser("diagrams", help="print the protocol timelines")
    p_diag.set_defaults(func=_cmd_diagrams)

    p_scenarios = sub.add_parser(
        "scenarios",
        help="list registered evaluation scenarios or run one by name",
    )
    scenario_sub = p_scenarios.add_subparsers(dest="action", required=True)
    p_scn_list = scenario_sub.add_parser(
        "list", help="table of every registered scenario"
    )
    p_scn_list.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the catalog entries as JSON instead of a table",
    )
    p_scn_list.set_defaults(func=_cmd_scenarios_list)
    p_scn_catalog = scenario_sub.add_parser(
        "catalog",
        help="render the registry as the markdown scenario catalog",
    )
    catalog_mode = p_scn_catalog.add_mutually_exclusive_group()
    catalog_mode.add_argument(
        "--write",
        default=None,
        metavar="PATH",
        help="regenerate the catalog page at PATH (docs/scenarios.md)",
    )
    catalog_mode.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="exit non-zero if the committed catalog at PATH is stale",
    )
    p_scn_catalog.set_defaults(func=_cmd_scenarios_catalog)
    p_scn_run = scenario_sub.add_parser(
        "run", help="evaluate a registered scenario through repro.api"
    )
    _add_scenario_arguments(p_scn_run)
    p_scn_run.add_argument(
        "--executor",
        default=None,
        choices=["serial", "process", "vectorized", "async"],
        help="campaign executor (default vectorized)",
    )
    p_scn_run.add_argument(
        "--processes",
        type=int,
        default=0,
        help="worker count for --executor process or async (default: cpu count)",
    )
    p_scn_run.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="evaluate only slice I of N (1-based) of the scenario's flat "
        "grid; shards coordinate through the shared cache directory",
    )
    p_scn_run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="CELLS",
        help="checkpoint granularity in grid cells (default 256)",
    )
    p_scn_run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache",
    )
    p_scn_run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the progress meter",
    )
    p_scn_run.set_defaults(func=_cmd_scenarios_run)
    p_scn_gather = scenario_sub.add_parser(
        "gather",
        help="merge a sharded scenario's chunk artifacts into its full result",
    )
    _add_scenario_arguments(p_scn_gather)
    p_scn_gather.set_defaults(func=_cmd_scenarios_gather)

    p_serve = sub.add_parser(
        "serve",
        help="run the campaign evaluation daemon on a Unix socket",
    )
    p_serve.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="Unix-domain socket path to listen on",
    )
    p_serve.add_argument(
        "--executor",
        default="async",
        choices=["serial", "process", "vectorized", "async"],
        help="default campaign executor for served jobs (default async: "
        "one shared worker pool, chunks steal across requests)",
    )
    p_serve.add_argument(
        "--processes",
        type=int,
        default=0,
        help="worker count for --executor process or async (default: cpu count)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=4,
        help="bound on in-flight jobs; excess requests get a 'busy' error (default 4)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (default: none)",
    )
    p_serve.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="CELLS",
        help="default checkpoint granularity for served jobs",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed cache directory (default "
        "$REPRO_CAMPAIGN_CACHE or ~/.cache/repro/campaigns)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve compute-only, without the content-addressed cache",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="talk to a running 'repro serve' daemon",
    )
    p_client.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="Unix-domain socket path of the daemon",
    )
    p_client.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="client-side socket timeout (default: wait indefinitely)",
    )
    p_client.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "retry retryable failures (dropped connection, busy daemon) up "
            "to N times with exponential backoff; safe because identical "
            "requests dedup server-side (default: 2)"
        ),
    )
    client_sub = p_client.add_subparsers(dest="action", required=True)
    p_client_run = client_sub.add_parser(
        "run", help="evaluate a registered scenario on the daemon"
    )
    p_client_run.add_argument("name", help="registered scenario name")
    p_client_run.add_argument(
        "--executor",
        default=None,
        choices=["serial", "process", "vectorized", "async"],
        help="override the daemon's default executor for this job",
    )
    p_client_run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="CELLS",
        help="override the daemon's checkpoint granularity",
    )
    p_client_run.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server-side deadline for this request",
    )
    p_client_run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the progress meter",
    )
    p_client_run.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="also write the served result array to PATH via np.save",
    )
    client_sub.add_parser("ping", help="liveness probe")
    client_sub.add_parser(
        "stats", help="serving counters, pool, queue and fault-injection counters"
    )
    client_sub.add_parser("shutdown", help="ask the daemon to drain and exit")
    p_client.set_defaults(func=_cmd_client)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
