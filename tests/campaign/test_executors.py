"""Executor equivalence: serial, process-pool and vectorized must agree
bitwise on identical work, so cached results are execution-independent."""

import numpy as np
import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executors import (
    AsyncExecutor,
    MultiprocessExecutor,
    SerialExecutor,
    UnitBatch,
    VectorizedExecutor,
    get_executor,
)
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def seeded_spec():
    """Three protocols over one seeded Rayleigh ensemble at 10 dB."""
    from repro.channels.gains import LinkGains

    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC, Protocol.HBC),
        powers_db=(10.0,),
        gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
        fading=FadingSpec(n_draws=24, seed=99),
    )


@pytest.fixture(scope="module")
def seeded_batches(seeded_spec):
    """Per-protocol unit batches over the seeded ensemble."""
    draws = seeded_spec.sample_gain_draws().reshape(-1, 3)
    return [
        UnitBatch(
            protocol=protocol,
            gab=draws[:, 0],
            gar=draws[:, 1],
            gbr=draws[:, 2],
            power=np.full(draws.shape[0], 10.0),
        )
        for protocol in seeded_spec.protocols
    ]


@pytest.fixture(scope="module")
def serial_results(seeded_batches):
    return SerialExecutor().run(seeded_batches)


class TestBitwiseEquivalence:
    def test_vectorized_matches_serial(self, seeded_batches, serial_results):
        vectorized = VectorizedExecutor().run(seeded_batches)
        for fast, reference in zip(vectorized, serial_results):
            assert np.array_equal(fast, reference)

    def test_chunked_vectorized_matches_serial(self, seeded_spec, serial_results):
        """Chunks of 7 cut the 24-cell protocol blocks mid-batch."""
        chunked = run_campaign(seeded_spec, executor="vectorized", chunk_size=7)
        assert np.array_equal(chunked.values.ravel(), np.concatenate(serial_results))

    def test_multiprocess_matches_serial(self, seeded_batches, serial_results):
        executor = MultiprocessExecutor(processes=2)
        jobs = [(index, [batch]) for index, batch in enumerate(seeded_batches)]
        with executor.reserve():
            futures = dict(executor.run_chunks(jobs))
            pooled = executor.run(seeded_batches)
        for index, reference in enumerate(serial_results):
            assert np.array_equal(futures[index], reference)
            assert np.array_equal(pooled[index], reference)


@pytest.fixture(scope="module")
def link_batch():
    """One operational (link-level) unit batch of six fused cells."""
    from repro.campaign.spec import LinkSimSpec
    from repro.channels.gains import LinkGains

    gains = [LinkGains.from_db(-7.0 + i, 0.0, 5.0 - i) for i in range(6)]
    return UnitBatch(
        protocol=Protocol.MABC,
        gab=np.array([g.gab for g in gains]),
        gar=np.array([g.gar for g in gains]),
        gbr=np.array([g.gbr for g in gains]),
        power=np.full(6, 10**1.2),
        link=LinkSimSpec(n_rounds=4, payload_bits=24, seed=5, code="test", crc="crc8"),
        indices=np.arange(6),
    )


class TestLinkBatchWidth:
    """Fused link width follows the engine's chunks, not a separate knob."""

    def test_vectorized_matches_serial(self, link_batch):
        reference = SerialExecutor().run([link_batch])[0]
        fused = VectorizedExecutor().run([link_batch])[0]
        assert np.array_equal(fused, reference)

    def test_chunk_size_bounds_cells_per_fused_call(self, monkeypatch):
        from repro.simulation import montecarlo

        spec = _equivalence_spec("operational")
        reference = run_campaign(spec, executor="serial")
        widths = []
        original = montecarlo.simulate_protocol_cells

        def recording(protocol, gains_cells, *args, **kwargs):
            widths.append(len(tuple(gains_cells)))
            return original(protocol, gains_cells, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_protocol_cells", recording)
        chunked = run_campaign(spec, executor="vectorized", chunk_size=2)
        assert widths and max(widths) <= 2
        assert sum(widths) == spec.n_units
        assert chunked.values.tobytes() == reference.values.tobytes()


class TestProgress:
    def test_progress_reaches_total(self, seeded_batches):
        ticks = []
        VectorizedExecutor().run(
            seeded_batches, progress=lambda done, total: ticks.append((done, total))
        )
        total = sum(len(b) for b in seeded_batches)
        assert ticks[-1] == (total, total)
        assert [t[0] for t in ticks] == sorted(t[0] for t in ticks)

    def test_serial_progress_counts_every_unit(self, seeded_batches):
        ticks = []
        SerialExecutor().run(
            seeded_batches[:1],
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert len(ticks) == len(seeded_batches[0])


class TestRegistry:
    def test_names_resolve(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("vectorized"), VectorizedExecutor)
        assert isinstance(get_executor(None), VectorizedExecutor)
        assert get_executor("async").name == "async"
        # "process" is the same pool executor under its own name, and
        # defines nothing else.
        process = get_executor("process")
        assert isinstance(process, AsyncExecutor)
        assert process.name == "process"
        own = {key for key in vars(MultiprocessExecutor) if not key.startswith("__")}
        assert own == {"name"}

    def test_processes_reach_both_pool_names(self):
        for name in ("process", "async"):
            assert get_executor(name, processes=3).processes == 3
            with pytest.raises(InvalidParameterError):
                get_executor(name, processes=-2)
        # In-process executors have no pool to size.
        assert isinstance(get_executor("serial", processes=3), SerialExecutor)

    def test_instances_pass_through(self):
        executor = VectorizedExecutor()
        assert get_executor(executor) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            get_executor("gpu")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            MultiprocessExecutor(processes=0)

    def test_pool_size_is_the_only_option(self):
        with pytest.raises(TypeError):
            get_executor("vectorized", max_batch=1)
        with pytest.raises(TypeError):
            VectorizedExecutor(max_batch=1)


def _equivalence_spec(kind):
    from repro.campaign.spec import LinkSimSpec
    from repro.channels.gains import LinkGains

    gains = (LinkGains.from_db(-7.0, 0.0, 5.0),)
    if kind == "analytic":
        return CampaignSpec(
            protocols=(Protocol.MABC, Protocol.HBC),
            powers_db=(0.0, 10.0),
            gains=gains,
            fading=FadingSpec(n_draws=9, seed=41),
        )
    return CampaignSpec(
        protocols=(Protocol.DT, Protocol.MABC),
        powers_db=(5.0, 10.0),
        gains=gains,
        fading=FadingSpec(n_draws=3, seed=7),
        link=LinkSimSpec(n_rounds=2, payload_bits=32, seed=5),
    )


class TestEveryExecutorName:
    """All four registry names agree bitwise, unchunked and chunk-cached."""

    @pytest.mark.parametrize("kind", ["analytic", "operational"])
    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    def test_names_agree_bitwise(self, kind, chunked, tmp_path):
        spec = _equivalence_spec(kind)
        values = {}
        for name in ("serial", "vectorized", "process", "async"):
            options = {}
            if chunked:
                options = {"cache": tmp_path / name, "chunk_size": 5}
            result = run_campaign(
                spec, executor=get_executor(name, processes=2), **options
            )
            assert result.executor_name == name
            assert result.cells_computed == spec.n_units
            values[name] = result.values.tobytes()
        assert len(set(values.values())) == 1


def _analytic_scenario_names():
    from repro.scenarios import get_scenario, list_scenarios

    return [
        name
        for name in list_scenarios()
        if get_scenario(name).to_campaign_spec().link is None
    ]


class TestRegisteredAnalyticScenarios:
    """Every registered analytic scenario, one batch per protocol run."""

    @pytest.mark.parametrize("name", _analytic_scenario_names())
    def test_vectorized_serial_and_chunked_agree_bitwise(self, name):
        from repro.scenarios import get_scenario

        spec = get_scenario(name).to_campaign_spec()
        vectorized = run_campaign(spec, executor="vectorized").values
        serial = run_campaign(spec, executor="serial").values
        chunked = run_campaign(spec, executor="vectorized", chunk_size=37).values
        assert vectorized.tobytes() == serial.tobytes()
        assert chunked.tobytes() == serial.tobytes()
