"""Importance sampling for rare-event FER: twisted-noise proposals.

Deep-fade cells are the one workload the fused link kernel cannot
afford with vanilla Monte Carlo: a 1e-6-FER cell needs millions of
rounds before its estimate resolves, because the adaptive controller
(:mod:`repro.simulation.montecarlo`) can only stop once enough frame
errors have been *observed*. This module makes errors plentiful without
biasing the estimate — the classic twisted-proposal importance-sampling
construction of the deep-fade/outage-limited FER literature (cf.
arXiv:0903.1502).

The proposal
------------
Every listener noise component is nominally ``N(0, s^2)`` with
``s = sqrt(noise_power / 2)`` per real component. The proposal draws the
**same** standard block ``n`` the vanilla path draws — one contiguous
``stream.normal(0.0, s, ...)`` call per cell per phase, preserving the
documented RNG spawn policy bit for bit — and uses the affinely twisted
value ``x = sigma_c * n - mu_c * s * t`` as the noise instead, i.e. a
mean-shifted and/or variance-scaled complex Gaussian per phase. Here
``t`` is the sign of the listener's *noiseless* received aggregate: the
shift pushes every symbol toward its decision boundary (the simulator
knows what was transmitted, so the exponential tilt can point exactly
along the error direction — the classic mean-translation proposal of
rare-event FER estimation), while a payload-blind constant shift would
fight the random symbol signs and cancel itself on average. The twist
touches only the **in-phase** quadrature: the system modulates BPSK
over real channel gains, so the decision statistic ``Re(conj(g) * y)``
never sees quadrature noise — twisting it would add pure
likelihood-ratio variance for zero extra errors, and keeping the
proposal dimension small is exactly what keeps the weights
non-degenerate. Because the proposal is the affine map of the standard
draw, ``(x - m)^2 / sigma_c^2 = n^2`` identically and the exact
per-component log likelihood ratio of target over proposal is

    log w = log(sigma_c) + (n^2 - x^2) / (2 s^2),

whatever the (known) shift direction — summed over the twisted
components of a phase. With ``sigma_c = 1`` and ``mu_c = 0`` the twist
is the identity: the noise values are the vanilla draws and every
weight is exactly 1 — which is why cells *without* a sampling spec are
bitwise-identical to the pre-sampling kernel (the twist hook is simply
never installed).

Per-direction weights
---------------------
A fused row is one protocol round; its two direction outcomes are
reweighted separately. For the relay protocols every phase's noise can
influence both directions through the relay's decode-and-XOR, so both
directions carry the full row log-LR. Direct transmission and the naive
four-phase baseline factorize — phase 0 (phases 0-1) only ever touch
the ``a -> b`` outcome and phase 1 (phases 2-3) only ``b -> a`` — and
an independent phase's weight factor has unit mean, so dropping it from
the other direction's weight preserves unbiasedness while strictly
shrinking variance (conditional Monte Carlo). ``PHASE_DIRECTION_MASKS``
records which phases feed which direction;
:func:`direction_log_weights` applies it.

Per-cell parameterization
-------------------------
:meth:`ImportanceSamplingSpec.cell_twist` derives one ``(sigma_c,
mu_c)`` pair per fused grid cell from the cell's gain/power columns:
with ``target_snr_db`` set, each cell's noise is inflated just enough to
pull its strongest link down to the target SNR (never deflated, never
beyond ``noise_scale``), so clean high-SNR cells — the ones whose errors
are rarest — get the strongest twisting while genuine deep fades run
nearly vanilla.

The estimator
-------------
Since ``E_q[w * err] = E_p[err] = FER``, the weighted estimator
``sum(w_i err_i) / N`` over the pooled direction trials is unbiased at
any sample size. Weight degeneracy is guarded by the effective sample
size ``ESS = (sum w)^2 / sum w^2``: the adaptive controller refuses to
resolve a cell whose ESS fraction falls below
:attr:`ImportanceSamplingSpec.min_ess_fraction`, so a degenerate
proposal falls back to running the full ``max_rounds`` budget (and is
reported unresolved) instead of stopping early on a garbage estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError

__all__ = [
    "ImportanceSamplingSpec",
    "NoiseTwist",
    "PHASE_DIRECTION_MASKS",
    "direction_log_weights",
    "DEFAULT_MIN_ESS_FRACTION",
]

#: Default effective-sample-size guard: a cell may not resolve while its
#: ESS is below this fraction of its pooled frame count. Well-tuned
#: rare-event proposals legitimately sit in the few-percent range (the
#: weighted standard error already prices the weight spread in); truly
#: degenerate proposals collapse to ``ESS ~ 1/N``, far below this line.
DEFAULT_MIN_ESS_FRACTION = 0.02

#: Which protocol phases can influence which direction outcome. Only the
#: factorizing protocols appear here; every other protocol couples all
#: phases into both directions through the relay's decode-and-forward.
PHASE_DIRECTION_MASKS = {
    Protocol.DT: ((0,), (1,)),
    Protocol.NAIVE4: ((0, 1), (2, 3)),
}


def direction_log_weights(protocol: Protocol, phase_log_lrs) -> tuple:
    """Combine per-phase row log-LRs into per-direction log weights.

    ``phase_log_lrs`` is the medium's phase-ordered list of ``(n_rows,)``
    log likelihood ratios. Returns ``(log_w_ab, log_w_ba)``: for the
    relay-coupled protocols both are the full sum; for the factorizing
    protocols each direction keeps only its own phases' factors (the
    dropped factors are independent of the direction's outcome and have
    unit-mean weight, so the estimator stays unbiased with strictly
    smaller variance).
    """
    arrays = [np.asarray(lr, dtype=float) for lr in phase_log_lrs]
    if not arrays:
        raise InvalidParameterError("no phase log likelihood ratios recorded")
    masks = PHASE_DIRECTION_MASKS.get(protocol)
    if masks is None:
        total = arrays[0].copy()
        for lr in arrays[1:]:
            total += lr
        return total, total
    mask_ab, mask_ba = masks
    if max(mask_ab + mask_ba) >= len(arrays):
        raise InvalidParameterError(
            f"{protocol} direction masks need "
            f"{max(mask_ab + mask_ba) + 1} phases, got {len(arrays)}"
        )
    log_ab = sum(arrays[i] for i in mask_ab)
    log_ba = sum(arrays[i] for i in mask_ba)
    return log_ab, log_ba


@dataclass(frozen=True)
class NoiseTwist:
    """Concrete per-cell proposal parameters of one fused batch.

    Attributes
    ----------
    scales:
        Per-cell noise standard-deviation multipliers ``sigma_c``,
        shape ``(n_cells,)``; ``1`` is the identity.
    shifts:
        Per-cell mean shifts ``mu_c`` in units of the nominal
        per-component standard deviation, applied against the noiseless
        received sign of each symbol; ``0`` is the identity.
    """

    scales: np.ndarray
    shifts: np.ndarray

    def __post_init__(self) -> None:
        scales = np.atleast_1d(np.asarray(self.scales, dtype=float))
        shifts = np.atleast_1d(np.asarray(self.shifts, dtype=float))
        if scales.shape != shifts.shape or scales.ndim != 1:
            raise InvalidParameterError(
                f"twist scales/shifts must be matching vectors, got "
                f"{scales.shape} and {shifts.shape}"
            )
        if np.any(scales <= 0):
            raise InvalidParameterError("twist scales must be positive")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "shifts", shifts)

    @property
    def n_cells(self) -> int:
        """Number of fused cells the twist covers."""
        return int(self.scales.shape[0])

    @property
    def is_identity(self) -> bool:
        """Whether the twist leaves every draw (and weight) untouched."""
        return bool(np.all(self.scales == 1.0) and np.all(self.shifts == 0.0))

    @property
    def needs_signs(self) -> bool:
        """Whether the twist needs the noiseless received signs (any shift)."""
        return bool(np.any(self.shifts != 0.0))

    def apply(self, draws: np.ndarray, std: float, signs=None):
        """Twist one phase's standard noise block, exactly reweighted.

        Only the in-phase quadrature (component index 0) is twisted —
        see the module docstring. ``draws`` is modified in place.

        Parameters
        ----------
        draws:
            The vanilla ``(n_cells, rounds, n_listeners, 2, n_symbols)``
            noise block, drawn from the per-cell streams with
            per-component standard deviation ``std``.
        std:
            The nominal per-component standard deviation ``s``.
        signs:
            Signs of the noiseless in-phase received aggregate, shape
            ``(n_cells, rounds, n_listeners, n_symbols)`` — the shift
            direction. Required when :attr:`needs_signs`; ignored
            otherwise.

        Returns
        -------
        (twisted, log_lr):
            ``twisted`` is ``draws`` with the in-phase components
            replaced by ``sigma_c * n - mu_c * s * t``; ``log_lr`` is
            the exact per-row log likelihood ratio of target over
            proposal, shape ``(n_cells, rounds)``, summed over this
            phase's twisted components.
        """
        if draws.ndim != 5 or draws.shape[3] != 2:
            raise InvalidParameterError(
                f"expected a (cells, rounds, listeners, 2, symbols) noise "
                f"block, got shape {draws.shape}"
            )
        if draws.shape[0] != self.n_cells:
            raise InvalidParameterError(
                f"twist covers {self.n_cells} cells, draws have {draws.shape[0]}"
            )
        sigma = self.scales[:, None, None, None]
        inphase = draws[:, :, :, 0, :]
        twisted = sigma * inphase
        if self.needs_signs:
            expected = inphase.shape
            if signs is None or np.shape(signs) != expected:
                raise InvalidParameterError(
                    f"mean-shifted twist needs received signs of shape "
                    f"{expected}, got "
                    f"{None if signs is None else np.shape(signs)}"
                )
            mu = (self.shifts * std)[:, None, None, None]
            twisted = twisted - mu * signs
        n_components = int(draws.shape[2] * draws.shape[4])
        log_lr = (inphase * inphase - twisted * twisted).sum(axis=(2, 3))
        log_lr /= 2.0 * std * std
        log_lr += n_components * np.log(self.scales)[:, None]
        draws[:, :, :, 0, :] = twisted
        return draws, log_lr


@dataclass(frozen=True)
class ImportanceSamplingSpec:
    """Declarative twisted-noise proposal of an operational campaign.

    Lives on :class:`repro.campaign.spec.LinkSimSpec` and is serialized
    only when set, so every pre-existing spec hash is untouched. Only
    the ``"fer"`` metric supports reweighting (goodput and the traffic
    metrics have no weighted estimator), which
    :class:`~repro.campaign.spec.LinkSimSpec` enforces.

    Attributes
    ----------
    noise_scale:
        Proposal noise standard-deviation multiplier ``sigma`` (``> 0``;
        ``> 1`` inflates noise so frame errors become plentiful). With
        ``target_snr_db`` set it is instead the *cap* on the per-cell
        multipliers and must be ``>= 1``. Effective twists are mild —
        the likelihood-ratio variance grows with the twisted dimension,
        so ``sigma`` in the ``1.05``-``1.2`` range is where deep-fade
        gains live; far larger values degenerate the weights and trip
        the ESS guard.
    noise_shift:
        Per-component mean shift ``mu`` in units of the nominal standard
        deviation, applied *against* the sign of the noiseless received
        aggregate so every symbol is pushed toward its decision
        boundary (``0`` by default). This transmit-aware tilt is the
        sharp tool for truly rare FER — it concentrates the proposal on
        the error direction instead of inflating all noise — and
        composes with ``noise_scale``; like the scale it must stay mild
        (``0.1``-``0.3``) or the likelihood ratios degenerate.
    target_snr_db:
        Optional per-cell parameterization: each cell's multiplier is
        chosen so the cell's strongest link SNR falls to this target
        under the proposal — ``sigma_c = clip(sqrt(snr_c / target), 1,
        noise_scale)`` — deriving the twist from the cell's own
        gain/power columns.
    min_ess_fraction:
        Effective-sample-size guard in ``[0, 1)``: the adaptive
        controller refuses to resolve a cell whose
        ``ESS / pooled frames`` falls below this fraction, so degenerate
        proposals fall back to the full budget instead of resolving on a
        weight-dominated estimate.
    """

    noise_scale: float = 1.1
    noise_shift: float = 0.0
    target_snr_db: float | None = None
    min_ess_fraction: float = DEFAULT_MIN_ESS_FRACTION

    def __post_init__(self) -> None:
        for name in ("noise_scale", "noise_shift", "target_snr_db"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
        if not self.noise_scale > 0:
            raise InvalidParameterError(
                f"noise_scale must be positive, got {self.noise_scale}"
            )
        if self.target_snr_db is not None and self.noise_scale < 1.0:
            raise InvalidParameterError(
                "with target_snr_db set, noise_scale caps the per-cell "
                f"multipliers and must be >= 1, got {self.noise_scale}"
            )
        if not 0.0 <= self.min_ess_fraction < 1.0:
            raise InvalidParameterError(
                f"min_ess_fraction must lie in [0, 1), got {self.min_ess_fraction}"
            )

    def cell_twist(
        self, gab, gar, gbr, power, *, noise_power: float = 1.0
    ) -> NoiseTwist:
        """Per-cell proposal parameters from the batch's gain/power columns.

        Without ``target_snr_db`` every cell gets the shared
        ``(noise_scale, noise_shift)``. With it, cell ``c``'s multiplier
        is ``clip(sqrt(snr_c / target), 1, noise_scale)`` where ``snr_c``
        is the cell's strongest-link SNR ``power_c * max(G) /
        noise_power`` — clean cells are twisted hardest, deep fades run
        nearly vanilla.
        """
        gab = np.atleast_1d(np.asarray(gab, dtype=float))
        gar = np.atleast_1d(np.asarray(gar, dtype=float))
        gbr = np.atleast_1d(np.asarray(gbr, dtype=float))
        power = np.broadcast_to(np.asarray(power, dtype=float), gab.shape)
        if self.target_snr_db is None:
            scales = np.full(gab.shape, float(self.noise_scale))
        else:
            snr = power * np.maximum(np.maximum(gab, gar), gbr) / float(noise_power)
            target = 10.0 ** (float(self.target_snr_db) / 10.0)
            scales = np.clip(np.sqrt(snr / target), 1.0, float(self.noise_scale))
        shifts = np.full(gab.shape, float(self.noise_shift))
        return NoiseTwist(scales=scales, shifts=shifts)

    def to_dict(self) -> dict:
        """Plain-data form for hashing and serialization.

        Optional knobs are emitted only when they deviate from the
        defaults, mirroring the serialize-only-when-set discipline of the
        spec layer.
        """
        data = {"noise_scale": float(self.noise_scale)}
        if self.noise_shift != 0.0:
            data["noise_shift"] = float(self.noise_shift)
        if self.target_snr_db is not None:
            data["target_snr_db"] = float(self.target_snr_db)
        if self.min_ess_fraction != DEFAULT_MIN_ESS_FRACTION:
            data["min_ess_fraction"] = float(self.min_ess_fraction)
        return data
