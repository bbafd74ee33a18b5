"""One library call per command: a session, a CASCADE trial, a g2 run.

A session chains a simulated exchange into a secured key the way the bench
run is reported: raw detections, sifting, error estimate over the full
sifted key, CASCADE with its actual parity leakage, then hashing down with
the multiphoton tag fraction taken from the closed-form click model.  Each
call only computes, returning a frozen summary and its raw result, and the
command line writes them out.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ._threads import _on_two_threads
from .bb84 import SessionResult, run_session
from .channel import LinkSpec, click_probability, exact_click_probability
from .config import check_events
from .hbt import CorrelationHistogram, InsufficientDataError, LifetimeFit, correlation_histogram
from .hbt import fit_lifetime, g2_at_zero, simulate_hbt
from .rates import binary_entropy
from .reconciliation import ReconciliationConfig, ReconciliationOutcome, cascade
from .reconciliation import check_cascade_budget, privacy_amplify
from .sources import SourceSpec, multiphoton_probability

__all__ = [
    "ExperimentSummary",
    "run_experiment_detailed",
    "CascadeSummary",
    "run_cascade_trial",
    "G2Summary",
    "run_g2",
    "derive_seed",
    "EST_QBER_FLOOR",
]

# reconciliation needs a usable working estimate even for error-free runs
EST_QBER_FLOOR = 0.005

# a sifted key is near Poisson with mean half the expected detections; before
# any pulse, CASCADE's budgets are checked this many of its sigmas above that
_SIFT_SIGMAS = 6


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-task seed word from (master seed, task index)."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentSummary:
    n_pulses: int
    duration_s: float
    detected_count: int
    detected_rate_cps: float
    sifted_count: int
    sifted_rate_bps: float
    qber: float
    est_qber: float
    corrections_made: int
    leaked_bits: int
    delta: float
    secret_bits: int
    secured_rate_bps: float
    verified: bool
    aborted: bool


# the session, hashing, tag and estimator defaults are the library's own, declared once
_SESSION = inspect.signature(run_session).parameters
_HASH = inspect.signature(privacy_amplify).parameters
_HBT = inspect.signature(simulate_hbt).parameters
_HIST = inspect.signature(correlation_histogram).parameters


def run_experiment_detailed(
    source: SourceSpec,
    link: LinkSpec,
    n_pulses: int,
    master_seed: int,
    disclose_fraction: float = _SESSION["disclose_fraction"].default,
    double_click_policy: str = _SESSION["double_click_policy"].default,
    n_passes: int = ReconciliationConfig.n_passes,
    verify_bits: int = ReconciliationConfig.verify_bits,
    safety_margin: int = _HASH["safety_margin"].default,
    protocol_bits: np.ndarray | None = None,
) -> tuple[ExperimentSummary, SessionResult]:
    """One full run from pulses to secured key length, and the raw session.

    With the default zero disclosure the error rate is read off the whole
    sifted key (simulation privilege standing in for the authenticated
    sample), and the leakage charged to the key is what CASCADE actually
    spent.  Session, shuffle and hash randomness use seed words 0..2
    derived from the master seed.  A run that cannot distill a key reports
    zero secret bits with ``aborted`` set; stages it never reached read
    nan or 0.

    Before any pulse, and before ``run_session`` checks its own settings,
    ``ValueError`` refuses a run expecting over ``config.MAX_EVENTS`` detections
    (named ``pulses``) or a sifted key that could pass CASCADE's budgets: half
    the expected detections plus ``_SIFT_SIGMAS`` of their Poisson sigmas.
    """
    # settings are refused before any pulse; est_qber is a stand-in until measured
    if safety_margin < 0:
        raise ValueError(f"safety_margin must be non-negative, got {safety_margin}")
    cfg = ReconciliationConfig(
        est_qber=EST_QBER_FLOOR,
        n_passes=n_passes,
        shuffle_seed=derive_seed(master_seed, 1),
        verify_bits=verify_bits,
    )
    detections = n_pulses * exact_click_probability(source, link)
    check_events("pulses", n_pulses, detections, "detections")
    half = detections / 2
    check_cascade_budget(math.ceil(half + _SIFT_SIGMAS * math.sqrt(half)), cfg)
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0]))
    session = run_session(
        source,
        link,
        n_pulses,
        rng,
        disclose_fraction=disclose_fraction,
        double_click_policy=double_click_policy,
        protocol_bits=protocol_bits,
    )
    qber = session.qber_measured
    alice = session.sifted_alice
    bob = session.sifted_bob
    est_qber = delta = float("nan")
    corrections_made = leaked_bits = secret_bits = 0
    verified, aborted = False, True
    if alice.size >= 8 and not math.isnan(qber):
        est_qber = min(0.49, max(qber, EST_QBER_FLOOR))
        outcome = cascade(alice, bob, replace(cfg, est_qber=est_qber))
        corrections_made = outcome.corrections_made
        leaked_bits = outcome.leaked_bits

        p_click = click_probability(source.mu, link)
        delta = multiphoton_probability(source) / p_click if p_click > 0 else 1.0
        e_phase_bound = qber / (1.0 - delta) if delta < 1.0 else 1.0
        if outcome.verified_equal and delta < 1.0 and e_phase_bound < 0.5:
            secret = privacy_amplify(
                outcome.corrected_bob_key,
                outcome.leaked_bits,
                delta,
                qber,
                safety_margin=safety_margin,
                hash_seed=derive_seed(master_seed, 2),
            )
            secret_bits, verified, aborted = len(secret), True, secret.aborted
        delta = min(delta, 1.0)

    summary = ExperimentSummary(
        n_pulses=session.n_pulses,
        duration_s=session.duration_s,
        detected_count=session.detected_count,
        detected_rate_cps=session.detected_rate_cps,
        sifted_count=session.sifted_count,
        sifted_rate_bps=session.sifted_rate_bps,
        qber=qber,
        est_qber=est_qber,
        corrections_made=corrections_made,
        leaked_bits=leaked_bits,
        delta=delta,
        secret_bits=secret_bits,
        secured_rate_bps=secret_bits / session.duration_s,
        verified=verified,
        aborted=aborted,
    )
    return summary, session


@dataclass(frozen=True)
class CascadeSummary:
    n_bits: int
    true_qber: float
    est_qber: float
    corrections_made: int
    leaked_bits: int
    shannon_ratio: float
    verified: bool
    residual_error_rate: float


def run_cascade_trial(
    n_bits: int,
    qber: float,
    master_seed: int,
    est_qber: float | None = None,
    n_passes: int = ReconciliationConfig.n_passes,
    verify_bits: int = ReconciliationConfig.verify_bits,
    read_keys: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[CascadeSummary, ReconciliationOutcome]:
    """CASCADE on one key pair, and the outcome with its transcript.

    The pair is what ``read_keys`` returns (true QBER and Shannon ratio read
    nan), or else ``n_bits`` from seed word 0 with flips at ``qber`` from word
    1.  The settings are refused before ``read_keys`` is called or any draw.
    """
    if not (math.isfinite(qber) and 0.0 <= qber < 0.5):
        raise ValueError(f"qber must be finite and in [0, 0.5), got {qber}")
    cfg = ReconciliationConfig(
        est_qber=max(qber, EST_QBER_FLOOR) if est_qber is None else est_qber,
        n_passes=n_passes,
        shuffle_seed=derive_seed(master_seed, 2),
        verify_bits=verify_bits,
    )
    if read_keys is not None:
        alice, bob = read_keys()
        qber_true = float("nan")
    else:
        if n_bits < 8:
            raise ValueError(f"n_bits must be at least 8, got {n_bits}")
        check_events("n_bits", n_bits, n_bits, "key bits")
        check_cascade_budget(n_bits, cfg)
        rng_a = np.random.default_rng(np.random.SeedSequence([master_seed, 0]))
        rng_b = np.random.default_rng(np.random.SeedSequence([master_seed, 1]))
        alice = rng_a.integers(0, 2, n_bits, dtype=np.uint8)
        flips = (rng_b.random(n_bits) < qber).astype(np.uint8)
        bob = alice ^ flips
        qber_true = float(flips.mean())

    outcome = cascade(alice, bob, cfg)
    shannon = alice.size * binary_entropy(qber_true) if qber_true > 0 else float("nan")
    summary = CascadeSummary(
        n_bits=alice.size,
        true_qber=qber_true,
        est_qber=cfg.est_qber,
        corrections_made=outcome.corrections_made,
        leaked_bits=outcome.leaked_bits,
        shannon_ratio=outcome.leaked_bits / shannon if shannon > 0 else float("nan"),
        verified=outcome.verified_equal,
        residual_error_rate=float(np.mean(alice != outcome.corrected_bob_key)),
    )
    return summary, outcome


@dataclass(frozen=True)
class G2Summary:
    n_tags: int
    duration_s: float
    count_rate_cps: float
    g2_zero: float
    lifetime_ns: float
    lifetime_sigma_ns: float
    lifetime_reliable: bool


def run_g2(
    source: SourceSpec,
    n_pulses: int,
    master_seed: int,
    splitter_ratio: float = _HBT["splitter_ratio"].default,
    detection_eff: float = _HBT["detection_eff"].default,
    bin_width_ns: float = _HIST["bin_width_ns"].default,
    window_periods: int = _HIST["window_periods"].default,
) -> tuple[G2Summary, CorrelationHistogram]:
    """One HBT run to g2(0) and the lifetime, and the delay histogram.

    The fit and the histogram run side by side, and when both refuse, the
    histogram's refusal is raised; a stream too sparse to fit reads a nan
    lifetime.  The tags are dropped when this returns.
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0]))
    stream = simulate_hbt(source, n_pulses, rng, splitter_ratio, detection_eff)

    def lifetime() -> LifetimeFit:
        try:
            return fit_lifetime(stream, bin_width_ns=bin_width_ns)
        except InsufficientDataError:
            return LifetimeFit(float("nan"), float("nan"), False)

    hist, fit = _on_two_threads(lambda: correlation_histogram(
        stream, bin_width_ns=bin_width_ns, window_periods=window_periods,
    ), lifetime)
    duration_s = stream.duration_ns * 1e-9
    summary = G2Summary(
        n_tags=len(stream),
        duration_s=duration_s,
        count_rate_cps=len(stream) / duration_s,
        g2_zero=g2_at_zero(hist),
        lifetime_ns=fit.tau_ns,
        lifetime_sigma_ns=fit.sigma_ns,
        lifetime_reliable=fit.reliable,
    )
    return summary, hist
