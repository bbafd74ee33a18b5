"""End-to-end experiment runner: session, reconciliation, key distillation.

Chains a simulated exchange into a secured key the way the bench run is
reported: raw detections, sifting, error estimate over the full sifted key,
CASCADE with its actual parity leakage, then hashing down with the
multiphoton tag fraction taken from the closed-form click model.  It only
computes: the command line writes the summary out, one line per field.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .bb84 import SessionResult, run_session
from .channel import LinkSpec, click_probability, exact_click_probability
from .config import check_events
from .reconciliation import ReconciliationConfig, cascade, check_shuffle_budget, privacy_amplify
from .sources import SourceSpec, multiphoton_probability

__all__ = [
    "ExperimentSummary",
    "run_experiment_detailed",
    "derive_seed",
    "EST_QBER_FLOOR",
]

# reconciliation needs a usable working estimate even for error-free runs
EST_QBER_FLOOR = 0.005


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


# the session and hashing defaults are the library's own, declared once
_SESSION = inspect.signature(run_session).parameters
_HASH = inspect.signature(privacy_amplify).parameters


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
    (named ``pulses``) or a sifted key, half of them, over CASCADE's shuffle budget.
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
    check_shuffle_budget(round(detections / 2), n_passes)
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
