"""End-to-end experiment runner: session, reconciliation, key distillation.

Chains a simulated exchange into a secured key the way the bench run is
reported: raw detections, sifting, error estimate over the full sifted key,
CASCADE with its actual parity leakage, then hashing down with the
multiphoton tag fraction taken from the closed-form click model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bb84 import SessionResult, run_session
from .channel import LinkSpec, click_probability
from .reconciliation import ReconciliationConfig, cascade, privacy_amplify
from .sources import SourceSpec, multiphoton_probability

__all__ = [
    "ExperimentSummary",
    "run_experiment_detailed",
    "format_summary_text",
    "derive_seed",
]

# reconciliation needs a usable working estimate even for error-free runs
_EST_QBER_FLOOR = 0.005


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


def run_experiment_detailed(
    source: SourceSpec,
    link: LinkSpec,
    n_pulses: int,
    master_seed: int,
    disclose_fraction: float = 0.0,
    double_click_policy: str = "random",
    n_passes: int = 4,
    verify_bits: int = 50,
    safety_margin: int = 30,
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
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0]))
    session = run_session(
        source,
        link,
        n_pulses,
        rng,
        disclose_fraction=disclose_fraction,
        double_click_policy=double_click_policy,
        full_compare=disclose_fraction == 0.0,
        protocol_bits=protocol_bits,
    )
    qber = session.qber_measured
    alice = session.sifted_alice
    bob = session.sifted_bob
    est_qber = delta = float("nan")
    corrections_made = leaked_bits = secret_bits = 0
    verified, aborted = False, True
    if alice.size >= 8 and not math.isnan(qber):
        est_qber = min(0.49, max(qber, _EST_QBER_FLOOR))
        cfg = ReconciliationConfig(
            est_qber=est_qber,
            n_passes=n_passes,
            shuffle_seed=derive_seed(master_seed, 1),
            verify_bits=verify_bits,
        )
        outcome = cascade(alice, bob, cfg)
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


def format_summary_text(summary: ExperimentSummary, metadata: dict) -> str:
    """Key = value report; metadata comments lead so hashes bind the file."""
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    for name in ExperimentSummary.__dataclass_fields__:
        value = getattr(summary, name)
        if isinstance(value, float):
            lines.append(f"{name} = {value:.6g}")
        else:
            lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"
