"""Closed-form success rates: GHZ chain acceptance and cluster linking.

Pure arithmetic on ``math``, so ``grow`` and the formula-only ``ghz`` commands
reach them without loading the exact circuit engine.
"""

import math


def ghz_success_probability(n_qubits: int, eta: float) -> float:
    """Chain acceptance probability eta^(Q/2) * (Q - 2) / 2^(Q - 2).

    Q/2 photon pairs must all be detected and the accepted click patterns
    make up (Q - 2) / 2^(Q - 2) of the interferometer output.
    """
    if n_qubits < 4 or n_qubits % 2:
        raise ValueError(f"chain size must be an even integer >= 4, got {n_qubits}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    # scaling by 2^-(Q-2) with ldexp is exact where the old division by the
    # integer 2^(Q-2) was finite, and cannot overflow for large Q
    return math.ldexp(eta ** (n_qubits // 2) * (n_qubits - 2), -(n_qubits - 2))


def link_success_probability(eta_prime: float) -> float:
    if not 0.0 <= eta_prime <= 1.0:
        raise ValueError(f"eta_prime must be in [0, 1], got {eta_prime}")
    return eta_prime / 8.0
