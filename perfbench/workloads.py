"""Workload definitions shared by the harness and the workload process.

A workload's inputs are drawn from its seed here, in the harness, and
handed to the workload process as plain data; the program under test
never sees the seed. The sizes are fixed per scale so that every seed
does the same amount of work and only the values change.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("verify_large", "trajectory_long", "cyclic_ladder")

# (mass, omega) pairs every workload draws from. make_refs.py checks at the
# commit that defined the benchmark that every verify check passes at
# the measured n_max for each pair, and records the unitarity-scan rows per pair.
PARAMS = (
    (1.0, 1.0),
    (2.0, 0.5),
    (0.5, 2.0),
    (1.5, 0.75),
    (0.75, 1.25),
    (1.25, 1.5),
)

# "full" is what the benchmark measures; "tiny" runs the same code paths in
# well under a second and serves the warm-up and the self-test.
SCALES = {
    "full": {
        "verify_n_max": 18,
        "trajectory_n_max": 12,
        "trajectory_t_max": 1000.0,
        "trajectory_dt": 0.01,
        "ladder": (2, 4, 6, 8, 10, 12, 14, 16, 18),
        "time_operator_n_max": 14,
    },
    "tiny": {
        "verify_n_max": 4,
        "trajectory_n_max": 6,
        "trajectory_t_max": 2.0,
        "trajectory_dt": 0.01,
        "ladder": (2, 4),
        "time_operator_n_max": 4,
    },
}

# A trajectory state is redrawn when |<E>(0)| is below MIN_EXP_PLUS, so the
# phase is always defined (the package refuses below 1e-8), or when arg<E>(0)
# is within BRANCH_MARGIN of the branch cut at pi, where roundoff could start
# the unwound phase on either side.
MIN_EXP_PLUS = 0.05
BRANCH_MARGIN = 1e-6


def trajectory_terms(rng: random.Random, n_max: int):
    """Random single-copy superposition inside the window 2n + l <= n_max - 2.

    Three (l, m) chains, each filled on every radial n the window allows,
    with complex amplitudes rounded to six decimals. Returns a list of
    (n, l, m, lam, re, im) with one lam for every term.
    """
    window = n_max - 2
    while True:
        lam = rng.choice((+1, -1))
        ls = rng.sample(range(window - 1), 3)  # l <= window - 2 gives n = 0 and 1
        terms = []
        for l in ls:
            m = rng.randint(-l, l)
            for n in range((window - l) // 2 + 1):
                re = round(rng.gauss(0.0, 1.0), 6)
                im = round(rng.gauss(0.0, 1.0), 6)
                terms.append((n, l, m, lam, re, im))
        e0 = expected_exp_plus0(terms)
        if abs(e0) >= MIN_EXP_PLUS and math.pi - abs(cmath.phase(e0)) > BRANCH_MARGIN:
            return terms


def expected_exp_plus0(terms) -> complex:
    """<E>(0) of a single-copy state, from the chain action of E.

    On H_+ the phase exponential steps |n,l,m,+> to |n-1,l,m,+>, and on H_-
    it steps |n,l,m,-> to |n+1,l,m,->, each with coefficient one inside the
    trajectory window, so <E> is a sum over neighbouring amplitudes.
    """
    amps = {(n, l, m): complex(re, im) for n, l, m, _lam, re, im in terms}
    lam = terms[0][3]
    norm2 = sum(abs(a) ** 2 for a in amps.values())
    total = 0j
    for (n, l, m), a in amps.items():
        target = (n - 1, l, m) if lam > 0 else (n + 1, l, m)
        if target in amps:
            total += amps[target].conjugate() * a
    return total / norm2


def state_text(terms) -> str:
    """The terms in the `--state` syntax of `oscphase trajectory`."""
    return " ; ".join(
        "%d,%d,%d,%s : %r" % (n, l, m, "+" if lam > 0 else "-", complex(re, im))
        for n, l, m, lam, re, im in terms
    )


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """Everything the workload process needs, drawn from the seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s/%d" % (workload, seed))
    size = SCALES[scale]
    mass, omega = rng.choice(PARAMS)
    inputs = {"workload": workload, "seed": seed, "scale": scale, "mass": mass, "omega": omega}
    if workload == "verify_large":
        inputs["n_max"] = size["verify_n_max"]
    elif workload == "trajectory_long":
        n_max = size["trajectory_n_max"]
        terms = trajectory_terms(rng, n_max)
        inputs.update(
            n_max=n_max,
            t_max=size["trajectory_t_max"],
            dt=size["trajectory_dt"],
            terms=terms,
            state=state_text(terms),
        )
    else:
        inputs.update(ladder=list(size["ladder"]), time_operator_n_max=size["time_operator_n_max"])
    return inputs
