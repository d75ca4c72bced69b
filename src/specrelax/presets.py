"""Named inputs for the CLI: the canonical chain zoo and the synthetic profile.

`synthetic-s8` is the 50-mode benchmark profile: a slow mode at 0.95 holding
a tenth of the energy, a dominant fast mode at 0.70, and 47 seeded uniform
draws from [-0.3, 0.5] sharing a tenth of the fast energy.  It lives at the
profile level on purpose: that spectrum is not realizable as a nonnegative
kernel by random orthogonal conjugation, so experiments run on the modal
weights directly.  The name `paper-s8` is kept as an alias.
"""

from __future__ import annotations

import re

import numpy as np

from .chains import ReversibleChain, barbell_chain, complete_graph, cycle_graph
from .errors import ConfigError
from .trajectory import SpectralProfile, profile_from_weights

S8_SLOW = (0.95, 0.1)
S8_FAST = (0.70, 0.81)
S8_TAIL_WEIGHT = 0.09
S8_TAIL_COUNT = 47


def synthetic_s8_profile(seed: int = 0) -> SpectralProfile:
    rng = np.random.default_rng(seed)
    tail = rng.uniform(-0.3, 0.5, S8_TAIL_COUNT)
    lambdas = np.concatenate([[S8_SLOW[0], S8_FAST[0]], tail])
    weights = np.concatenate([
        [S8_SLOW[1], S8_FAST[1]],
        np.full(S8_TAIL_COUNT, S8_TAIL_WEIGHT / S8_TAIL_COUNT),
    ])
    return profile_from_weights(lambdas, weights)


def s8_two_mode_profile() -> SpectralProfile:
    """Two-mode reduction of the benchmark: all fast energy at 0.70."""
    return profile_from_weights([S8_SLOW[0], S8_FAST[0]], [0.1, 0.9])


def resolve_preset(name: str, seed: int = 0) -> ReversibleChain | SpectralProfile:
    """Map a preset name to a chain or profile; raises ConfigError if unknown."""
    if name in ("paper-s8", "synthetic-s8"):
        return synthetic_s8_profile(seed)
    if name == "s8-two-mode":
        return s8_two_mode_profile()
    if name == "barbell-metastable":
        return barbell_chain(clique_size=3, bridge_weight=0.1)
    m = re.fullmatch(r"k(\d+)", name)
    if m:
        return complete_graph(int(m.group(1)))
    m = re.fullmatch(r"cycle-(\d+)", name)
    if m:
        return cycle_graph(int(m.group(1)))
    raise ConfigError(f"unknown preset: {name!r}")


PRESET_HELP = "paper-s8 | s8-two-mode | k<N> | cycle-<N> | barbell-metastable"
