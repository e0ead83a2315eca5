"""Synthesis of closed embedded horizontal loops with prescribed rot.

The construction works in velocity space: pick an angle function theta(s)
that winds n_rot times, take the unit velocity e^{i theta}, subtract its
mean so both coordinates integrate to periodic functions, and integrate.
Seeded low-order wiggles break accidental symmetries.  The result is then
area-balanced, lifted, and certified (closure, embedding, both rotation
computations); any failed certificate triggers a reseeded retry.
"""

import numpy as np

from . import fourier, invariants, lifting
from .curves import HorizontalLoop, LegendrianGenerator
from .errors import EngelError, SynthesisFailed

MAX_ROT = 64
RETRY_CAP = 16
DEFAULT_SAMPLES = 4096
# Accept only margins comfortably above the embedding tolerance, so the
# shipped loops do not sit on the certification boundary.
MARGIN_HEADROOM = 10.0


def _candidate_generator(n_rot: int, rng, n: int) -> LegendrianGenerator:
    s = fourier.grid(n)
    m = abs(n_rot) + 1
    # n_rot = 0 needs a wide swing so the velocity angle crosses +-pi/2
    # and back, producing the two-up-two-down zigzag cusp pattern.
    swing = 2.3 if n_rot == 0 else 1.2
    theta = fourier.TAU * n_rot * s
    theta += swing * np.sin(fourier.TAU * m * s + rng.uniform(0.0, fourier.TAU))
    for j in range(1, 5):
        amp = rng.uniform(0.05, 0.2) / j
        theta += amp * np.sin(fourier.TAU * j * s + rng.uniform(0.0, fourier.TAU))
    v = np.exp(1j * theta)
    v = v - np.mean(v)
    x, _ = fourier.antiderivative(v.real)
    y, _ = fourier.antiderivative(v.imag)
    return LegendrianGenerator(x, y)


def model_front(n_rot: int, seed: int = 0, samples: int = DEFAULT_SAMPLES) -> HorizontalLoop:
    """A closed embedded horizontal loop with rot_winding = rot_cusp = n_rot.

    Deterministic in (n_rot, seed, samples).  Raises SynthesisFailed with
    the last diagnostic if no certified loop is found within the retry cap.
    """
    if abs(n_rot) > MAX_ROT:
        raise ValueError("|rot| must be <= %d, got %d" % (MAX_ROT, n_rot))
    if samples < 16 or (samples & (samples - 1)) != 0:
        raise ValueError("samples must be a power of two >= 16")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)
    rng = np.random.default_rng([seed, n_rot + 2 * MAX_ROT])
    last = "no attempt made"
    for _ in range(RETRY_CAP):
        try:
            g = _candidate_generator(n_rot, rng, samples)
            g.require_immersed()
            balanced = lifting.balance_closure(g)
            loop = lifting.lift(balanced)
            winding = invariants.rot_winding(balanced)
            if winding != n_rot:
                last = "winding %d instead of %d" % (winding, n_rot)
                continue
            cusp_rot = invariants.rot_cusp(loop)
            if cusp_rot != n_rot:
                last = "cusp count gives rot %d instead of %d" % (cusp_rot, n_rot)
                continue
            report = lifting.embedding_check(loop)
            if report.margin <= MARGIN_HEADROOM * lifting.TOL_EMBED:
                last = "embedding margin %.3e too small" % report.margin
                continue
            return loop
        except EngelError as err:
            last = "%s: %s" % (type(err).__name__, err)
    raise SynthesisFailed(
        "no certified rot=%d loop in %d attempts; last failure: %s"
        % (n_rot, RETRY_CAP, last)
    )

