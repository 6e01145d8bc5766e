"""The numpy random streams that every seeded output rests on.

Every annotated MIDI, plan sidecar, manifest, WAV and split.json depends on
``numpy.random.Generator`` draws, and numpy gives ``Generator`` no version
compatibility guarantee: a release may change a stream. The first draws of
each call the package makes (``expressive``'s plans, ``ArticulationTable``'s
samples, ``stratified_split``) are pinned here, in the form the package
makes them, for two seeds. A numpy release that moves a stream fails this
one test, which names the call, before the digest pins fail with it.
"""

import numpy as np
import pytest

# call -> the draws it makes from a fresh generator
DRAWS = {
    "integers": lambda rng: [int(rng.integers(lo, hi)) for lo, hi
                             in ((0, 6), (40, 128), (2, 1_000_000))],
    "choice_p": lambda rng: rng.choice(
        4, size=6, p=np.array([0.5, 0.25, 0.125, 0.125])).tolist(),
    "choice": lambda rng: rng.choice(1000, size=4).tolist(),
    # numpy samples without replacement by one of two methods, chosen by
    # the population and sample sizes
    "choice_no_replace": lambda rng: rng.choice(
        40, size=5, replace=False).tolist(),
    "choice_no_replace_large": lambda rng: rng.choice(
        20_000, size=5, replace=False).tolist(),
    "normal": lambda rng: rng.normal(100.0, 15.0, 3).tolist(),
    "uniform": lambda rng: [float(rng.uniform(0.1, 0.5)) for _ in range(2)],
    "random": lambda rng: [rng.random() for _ in range(2)],
    "permutation": lambda rng: rng.permutation(8).tolist(),
}

# seed -> call -> its first draws; 0 is the default master seed, and the
# other is as large as a piece seed
STREAMS = {
    0: {
        "integers": [5, 96, 511137],
        "choice_p": [1, 0, 0, 0, 2, 3],
        "choice": [850, 636, 511, 269],
        "choice_no_replace": [23, 19, 10, 12, 30],
        "choice_no_replace_large": [12737, 10221, 5395, 6156, 17009],
        "normal": [101.8859533164009, 98.01842705063048, 109.60633975664923],
        "uniform": [0.3547846749285818, 0.20791468550554815],
        "random": [0.6369616873214543, 0.2697867137638703],
        "permutation": [2, 4, 3, 6, 5, 0, 1, 7],
    },
    0x9E3779B97F4A7C15: {
        "integers": [3, 42, 385977],
        "choice_p": [0, 0, 0, 1, 2, 0],
        "choice": [513, 22, 385, 354],
        "choice_no_replace": [17, 14, 0, 13, 18],
        "choice_no_replace_large": [8912, 7718, 459, 7099, 10262],
        "normal": [103.29918199471787, 115.60780711518491, 123.56757953553674],
        "uniform": [0.10918615223031886, 0.24199379471931382],
        "random": [0.022965380575797112, 0.35498448679828454],
        "permutation": [0, 3, 5, 2, 1, 4, 7, 6],
    },
}


@pytest.mark.parametrize("seed", sorted(STREAMS))
def test_generator_streams_are_pinned(seed):
    got = {name: draw(np.random.default_rng(seed))
           for name, draw in DRAWS.items()}
    assert got == STREAMS[seed], f"numpy {np.__version__}"
