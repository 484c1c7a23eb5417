"""The heap-only kernel fires in the order the timing wheel did.

The hierarchical timing wheel that once staged cancellable timers in
front of the dispatch heap was removed; its contract was that enabling it
changed nothing about what fires when.  The property below keeps that
contract pinned after the removal: a seed-determined interleaving of
timeouts, cancels, replacements, bare callbacks and clock advances is
replayed on the kernel, and its full firing history must hash to the
digest recorded from the wheel-enabled kernel (which matched the
wheel-disabled kernel for every seed) before the wheel was deleted.
"""

import hashlib
import random

import pytest

from repro.sim import Simulator

#: sha256 of ``repr(_random_history(seed))``, recorded with the timing
#: wheel enabled; the wheel-disabled history was identical for each seed.
WHEEL_HISTORY_DIGESTS = {
    0: "a806051aa8e96313dc69aa2a1f48e67f1aee360994e30a6785783e7031a26f8f",
    1: "55a1488f8831419f44e3baae29323e06d9dff48110b01a7c60b1b382736621f6",
    2: "dd27762ddb3fd2785c9c403433afac034ad8856461b2958edda7948757b9a09c",
    3: "f3295aa6a06d53159408293e27ca0947a918c71563b9c7f0917b9efe5f5e048e",
    17: "caa2810600720f960b06daf01afa0bde3589e38f0a8fadf2551946db5d4e7865",
}


def _random_history(seed: int, ops: int = 400):
    """Replay a seed-determined op sequence; return the firing history."""
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    live = []  # cancellable Timeout events that may still be pending

    for step in range(ops):
        roll = rng.random()
        if roll < 0.40:
            delay = rng.choice(
                [0.05, 0.3, 0.9, 2.7, 15.0, 40.0, 90.0, 3000.0, 200_000.0]
            )
            ev = sim.timeout(delay)
            ev.callbacks.append(lambda _e, i=step: fired.append(i))
            live.append(ev)
        elif roll < 0.55 and live:
            ok = live.pop(rng.randrange(len(live))).cancel()
            fired.append((step, "cancel", ok))
        elif roll < 0.70 and live:
            # Replace a timer: cancel it and schedule a fresh deadline.
            ok = live.pop(rng.randrange(len(live))).cancel()
            ev = sim.timeout(rng.choice([0.1, 1.5, 16.0, 64.0]))
            ev.callbacks.append(lambda _e, i=step: fired.append((i, "rearm")))
            live.append(ev)
            fired.append((step, "rearm", ok))
        elif roll < 0.85:
            sim.call_later(
                rng.choice([0.2, 5.0, 33.0]), fired.append, (step, "call_later")
            )
        else:
            sim.run(until=sim.now + rng.choice([0.1, 0.7, 3.0, 21.0]))
        fired.append(("now", round(sim.now, 9)))
    # Drain with an explicit bound covering every delay above, so the
    # final clock is the bound rather than the last entry popped.
    sim.run(until=2_000_000.0)
    fired.append(("end", round(sim.now, 9)))
    return fired


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_property_wheel_matches_heap_firing_order(seed):
    history = _random_history(seed)
    assert history == _random_history(seed)
    assert any(entry[2] is True for entry in history
               if isinstance(entry, tuple) and len(entry) == 3)
    digest = hashlib.sha256(repr(history).encode()).hexdigest()
    assert digest == WHEEL_HISTORY_DIGESTS[seed]
