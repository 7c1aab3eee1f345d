import pytest

import wavesweep.driver as driver


@pytest.fixture
def poison_step(monkeypatch):
    """poison_step(index, cell): make driver.step set a negative density in
    interior `cell` just before its step `index` (0-based) of each run."""

    def arm(index, cell=(3, 2)):
        calls = []
        real_step = driver.step

        def poisoned(state, *args, **kwargs):
            if len(calls) == index:
                g = state.spec.num_ghost
                state.data[0, g + cell[0], g + cell[1]] = -1.0
            calls.append(None)
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(driver, "step", poisoned)

    return arm
