import pytest

from twosquares import analysis


@pytest.fixture
def checkpoints_every(monkeypatch):
    """checkpoints_every(n) sets the scan's checkpoint cadence to n scanned
    integers and returns a list that collects every checkpoint it writes."""

    def setup(every: int) -> list:
        written = []
        write = analysis.write_checkpoint

        def collect(cp, path):
            write(cp, path)
            written.append(cp)

        monkeypatch.setattr(analysis, "DEFAULT_CHECKPOINT_EVERY", every)
        monkeypatch.setattr(analysis, "write_checkpoint", collect)
        return written

    return setup


@pytest.fixture
def windows(monkeypatch):
    """windows(n) sets the window size of every scan and check that runs in
    this process, through the library or the CLI, to n integers."""

    def setup(size: int) -> None:
        monkeypatch.setattr(analysis, "DEFAULT_SEGMENT_SIZE", size)

    return setup
