import pytest

from twosquares import analysis


@pytest.fixture
def checkpoints_written(monkeypatch):
    """The list of every checkpoint written in this test, in the order of
    the writes: a checkpointing verify writes one at each window edge from
    its first record on."""
    written = []
    write = analysis.write_checkpoint

    def collect(cp, path):
        write(cp, path)
        written.append(cp)

    monkeypatch.setattr(analysis, "write_checkpoint", collect)
    return written


@pytest.fixture
def windows(monkeypatch):
    """windows(n) sets the window size of every scan and check that runs in
    this process, through the library or the CLI, to n integers."""

    def setup(size: int) -> None:
        monkeypatch.setattr(analysis, "DEFAULT_SEGMENT_SIZE", size)

    return setup
