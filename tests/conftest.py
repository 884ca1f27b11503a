import errno
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from quasitone import (
    CatState,
    FockState,
    MapConfig,
    build_regular,
    sample_field,
)


@pytest.fixture(scope="session")
def cfg():
    return MapConfig()


@pytest.fixture(scope="session")
def fock0_field():
    return sample_field(FockState(0), build_regular(-6, 6, -6, 6, 256, 256))


@pytest.fixture(scope="session")
def fock1_field():
    return sample_field(FockState(1), build_regular(-6, 6, -6, 6, 256, 256))


@pytest.fixture(scope="session")
def fock1_30_field():
    return sample_field(FockState(1), build_regular(-5, 5, -5, 5, 30, 30))


@pytest.fixture(scope="session")
def cat1_field():
    # grid centered on the lobe centroid at (-1, 0)
    return sample_field(CatState(-1.0), build_regular(-7, 5, -6, 6, 256, 256))


class _FillingFile:
    """A file opened for writing on a disk that fills at its first write
    call: half of that call's data is written, then OSError (EFBIG) is
    raised, as past `ulimit -f`."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.EFBIG, "File too large")


@pytest.fixture
def failed_write(monkeypatch, tmp_path):
    """check(module, call, fail_at=0) runs call() with the files that
    module opens for writing on a disk that fills: the first fail_at of
    them are written whole, the next one fails part-way. It expects the
    OSError, and that tmp_path holds the same files, with the same bytes,
    as before the call."""

    def check(module, call, fail_at=0):
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        opened = []

        def filling_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if "w" not in mode:
                return fh
            opened.append(file)
            return _FillingFile(fh) if len(opened) == fail_at + 1 else fh

        with monkeypatch.context() as m:
            m.setattr(module, "open", filling_open, raising=False)
            with pytest.raises(OSError, match="File too large"):
                call()
        assert len(opened) > fail_at
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    return check
