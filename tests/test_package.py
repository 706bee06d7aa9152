"""The package's lazy exports, and the BLAS thread pin and frozen start-up heap
at the CLI entry point."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twosquares


def run_python(code, **env):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_does_not_load_numpy():
    assert run_python(
        "import sys, twosquares; print('numpy' in sys.modules, twosquares.__version__)"
    ) == ["False", "0.1.0"]


def test_submodules_are_attributes_in_a_fresh_interpreter():
    assert run_python(
        "import twosquares; print(twosquares.sieve.__name__, twosquares.analysis.__name__)"
    ) == ["twosquares.sieve", "twosquares.analysis"]


@pytest.mark.parametrize("name", twosquares.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"twosquares.{twosquares._EXPORTS[name]}")
    assert getattr(twosquares, name) is getattr(module, name)


def test_unknown_attribute_and_submodule_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        twosquares.no_such_name
    from twosquares import analysis

    assert analysis.verify is twosquares.verify


ENTRY = (
    "import os, sys, twosquares.__main__ as entry, twosquares.cli\n"
    "assert 'numpy' in sys.modules and entry.main is twosquares.cli.main\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
)


def test_entry_point_pins_blas_to_one_thread():
    assert run_python(ENTRY, OPENBLAS_NUM_THREADS="4") == ["1"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_entry_point_process_has_one_thread():
    code = ENTRY + (
        "status = open('/proc/self/status').read()\n"
        "print(status.split('Threads:')[1].split()[0])\n"
    )
    assert run_python(code, OPENBLAS_NUM_THREADS="4") == ["1", "1"]


def test_entry_point_freezes_the_import_heap():
    code = (
        "import gc, twosquares.__main__\n"
        "print(gc.isenabled(), gc.get_freeze_count() > len(gc.get_objects()))\n"
    )
    assert run_python(code) == ["True", "True"]


def test_library_import_freezes_nothing():
    code = (
        "import gc, twosquares, twosquares.cli, twosquares.analysis\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
    )
    assert run_python(code) == ["True", "0"]


def test_collector_still_frees_cycles_after_the_entry_import():
    code = (
        "import gc, weakref, twosquares.__main__\n"
        "class Node:\n"
        "    pass\n"
        "node = Node()\n"
        "node.self = node\n"
        "ref = weakref.ref(node)\n"
        "del node\n"
        "gc.collect()\n"
        "print(ref() is None)\n"
    )
    assert run_python(code) == ["True"]


def test_entry_point_report_with_forked_workers_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "twosquares", "verify", "--threshold", "2413/1000",
         "--limit", "1000000", "--workers", "2", "--segment-size", "65536", "--format", "json"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    golden = Path(__file__).parent / "golden" / "verify_2413.json"
    assert proc.stdout == golden.read_bytes()
