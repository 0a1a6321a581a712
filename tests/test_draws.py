"""Property draws do not depend on which test files a run collects.

Hypothesis draws, besides its own constants, the literals of every loaded
local module that is not a test file, such as ``perfbench/reference.py``
once ``test_batch.py`` imports it; ``conftest.py`` empties that pool.  A
probe property logs its examples in a fresh pytest process, once alone and
once beside a test file that imports a module of new literals; with
``conftest`` loaded both runs draw the same.
"""

import os
import pathlib
import subprocess
import sys

import yieldcrit
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers

import conftest

PROBE = '''
import os
from hypothesis import given, settings, strategies as st

@given(st.floats(0.0, 1.0), st.integers(0, 10**6))
@settings(max_examples=200, database=None)
def test_probe(x, k):
    with open(os.environ["PROBE_LOG"], "a", encoding="utf-8") as log:
        log.write(f"{x!r} {k}\\n")
'''

# literals inside the probe's ranges that no other module holds, in a module
# that a second test file imports
LITERALS = '''
FLOATS = [0.1234567891, 0.2345678912, 0.3456789123, 0.4567891234, 0.5678912345]
INTS = [123457, 234568, 345679, 456781, 567892]
'''
IMPORTER = '''
import literals


def test_literals():
    assert len(literals.FLOATS) == len(literals.INTS)
'''


def _draws(tmp_path, name, files, *plugin):
    log = tmp_path / f"{name}.log"
    env = dict(os.environ, PROBE_LOG=str(log))
    here = pathlib.Path(__file__).parent
    paths = [str(here), os.path.dirname(os.path.dirname(yieldcrit.__file__))]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *plugin, *files],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return log.read_text(encoding="utf-8").splitlines()


def test_a_property_draws_the_same_whatever_is_collected(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    (tmp_path / "literals.py").write_text(LITERALS, encoding="utf-8")
    (tmp_path / "test_literals.py").write_text(IMPORTER, encoding="utf-8")
    both = ["test_probe.py", "test_literals.py"]
    alone = _draws(tmp_path, "alone", ["test_probe.py"], "-p", "conftest")
    beside = _draws(tmp_path, "beside", both, "-p", "conftest")
    assert len(alone) == 200
    assert alone == beside
    # the control: without conftest's patch, on a fixed seed, the literals move the draws
    raw_alone = _draws(tmp_path, "raw-alone", ["test_probe.py"], "--hypothesis-seed=0")
    assert raw_alone != _draws(tmp_path, "raw-beside", both, "--hypothesis-seed=0")


@given(st.floats(0.0, 1.0))
def test_the_local_pool_is_empty_during_a_draw(x):
    pool = providers._get_local_constants()
    assert pool is conftest.NO_LOCAL_CONSTANTS
    assert len(pool) == 0
