import os
import subprocess
import sys
from pathlib import Path

import pytest

import zfhp
from zfhp import build_mobius


@pytest.fixture(scope="session")
def mobius_1k():
    return build_mobius(1000)


@pytest.fixture(scope="session")
def mobius_100k():
    return build_mobius(10**5)


@pytest.fixture(scope="session")
def mobius_1m():
    return build_mobius(10**6)


def _vmhwm_growth(setup: str, call: str) -> int:
    """VmHWM growth of a fresh interpreter over the statement ``call``, run after ``setup``.

    The peak resident set sees pocketfft's C++ scratch, which
    tracemalloc cannot.  The child reads VmHWM, the high-water mark of
    its own image: its ru_maxrss would start at the resident set of
    the test process that forked it.
    """
    src = str(Path(zfhp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import re\n"
        "def peak():\n"
        "    status = open('/proc/self/status').read()\n"
        "    return 1024 * int(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
        f"{setup}\n"
        "before = peak()\n"
        f"{call}\n"
        "print(peak() - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    return int(out.stdout)


@pytest.fixture(scope="session")
def vmhwm_growth():
    if not Path("/proc/self/status").exists():
        pytest.skip("reads VmHWM from /proc")
    return _vmhwm_growth
