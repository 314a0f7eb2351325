import os
import subprocess

import pytest


def _stdouts_at_blas_threads(command, text=False):
    """Run ``command`` at OPENBLAS_NUM_THREADS=1 and then =2; return both stdouts."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(command, capture_output=True, text=text, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


@pytest.fixture
def blas_thread_stdouts():
    """The stdouts of a command at one and at two BLAS threads, for bit-identity checks."""
    return _stdouts_at_blas_threads
