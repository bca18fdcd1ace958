import contextlib
import io
import re
from pathlib import Path

import numpy as np

from ddstab.operators import construct_certificate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    """The README's one Python block runs as written: its gain stabilizes
    the X+ loop below 0.9, and its certificate is that of the full
    truncated loop with the gain lifted by zeros onto the tail."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    sys_, result = namespace["sys_"], namespace["result"]
    assert result.achieved_radius < 0.9
    K = np.pad(result.K, ((0, 0), (0, sys_.n - result.K.shape[1])))
    assert namespace["cert"] == construct_certificate(sys_.A + sys_.B @ K, 0.9)
