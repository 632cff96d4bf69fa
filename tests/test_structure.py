"""Source-structure guards.

Every sparse container sums its terms through ``ospq.scalars._accumulate``.
A hand-written copy of that loop elsewhere is what the kernel replaced, and
its tell-tale line is the conditional ``cur + c if cur is not None else c``.
Scalar's own loops over (Fraction, Fraction) pairs stay in ``scalars.py``.
"""

from pathlib import Path

import ospq

LOOP_IDIOM = "if cur is not None else"


def test_sum_loop_lives_only_in_the_scalar_kernel():
    package = Path(ospq.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    copies = [f"{path.name}:{n}"
              for path in modules if path.name != "scalars.py"
              for n, line in enumerate(path.read_text().splitlines(), 1)
              if LOOP_IDIOM in line]
    assert not copies, f"sum loop copied outside the kernel: {copies}"
