"""Self-test of the benchmark's output checks: corrupted outputs must count as failed.

    python3 perfbench/selftest.py

Builds U and its SIC deviation through naimark for a Haar fiducial at d = 8
and feeds the checker seven outputs: three correct copies, one with a single
entry of U perturbed by 1e-6, one with a single entry of U set to NaN, one
with the SIC deviation off by 1e-6 and one with it NaN.  It prints the
fail_ratio of the three correct outputs alone and of all seven, and exits 0
only when the first is 0 and exactly the four corrupted outputs failed.
"""

import json
import sys

import numpy as np

from checks import Tally, check_sic, haar_ket, unitary_failures
from run import import_naimark


def main() -> int:
    nm = import_naimark()
    rng = np.random.default_rng(0)
    phi = haar_ket(rng, 8)
    m = nm.block.complete_unitary(phi)
    u = nm.block.build_block_naimark(m).U
    sic = nm.fiducials.sic_report(phi)
    perturbed = u.copy()
    perturbed[3, 5] += 1e-6
    poisoned = u.copy()
    poisoned[0, 0] = np.nan

    def failures(u_out: np.ndarray, sic_out: float) -> list[str]:
        found = unitary_failures(phi, m, u_out)
        check_sic(found, "sic_deviation", sic_out, phi)
        return found

    clean, mixed = Tally(), Tally()
    for _ in range(3):
        clean.record(failures(u, sic))
        mixed.record(failures(u, sic))
    for bad in ((perturbed, sic), (poisoned, sic), (u, sic + 1e-6), (u, np.nan)):
        mixed.record(failures(*bad))

    ok = clean.fail_ratio == 0 and mixed.failed == 4
    print(json.dumps({
        "clean_fail_ratio": clean.fail_ratio,
        "corrupted_fail_ratio": mixed.fail_ratio,
        "attempted": mixed.attempted,
        "failed": mixed.failed,
        "messages": mixed.messages,
        "pass": ok,
    }, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
