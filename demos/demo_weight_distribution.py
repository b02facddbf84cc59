"""Complete weight distributions, checksummed with MacWilliams.

C(2,4) codes are small enough to print in full.  A Grassmann code's
distribution comes from the paper's split of G(ell, m), one small
transform per rank class; the Schubert code goes through the sweep.
C(3,7) over F_2, 2^35 codewords, is past the sweep; ``weight_distribution``
prices the split it takes, and that fits the default budget.
"""

import time

from grasscodes import Code, CodeSpec, GF
from grasscodes.codes import weight_distribution
from grasscodes.macwilliams import check_macwilliams, dual_distribution


def show(spec: CodeSpec) -> None:
    t0 = time.monotonic()
    dist = weight_distribution(Code(spec))
    elapsed = time.monotonic() - t0
    print(f"{spec.describe()}  ({elapsed:.2f}s)")
    for w, c in sorted(dist.counts.items()):
        print(f"  weight {w:>5}: {c} codewords")
    ok = check_macwilliams(dist.counts, spec.n, spec.field.q, spec.k)
    print(f"  MacWilliams transform integral and nonnegative: {ok}")
    print()


def main() -> None:
    show(CodeSpec(GF(2), 2, 4))
    show(CodeSpec(GF(3), 2, 4))
    show(CodeSpec(GF(2), 2, 4, alpha=(1, 4)))
    show(CodeSpec(GF(2), 3, 6))
    show(CodeSpec(GF(2), 3, 7))

    # the [7, 3] code at alpha = (1,4) dualizes to the [7, 4] Hamming code
    dual = dual_distribution({0: 1, 4: 7}, 7, 2, 3)
    print(f"dual of the [7,3,4] Schubert code: {dual}")


if __name__ == "__main__":
    main()
