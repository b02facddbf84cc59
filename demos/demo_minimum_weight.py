"""The minimum-weight classification, hands on.

A hyperplane of the Pluecker space cuts the Grassmannian in the largest
possible number of points exactly when its wedge element is decomposable,
so the codewords of minimum weight q^(ell(m-ell)) are precisely the
decomposable classes, and there are [m ell]_q of them (as many as there
are points of the Grassmannian itself).  The decomposable classes are
listed directly, as the points of the dual Grassmannian G(m-ell, m).
"""

import numpy as np

from grasscodes import Code, CodeSpec, GF, gaussian_binomial
from grasscodes.codes import min_distance
from grasscodes.exterior import (DualFunctional, check_functional,
                                 functional_to_wedge, parse_functional)


def main() -> None:
    field = GF(2)
    spec = CodeSpec(field, 2, 4)
    code = Code(spec)
    d = min_distance(spec)
    print(f"{spec.describe()}: minimum distance {d}")

    weights = code.weights
    decomposables = code.decomposables
    n_min = np.count_nonzero(weights == d) // (field.q - 1)
    print(f"minimum-weight classes: {n_min}")
    print(f"decomposable classes:   {len(decomposables)}")
    print(f"[4 2]_2:                {gaussian_binomial(4, 2, 2)}")
    print()

    print("the decomposable classes, from G(2, 4) by duality:")
    places = field.q ** np.arange(spec.k - 1, -1, -1)
    for row in decomposables:
        func = DualFunctional.from_vector(row.tolist(), 2, 4, field)
        assert weights[row @ places] == d
        print(f"  {func}")
    print()

    for text in ["X:3,4", "X:1,2 + X:3,4"]:
        func = parse_functional(text, 2, 4, field)
        z = functional_to_wedge(func)
        print(f"{func}  ->  wedge {z}  ->  "
              f"{'decomposable' if check_functional(func) else 'nondecomposable'}")


if __name__ == "__main__":
    main()
