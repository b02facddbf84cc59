"""The second-smallest weight and a family of codewords attaining it.

No codeword weight falls strictly between q^(ell(m-ell)) and
q^(ell(m-ell)) + q^(ell(m-ell)-2), and functionals of the shape

    c * X_theta + (terms outside the down-set of theta) + X_gamma

with c != 0, theta = (m-ell-1, m-ell+2, ..., m), gamma = (m-ell, ..., m-1)
attain the upper end exactly.
"""

from grasscodes import Code, CodeSpec, GF
from grasscodes.codes import (min_distance, second_min_weight, special_theta,
                              verify_attained_family, weight_distribution)


def main() -> None:
    for q, ell, m in [(2, 2, 4), (3, 2, 4), (2, 2, 5)]:
        field = GF(q)
        spec = CodeSpec(field, ell, m)
        code = Code(spec)
        dist = weight_distribution(code)
        d, d2 = min_distance(spec), second_min_weight(spec)
        gap = [w for w in dist.counts if d < w < d2]
        print(f"{spec.describe()}: d = {d}, d2 = {d2}")
        print(f"  weights present: {sorted(w for w in dist.counts if w)}")
        print(f"  weights inside the gap: {gap or 'none'}")

        report = verify_attained_family(code, max_samples=100)
        theta = special_theta(ell, m)
        print(f"  theta = {theta}: sampled {report['checks'][0]['sampled']} "
              f"family members, all of weight {report['expected_weight']}: "
              f"{report['pass']}")
        print()


if __name__ == "__main__":
    main()
