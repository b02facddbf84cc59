"""The string decomposition of a Grassmannian, printed out.

Points whose echelon form has its last pivot in column m fall into q^(m-ell)
fibers labeled by the free entries of the last row; every fiber is a copy
of the smaller Grassmannian G(ell-1, V_{m-1}).  For a hyperplane supported
on coordinates ending at m, all fibers meet the hyperplane equally.
"""

from grasscodes import Code, CodeSpec, GF
from grasscodes.codes import verify_string_section
from grasscodes.exterior import parse_functional
from grasscodes.grassmann import (enumerate_grassmannian,
                                  in_last_column_locus, project_tau,
                                  string_fiber, string_label)


def main() -> None:
    field = GF(2)
    ell, m = 2, 4

    fibers: dict[tuple[int, ...], int] = {}
    outside = 0
    for mat in enumerate_grassmannian(ell, m, field):
        if in_last_column_locus(mat):
            nu = string_label(mat)
            fibers[nu] = fibers.get(nu, 0) + 1
        else:
            outside += 1
    print(f"G(2, V_4) over F_2: {outside} points in the sub-Grassmannian,")
    for nu, count in sorted(fibers.items()):
        print(f"  fiber {nu}: {count} points")
    print()

    # the section map reconstructs each fiber from G(1, V_3)
    for mat in string_fiber((1, 0), ell, m, field):
        print(f"  {mat}   projects to   {project_tau(mat)}")
    print()

    func = parse_functional("X:1,4 + X:3,4", ell, m, field)
    report = verify_string_section(Code(CodeSpec(field, ell, m)), func)
    print(f"functional {func}: fibers meet the hyperplane in "
          f"{report['fiber_counts']}")
    print(f"all equal and matching the truncated count: {report['pass']}")


if __name__ == "__main__":
    main()
