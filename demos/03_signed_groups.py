"""Signed permutations: type-B and type-D excedance polynomials.

The signed group on [n] has 2^n n! elements; its excedance statistic counts
positions where the window value at |sigma_i| exceeds sigma_i, plus the
letters mapped to their own negative.  Summed with the sign (-1)^inv the
whole distribution collapses to a power of (s - t), which is what makes the
even/odd halves computable in closed form.
"""

from gammaexc import (
    FamilySpec,
    GroupSpec,
    Poly,
    SignedPerm,
    cardinality,
    family_poly,
    sgnb_des_u,
    sgnb_des_u_closed,
)
from gammaexc.groups import des_b, exc_b, exc_d, inv_b, inv_d

s, t = Poly.gens("s", "t")

print("== a single element ==")
sigma = SignedPerm.parse("-2,1")
print(f"sigma = {sigma}: exc_B={exc_b(sigma)} des_B={des_b(sigma)} "
      f"inv_B={inv_b(sigma)} sign={(-1) ** inv_b(sigma)}")

print()
print("== group sizes ==")
for spec, label in ((GroupSpec("B", 3), "B_3"),
                    (GroupSpec("D", 3), "D_3"),
                    (GroupSpec("B-D", 3), "B_3 - D_3"),
                    (GroupSpec("B", 3, parity="even"), "B_3 even half")):
    print(f"|{label}| = {cardinality(spec)}")

print()
print("== signed sums collapse ==")
for n in (2, 3, 4):
    print(f"SgnBExc_{n} =", family_poly(FamilySpec("sgn_bexc", n)),
          "  [= (s-t)^n]")
for n in (3, 4):
    print(f"SgnDExc_{n} =", family_poly(FamilySpec("sgn_dexc", n)))
print("trivariate, n=3:", sgnb_des_u(3) == sgnb_des_u_closed(3),
      "->", sgnb_des_u_closed(3))

print()
print("== descents and excedances agree on each sign class ==")
for n in (2, 3):
    for cls in ("plus", "minus"):
        des_side = family_poly(FamilySpec("b_des", n, cls))
        exc_side = family_poly(FamilySpec("bexc", n, cls))
        print(f"n={n} {cls:<5} {des_side}  equal: {des_side == exc_side}")

print()
print("== the type-D polynomial is a type-B half ==")
for n in (2, 3, 4):
    d_side = family_poly(FamilySpec("dexc", n))
    b_half = family_poly(FamilySpec("bexc", n, "plus"))
    print(f"n={n}: DExc = {d_side}  equals even B half: {d_side == b_half}")

print()
print("== stats are total on any signed window ==")
sigma = SignedPerm.parse("-2,-1")
print(f"sigma = -2,-1: exc_D={exc_d(sigma)} inv_D={inv_d(sigma)} "
      f"sign={(-1) ** inv_d(sigma)}")
