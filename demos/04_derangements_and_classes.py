"""Excedances over conjugacy classes, derangements, and the q-refinement.

A conjugacy class of the symmetric group is a cycle type; its excedance
polynomial is a counting factor times a product of long-cycle factors
t * A_{j-1}(t), one per non-fixed cycle.  Summing over the classes with no
fixed point (optionally by sign, or with a prescribed number of fixed
points) gives the derangement polynomials, all gamma positive with center
(n - fixed)/2; the library computes them by a recurrence in the number of
cycles instead.  Refining by q^inv or q^cyc keeps gamma positivity with
polynomial coordinates.
"""

from gammaexc import (
    FamilySpec,
    Q_COEFFICIENTS,
    UNIVARIATE,
    conj_exc_closed,
    derangement_closed,
    family_poly,
    gamma_decompose,
    partitions,
    q_refined,
    set_partition_count,
)

print("== one class at a time ==")
for lam in ((4,), (2, 2), (3, 2), (2, 1, 1)):
    closed = conj_exc_closed(lam)
    brute = family_poly(FamilySpec("conjexc", sum(lam), lam=lam))
    print(f"type {lam}: count {set_partition_count(lam):>3}, "
          f"polynomial {closed}, matches oracle: {closed == brute}")

print()
print("== derangements by sign class ==")
for n in (4, 5, 6):
    for cls in ("all", "plus", "minus"):
        f = derangement_closed(n, cls)
        expansion = gamma_decompose(f, UNIVARIATE)
        print(f"n={n} {cls:<5} {str(f):<42} gamma {expansion.gammas} "
              f"center {expansion.center_of_symmetry}")

print()
print("== fixed-point refinement ==")
n = 6
for i in range(0, 4):
    f = derangement_closed(n, "all", fixed=i)
    expansion = gamma_decompose(f, UNIVARIATE)
    print(f"exactly {i} fixed points: center {expansion.center_of_symmetry}")

print()
print("== sign comes from the partition ==")
for lam in partitions(5):
    if lam.fixed_points == 0:
        print(f"lambda = {lam}: sign {lam.sign:+d}, "
              f"class size {lam.class_size()}")

print()
print("== q-refined gamma positivity ==")
for stat in ("inv", "cyc"):
    for cls in ("plus", "minus"):
        f = q_refined(5, stat, cls)
        expansion = gamma_decompose(f, Q_COEFFICIENTS)
        gammas = ["+".join(f"{c}q^{e}" if e else str(c)
                           for e, c in enumerate(g) if c) or "0"
                  for g in expansion.gammas]
        print(f"stat={stat} {cls:<5} gamma coordinates: {gammas}, "
              f"all non-negative: {expansion.all_gammas_nonnegative()}")
    collapsed = q_refined(5, stat, "all").substitute_one("q")
    print(f"stat={stat} at q=1:", collapsed,
          "== closed:", collapsed == derangement_closed(5))
