"""
Generating polynomials and their closed forms
==============================================

Summing a monomial over every forest (or every parking function) packs a
whole statistic's distribution into one polynomial.  The two sides of
the bijection must produce identical polynomials, and two of the
distributions collapse into closed products.
"""

from parkforest import (
    collapse_type_poly,
    critic_lucky_poly,
    critic_lucky_product_formula,
    inversion_type_poly,
    jump_type_poly,
    lead_tree_poly,
    lucky_poly,
    lucky_product_formula,
)

n = 4

# The inversion-type polynomial counts forests by their whole type
# vector (how many vertices have 0, 1, 2, ... inversions) and by the
# number of trees; the jump-type polynomial does the same over parking
# functions with jumps and critical cars.  They agree term by term.
forest_side = inversion_type_poly(n)
parking_side = jump_type_poly(n)
assert forest_side == parking_side
print(f"type polynomial at n={n} has {len(forest_side.terms)} terms; both sides equal")
for term in forest_side.as_terms()[:3]:
    print("  term:", term)

# Setting q0 -> u and qk -> q^k shrinks the type vector to two numbers:
# u counts inversion-free vertices, q^k weights each inversion k times.
print()
print("collapsed:", collapse_type_poly(forest_side).render())

# Lucky cars alone: the distribution counted over every parking function
# equals the product u * (1 + (n)u)(2 + (n-1)u)...  expanded with exact
# coefficients.
print()
for k in range(1, 6):
    counted = lucky_poly(k)
    closed = lucky_product_formula(k)
    assert counted == closed
    print(f"lucky distribution n={k}: {counted.render()}")

# The joint (critical, lucky) distribution also factors, and the forest
# side tells the same story with (trees, leaders).
print()
joint = critic_lucky_poly(n)
assert joint == critic_lucky_product_formula(n)
assert joint == lead_tree_poly(n)
print(f"joint (critic, lucky) distribution n={n}:")
print(" ", joint.render())

# Total mass sanity: substituting 1 for every variable counts objects.
assert joint.substitute({"c": 1, "u": 1}) == (n + 1) ** (n - 1)
print(f"coefficients sum to {(n + 1) ** (n - 1)} = (n+1)^(n-1)")
