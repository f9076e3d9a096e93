"""Schur polynomials, single-row products, and the insertion bijection.

Expands s_(2,1) in three variables, multiplies by h_2, and checks the
product against the strip-extension shapes.  Then runs one row insertion
step by step and the full bijection audit for shape (4,2) with two extra
boxes.
"""

from pierikit import (
    Tableau,
    complete_homogeneous,
    pieri_bijection_check,
    pieri_shapes,
    row_insert,
    schur_expand,
    verdict_line,
)

lam = (2, 1)
s = schur_expand(lam, 3)
print(f"s_{lam} in 3 variables: {s}")
print()

b = 2
lhs = s * complete_homogeneous(b, 3)
shapes = pieri_shapes(lam, b, 3)
print(f"shapes mu from {lam} by a horizontal {b}-strip: {list(shapes)}")
rhs = None
for mu in shapes:
    term = schur_expand(mu, 3)
    rhs = term if rhs is None else rhs + term
print("product equals the shape sum:", lhs == rhs)
print()

t = Tableau(((1, 2, 2), (2, 3)), 3)
print(f"inserting the word (1, 3) into {t.rows}:")
out, chain = row_insert(t, (1, 3))
print(f"  result {out.rows}")
print(f"  shape chain {chain}")
print()

report = pieri_bijection_check((4, 2), 2, 3)
print("bijection audit for shape (4,2), b=2, 3 letters:")
print(f"  pairs considered : {report.pairs_total}")
print(f"  injective        : {report.injective}")
print(f"  contents match   : {report.content_ok}")
print(f"  shapes are strips: {report.shapes_ok}")
print("  image counts:")
for mu, count in report.image_counts:
    print(f"    {mu}: {count}")
print(verdict_line("  overall", report.checks))
