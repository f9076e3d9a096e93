"""One verified degeneration step, from pencil construction to report.

Builds the flag inside the worked carrier M, marks a hyperplane, watches
one restricted slice degenerate as t -> 0, and then runs the full
single-step verifier for a = (7,4,1) at stage s=2, level r=1.
"""

from pierikit import (
    DecSeq,
    build_pencil,
    flag_within,
    limit_at_zero,
    span,
    standard_flag,
    step_verify,
    unit_vector,
    verdict_line,
)

n = 9
flag = standard_flag(n)
e = lambda i: unit_vector(n, i)

M = span(n, e(2), e(3), e(5), e(6), e(8), e(9))
mflag = flag_within(M, flag)
print("flag inside M, dims:", [s.dim for s in mflag])

L_inf = span(n, e(2), e(3), e(5), e(6), e(9))
pencil = build_pencil(mflag, 6, L_inf)
print(f"pencil marked at position l = {pencil.l}")
for t in (1, 2, 3):
    print(f"  dim L_{t} = {pencil.at(t).dim}")
print()

fam = pencil.restricted_family(3)
print("slice M_3 cap L_t:")
for t in (1, 2):
    print(f"  t={t}: dim {fam.at(t).dim}")
limit = limit_at_zero(fam)
print(f"  t->0: the limit is M_4  ({limit == pencil.space(4)})")
print()

report = step_verify(DecSeq(n, (7, 4, 1)), 2, 1, flag, M, L_inf)
print(verdict_line(f"step report, stage {report.stage}", report.checks))
for rec in report.records:
    kids = ", ".join(str(c) for c in rec.children)
    print(f"  {rec.index} (row {rec.j}, {rec.kind}) -> {kids}")
