"""Manufactured-solution convergence studies.

Three verifications of the discretization: the mixed Stokes solve against
a smooth solenoidal field with compatible do-nothing data, the mixed
Poisson heat solve, and a negative control with incompatible normal heat
flux whose observed order must collapse.  Quadratic/linear manufactured
fields are reproduced to machine precision and serve as the exactness
anchor.
"""

from thermoduct import verification as v

DIMS = (1.0, 1.0, 4.0)


def show(title, table):
    print(f"\n{title}")
    names = sorted(table.errors)
    print("  level  div          " + "".join(f"{n:>12}" for n in names))
    for i, divs in enumerate(table.levels):
        row = f"  {i}      {str(divs):<12} "
        row += "".join(f"{table.errors[n][i]:12.3e}" for n in names)
        print(row)
    print("  observed orders (finest pair): "
          + ", ".join(f"{n}={table.observed_order(n):.2f}" for n in names))


print("polynomial case: reproduced to machine precision")
t = v.mms_stokes_study(v.poly_case, (1, 1, 2), (2, 2, 4), n_levels=1)
print("  velocity L2 error:", t.errors["u_L2"][0])

show("mixed Stokes, smooth trigonometric case",
     v.mms_stokes_study(v.trig_case, DIMS, (2, 2, 8), n_levels=3))

show("mixed Poisson heat, smooth trigonometric case",
     v.mms_heat_study(v.trig_case, DIMS, (2, 2, 8), n_levels=3))

show("negative control: incompatible normal heat flux (order must collapse)",
     v.mms_heat_study(v.incompatible_heat_case, DIMS, (2, 2, 8), n_levels=3))

print("\ncoupled pipeline against a small-amplitude manufactured pair")
from thermoduct.material import clamped_boussinesq, make_material

model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                      law=clamped_boussinesq(1.0, alpha_v=0.1))
case = v.coupled_case(DIMS, nu=1.0)
rep = v.coupled_mms(case, DIMS, (4, 4, 16), model, (0.0, 0.0, -0.5))
print(f"  outer iterations: {len(rep['records'])}")
for k in ("u_L2", "u_H1", "theta_L2", "theta_H1"):
    print(f"  {k:>10}: {rep[k]:.3e}")
