"""Classify seeded instances and check the certified rates against orbits.

Ring instances carry an exact uniform contraction, so the constants search
finds a certificate and the a-priori iteration bound dominates the observed
stopping time.  Reflection instances are isometric: nonexpansive, never
contractive, and their minimizer pins down the tightest nonempty epsilon.
"""
import dataclasses

import gproximity as gp


def main():
    inst = gp.contraction_instance(seed=1)
    print(f"instance: {inst.name}, {len(inst.points)} points, d(A,B) = {inst.d_ab}")

    est = gp.min_contraction_factor(inst)
    print(f"uniform contraction factor: {est.alpha_min:.6f}")

    exact = dataclasses.replace(inst, tol=0.0)  # no slack on the certified inequality
    params = gp.crr_params_feasible(exact, grid_step=0.05)
    print(f"certified constants: alpha={params.alpha} beta={params.beta} "
          f"gamma={params.gamma}, rate k = {params.k:.4f}")

    x0 = inst.points[1]
    d0 = inst.space.distance(x0, inst.cyclic_map(x0))
    eps = 0.01
    res = gp.find_proximity_point(inst, x0, gp.SolveConfig(epsilon=eps))
    bound = gp.crr_iteration_bound(d0, params.k, inst.d_ab, eps)
    print(f"observed stop after {res.iterations} iterations, "
          f"a-priori bound {bound}")
    trace = gp.picard_orbit(inst, x0, 8)
    print("residual decay vs. k^n r0:")
    r0 = trace.residuals[0]
    for n, r in enumerate(trace.residuals):
        print(f"  step {n}: {r:.6f} <= {params.k ** n * r0:.6f}")

    refl = gp.reflection_instance(seed=1)
    print(f"\ninstance: {refl.name}, d(A,B) = {refl.d_ab:.6f}")
    print(f"nonexpansive: {bool(gp.is_edge_nonexpansive(refl))}, "
          f"contractive: {gp.min_contraction_factor(refl).contractive}")
    rep = gp.minimizer_report(refl)
    print(f"minimizer {rep.minimizer} with residual {rep.residual:.6f}; "
          f"set at that level nonempty: {rep.minimizer_in_set}")


if __name__ == "__main__":
    main()
