"""Information geometry of an ideal Fermi gas, step by step.

A spin-1/2 gas in a three-dimensional box has density of states
G(eps) = kappa sqrt(eps).  On the manifold of grand canonical states,
coordinates (beta, xi), the Fisher-Rao metric and its scalar curvature
have closed forms in polylogarithms; this script walks through them and
checks the headline claim: the curvature of a Fermi gas is negative
everywhere.
"""
import numpy as np

from gasgeometry import (GasModel, ThermoPoint, dos_catalog, geometry_sample,
                         limit_curvature, metric)

# density-of-states parameters straight from the catalog (natural units)
entry = dos_catalog("box", 3)
print(f"3-d box: eta = {entry.eta}, kappa = {entry.kappa_formula(g_s=2.0):.6f} "
      "(g_s = 2, V = m = hbar = 1)")

model = GasModel("fd", eta=entry.eta, kappa=1.0)  # kappa = 1: emergent units

# --- the metric at one point -------------------------------------------------
p = ThermoPoint(beta=1.0, xi=0.5)
g = metric(model, p)
print(f"\nmetric at (beta, xi) = (1, 0.5):")
print(f"  g11 = {g.g11:.9f}   (energy fluctuations)")
print(f"  g12 = {g.g12:.9f}   (energy-number covariance)")
print(f"  g22 = {g.g22:.9f}   (number fluctuations)")
print(f"  det = {g.det:.9f}   (> 0: a genuine Riemannian metric)")

# --- curvature across the manifold -------------------------------------------
print("\nscalar curvature R(beta, xi), kappa = 1:")
print(f"{'beta':>6} {'xi':>6} {'R':>14} {'R_bar':>14}")
for beta in (0.2, 1.0, 5.0):
    for xi in (0.1, 1.0, 4.0):
        s = geometry_sample(model, ThermoPoint(beta, xi))
        print(f"{beta:>6.2f} {xi:>6.2f} {s.R:>14.6e} {s.R_bar:>14.6e}")

grid = [geometry_sample(model, ThermoPoint(b, x)).R
        for b in np.geomspace(0.1, 10, 25) for x in np.linspace(0.1, 5, 25)]
print(f"\nmax R over a 25 x 25 grid: {max(grid):.3e}  (negative everywhere:"
      f" {all(r < 0 for r in grid)})")

# --- the sparse-gas limit -----------------------------------------------------
# R does not vanish as xi -> 0: a sparse quantum gas is still quantum.
print("\nlow-fugacity limit versus a sample at xi = 1e-5 (beta = 1):")
lim = limit_curvature(model, 1.0)
samp = geometry_sample(model, ThermoPoint(1.0, 1e-5)).R
print(f"  limit formula : {lim:.9f}")
print(f"  sampled value : {samp:.9f}")
print("  the curvature survives xi -> 0; only beta -> 0 recovers the flat"
      " classical gas (see demo 04)")
