"""Pick the smallest filter cutoff that still emulates the ideal amplifier.

Small cutoffs accept plenty of data but distort the ensemble (kurtosis drops
below 3, steering drifts from the ideal value); large cutoffs are faithful
but starve the acceptance rate. The search scans upward and returns the
first grid point passing both published conditions.
"""

from steerdist import ChannelSpec, CutoffCriteria, select_cutoff, tmss_standard

state = tmss_standard(-4.2, 7.3)
beta_c, diag = select_cutoff(state, ChannelSpec(loss=0.4), g=1.10,
                             criteria=CutoffCriteria())

print("scan trace (loss 0.4, gain 1.10):")
print(f"{'beta_c':>7} {'accept':>10} {'kurt':>8} {'dG(A->B)':>10} {'dG(B->A)':>10}")
for row in diag.trace:
    print(f"{row['beta_c']:7.2f} {row['acceptance_rate']:10.3e} "
          f"{row['kurtosis']:8.4f} {row['steering_err_a_to_b']:10.2e} "
          f"{row['steering_err_b_to_a']:10.2e}  "
          f"{'<- selected' if row['passed'] else ''}")

print(f"\nselected cutoff: {beta_c}   (published table: 4.00)")
