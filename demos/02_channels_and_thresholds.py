"""Send Bob's mode through lossy/noisy channels and find where steering dies.

Two-way steering turns one-way and then vanishes as loss grows; with excess
noise both directions vanish at finite loss.
"""

from steerdist import (
    ChannelSpec,
    apply_lossy,
    apply_noisy,
    classify,
    steering_loss_threshold,
    tmss_standard,
)

state = tmss_standard(-4.2, 7.3)

print("region vs loss (pure lossy channel):")
for loss in (0.0, 0.2, 0.31, 0.5, 0.9):
    result = classify(apply_lossy(state, loss))
    print(f"  loss {loss:4.2f}:  A->B {result.g_a_to_b:.4f}  "
          f"B->A {result.g_b_to_a:.4f}  {result.region}")

thr = steering_loss_threshold(state, ChannelSpec(0.0), "b_to_a")
print(f"\nB->A vanishing loss (quadratic root): {thr:.5f}   (1 - (n-1)/(c^2-(n-1)^2) = 0.30771)")

noisy = ChannelSpec(0.0, excess_noise=0.12, noise_model="loss_scaled")
print("\nwith excess noise 0.12 (loss-scaled):")
for d in ("b_to_a", "a_to_b"):
    print(f"  {d} vanishes at loss {steering_loss_threshold(state, noisy, d):.4f}")

print("\nnoise-model comparison at loss 0.5:")
for model in ("loss_scaled", "fixed"):
    out = apply_noisy(state, 0.5, 0.12, model)
    print(f"  {model:12s}: Bob variance {out.cov[2, 2]:.5f}")
