"""Multi-step robust values, capacities and worst-case policies.

Backward induction on the integer partial-sum lattice computes
E[f(S_n / n)] exactly, together with the Markov kernel policy the
adversary uses to attain it.  Capacities of path events reuse the same
machinery with indicator payoffs (plus a trigger flag for running-max
events).
"""

from sublinexp import (
    PathEvent,
    brute_force_value,
    capacity,
    piecewise_linear,
    policy_value,
    robust_value,
    validate_ambiguity_set,
)

# the adversary may freeze the walk (point mass at 0) or spread it
freeze_or_spread = validate_ambiguity_set(
    {"step": 1, "generators": [[(0, 1.0)], [(-1, 0.5), (1, 0.5)]]}
)
f = piecewise_linear([(-1, 1), (0, 0), (1, 1)])

res = robust_value(freeze_or_spread, 2, f)
print(f"robust E[f(S_2/2)] = {res.value}   (brute force agrees: "
      f"{brute_force_value(freeze_or_spread, 2, f)})")
print("worst-case kernel choices (level, state) -> generator:")
for k, (lo, choice) in enumerate(res.policy.levels, start=1):
    for i, g in enumerate(choice.tolist()):  # -1: no generator designated
        if g >= 0:
            print(f"  ({k}, {lo + res.policy.step * i}) -> {g}")
print(f"re-running the fixed policy reproduces the value bitwise: "
      f"{policy_value(freeze_or_spread, res.policy, 2, f) == res.value}")

print()
for side in ("UPPER", "LOWER"):
    v = capacity(freeze_or_spread, 2, PathEvent("FINAL_ABS_GE", 2), side)
    print(f"capacity {side}: V(|S_2| >= 2) = {v}")
peak = capacity(freeze_or_spread, 4, PathEvent("MAX_PARTIAL_ABS_GE", 2), "UPPER")
print(f"running-max event: V(max_k |S_k| >= 2) over 4 steps = {peak}")
