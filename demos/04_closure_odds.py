"""How improbable is closure for data without a common origin?

The cascade's final comparison asks whether two +1/-1 sequences of
length n with k plus-outcomes each land in the same arrangement.  For
independent uniform re-sortings that chance is 1/C(n,k), and it dies
combinatorially fast.  This script checks the formula by simulation and
then scores realistic datasets with the audit pipeline.
"""

import math

from chshkit import (
    CorrelationLaw,
    PHOTON_OPTIMAL_QUAD,
    ResortPolicy,
    RngSpec,
    closure_probability,
    generate_subruns,
    resort_cascade,
)

print("exact coincidence probability 1/C(n,k):")
for n, k in ((4, 2), (6, 3), (10, 5), (20, 10), (100, 50), (1000, 500)):
    p = closure_probability(n, k)
    shown = f"{p:.3e}" if p > 0 else "underflows double precision"
    print(f"  n={n:>4}, k={k:>3}:  {shown}")
print()

print("simulation agrees (100000 trials each):")
for j, (n, k) in enumerate(((4, 2), (6, 3), (10, 5))):
    exact = closure_probability(n, k)
    est = closure_probability(n, k, "monte-carlo", trials=100_000, rng=RngSpec(40 + j))
    print(f"  n={n:>2}, k={k}:  measured {est:.5f}  vs exact {exact:.5f}")
print()

# Now the full pipeline on independent quantum sub-runs.  At n_per=1000
# the b-sequences carry ~500 plus outcomes, so closure would need a
# 1-in-C(1000,500) coincidence.
quad = PHOTON_OPTIMAL_QUAD
law = CorrelationLaw.PHOTON_MALUS
print("independent quantum sub-runs through the cascade (n_per = 1000):")
closures = 0
for seed in range(200):
    data = generate_subruns(quad, law, 1000, RngSpec(seed))
    rep = resort_cascade(data, ResortPolicy.uniform_random(RngSpec(9000 + seed)))
    closures += int(rep.closure)
print(f"  closures in 200 seeds: {closures}")
print(f"  log10 C(1000, 500) = {math.log10(math.comb(1000, 500)):.0f}")
print()
print("a bound that only binds after closure therefore never binds real")
print("sub-run records: the re-sorting argument needs a coincidence whose")
print("probability is zero for every practical purpose.")
