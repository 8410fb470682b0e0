"""Prefix bounds versus reserved extra seats when scores understate a group.

Suppose the second group's reported scores systematically understate true
ability: the true value is (score + 105) * gamma - 105 with gamma > 1.
One deployed remedy adds x extra seats reserved for that group until it
holds an alpha share of the expanded class.  This script compares, per
seat, five admission rules at the same capacities:

  uncons / cons                n seats, unconstrained vs prefix-bounded
  sup                          n + x seats, extras reserved for the group
  uncons_expanded / cons_expanded   n + x seats, same rules as the first two

Prefix bounds spread the group's members through the ranking instead of
appending them, so they dominate the reservation scheme seat-for-seat.
"""

import biasrank as br


def main():
    gamma, offset = 1.076, 105.0
    print(f"True score = (reported + {offset:g}) * {gamma} - {offset:g}")
    print(f"e.g. a reported 105 is really worth {br.apply_score_shift([105.0], gamma, offset)[0]:.2f}\n")

    print("Seat equation examples (n = 100 base seats):")
    for n_f, alpha in [(9, 0.14), (14, 0.14), (20, 0.14)]:
        x = br.supernumerary_seats(100, n_f, alpha)
        print(f"  {n_f} group members admitted on merit, target share {alpha:.0%} -> {x} extra seats")
    print()

    trials = 400
    dist_a = br.Normal(30.79, 51.80)
    dist_b = br.Normal(21.24, 39.27)
    print(f"Score model: normal({dist_a.mu}, {dist_a.sigma}) vs normal({dist_b.mu}, {dist_b.sigma}),")
    print(f"400 candidates per group, 40 base seats, log position discount, {trials} trials.\n")

    print(f"{'alpha':>6} | {'scheme':>16} | {'seats':>6} | {'utility/seat':>12}")
    print("-" * 52)
    for alpha in (0.10, 0.15, 0.20):
        cfg = br.SupernumeraryConfig(
            n=40, m_a=400, m_b=400, alpha=alpha, gamma=gamma,
            dist_a=dist_a, dist_b=dist_b, discount=br.DiscountVector.dcg(800), score_offset=offset,
        )
        rep = br.supernumerary_compare(cfg, trials, br.SeedSpec(13))
        for s in rep.schemes:
            print(f"{alpha:>6} | {s.scheme:>16} | {s.mean_seats:6.1f} | {s.mean_utility_per_seat:12.3f}")
        cons = rep.by_scheme("cons_expanded").mean_utility_per_seat
        sup = rep.by_scheme("sup").mean_utility_per_seat
        print(f"       -> prefix bounds beat reservations by {cons - sup:+.3f} per seat at the same size")
        print("-" * 52)
    print("\nAt this mild shift the per-seat edge is small but consistent; it")
    print("widens with the shift strength because reservations always pay the")
    print("tail-position discount on the very candidates the shift favors.")


if __name__ == "__main__":
    main()
