//! Property-based tests of the weighting math (`eqc_core::weighting`) —
//! the band invariants Fig. 9's sweeps rely on, across randomized
//! `P_correct` vectors and weight bands — and of the fleet's
//! [`FairShare`] arbiter: conservation, demand caps, the no-starvation
//! guarantee and convergence to the configured weight ratios.

use eqc_core::policy::arbiter::{
    ArbiterContext, EarliestDeadlineFirst, FairShare, TenantArbiter, TenantLoad,
};
use eqc_core::weighting::{bound_p_correct, normalize_weights, WeightBounds};
use proptest::prelude::*;

/// A valid band with `0 <= lo <= hi` and a bounded width.
fn arb_band() -> impl Strategy<Value = WeightBounds> {
    (0.0..2.0f64, 0.0..2.0f64).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        WeightBounds::new(lo, hi).expect("ordered finite band is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every normalized weight lands inside the configured band
    /// (inclusive, up to float rounding) — the invariant behind the
    /// paper's claim that weighting only *rescales* the learning rate
    /// within `[lo, hi]`.
    #[test]
    fn normalized_weights_stay_in_band(
        ps in proptest::collection::vec(0.0..1.0f64, 1..12),
        band in arb_band(),
    ) {
        let ws = normalize_weights(&ps, band);
        prop_assert_eq!(ws.len(), ps.len());
        for &w in &ws {
            prop_assert!(
                w >= band.lo - 1e-9 && w <= band.hi + 1e-9,
                "weight {} escaped band [{}, {}]", w, band.lo, band.hi
            );
        }
    }

    /// The extremes map to the band edges and the order of `P_correct`
    /// values is preserved by the linear rescale.
    #[test]
    fn normalization_is_monotone_and_hits_the_edges(
        ps in proptest::collection::vec(0.0..1.0f64, 2..12),
        band in arb_band(),
    ) {
        let spread = ps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ps.iter().cloned().fold(f64::INFINITY, f64::min);
        if spread <= 1e-9 {
            // Degenerate spread is covered by the midpoint property.
            return Ok(());
        }
        let ws = normalize_weights(&ps, band);
        let imin = ps
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0;
        let imax = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0;
        prop_assert!((ws[imin] - band.lo).abs() < 1e-9);
        prop_assert!((ws[imax] - band.hi).abs() < 1e-9);
        for (i, &pi) in ps.iter().enumerate() {
            for (j, &pj) in ps.iter().enumerate() {
                if pi <= pj {
                    prop_assert!(ws[i] <= ws[j] + 1e-9, "rescale must preserve order");
                }
            }
        }
    }

    /// Equal `P_correct`s are indistinguishable devices: every weight
    /// collapses to the band midpoint exactly.
    #[test]
    fn equal_p_corrects_map_to_the_midpoint(
        p in 0.0..1.0f64,
        n in 1usize..12,
        band in arb_band(),
    ) {
        let ws = normalize_weights(&vec![p; n], band);
        for &w in &ws {
            prop_assert_eq!(w, band.midpoint(), "degenerate spread must ride the midpoint");
        }
    }

    /// `Bound()` (Algorithm 1) is idempotent and always lands in [0, 1].
    #[test]
    fn bound_p_correct_is_a_clamp(p in -10.0..10.0f64) {
        let b = bound_p_correct(p);
        prop_assert!((0.0..=1.0).contains(&b));
        prop_assert_eq!(bound_p_correct(b), b);
    }
}

/// Random fleet loads: 2–5 tenants with integer weights 1–8 and
/// bounded demands.
fn arb_loads() -> impl Strategy<Value = Vec<TenantLoad>> {
    proptest::collection::vec((1u32..=8, 0usize..20), 2..6).prop_map(|ws| {
        ws.into_iter()
            .enumerate()
            .map(|(tenant, (w, demand))| TenantLoad {
                tenant,
                weight: w as f64,
                priority: 0,
                in_flight: 0,
                ready: demand,
                complete: false,
                remaining_epochs: if demand > 0 { 1 } else { 0 },
                elapsed_h: 0.0,
                deadline_h: None,
            })
            .collect()
    })
}

/// Random SLO-annotated loads: every tenant demands capacity and the
/// deadline set is *feasible* (no tenant past its deadline), so
/// [`EarliestDeadlineFirst`] arbitrates by slack instead of degrading.
fn arb_slo_loads() -> impl Strategy<Value = Vec<TenantLoad>> {
    proptest::collection::vec((1usize..12, 0.0..48.0f64, 0u32..2), 2..6).prop_map(|ws| {
        ws.into_iter()
            .enumerate()
            .map(|(tenant, (demand, slack, has_slo))| TenantLoad {
                tenant,
                weight: 1.0,
                priority: 0,
                in_flight: 0,
                ready: demand,
                complete: false,
                remaining_epochs: 1,
                elapsed_h: 2.0,
                deadline_h: (has_slo == 1).then_some(2.0 + 0.5 + slack),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One [`FairShare`] allocation is conservative (never more slots
    /// than the fleet has, never more per tenant than its demand, and
    /// work-conserving up to total demand) and never starves: whenever
    /// slots cover the demanding tenants, every one of them gets at
    /// least one.
    #[test]
    fn fair_share_allocation_is_sound(
        loads in arb_loads(),
        slots in 1usize..64,
        round in 0u64..32,
    ) {
        let caps = FairShare.allocate(&ArbiterContext {
            loads: &loads,
            total_slots: slots,
            round,
        });
        prop_assert_eq!(caps.len(), loads.len());
        let granted: usize = caps.iter().sum();
        let demand: usize = loads.iter().map(TenantLoad::demand).sum();
        prop_assert!(granted <= slots, "over-allocated: {} > {}", granted, slots);
        prop_assert_eq!(
            granted,
            slots.min(demand),
            "not work-conserving: granted {} of min({}, {})",
            granted, slots, demand
        );
        for (load, &cap) in loads.iter().zip(&caps) {
            prop_assert!(
                cap <= load.demand(),
                "tenant {} granted {} beyond demand {}",
                load.tenant, cap, load.demand()
            );
        }
        let demanding = loads.iter().filter(|l| l.wants_capacity()).count();
        if slots >= demanding {
            for load in loads.iter().filter(|l| l.wants_capacity()) {
                prop_assert!(
                    caps[load.tenant] >= 1,
                    "tenant {} starved with {} slots for {} demanding tenants",
                    load.tenant, slots, demanding
                );
            }
        }
    }

    /// With fewer slots than demanding tenants, the rotating guarantee
    /// still serves everyone within one full rotation — nobody starves
    /// permanently.
    #[test]
    fn fair_share_rotation_serves_everyone(
        n in 2usize..6,
        slots in 1usize..3,
        start in 0u64..16,
    ) {
        let loads: Vec<TenantLoad> = (0..n)
            .map(|tenant| TenantLoad {
                tenant,
                weight: 1.0,
                priority: 0,
                in_flight: 0,
                ready: 4,
                complete: false,
                remaining_epochs: 1,
                elapsed_h: 0.0,
                deadline_h: None,
            })
            .collect();
        let mut granted = vec![0usize; n];
        for round in start..start + n as u64 {
            let caps = FairShare.allocate(&ArbiterContext {
                loads: &loads,
                total_slots: slots,
                round,
            });
            for (t, &c) in caps.iter().enumerate() {
                granted[t] += c;
            }
        }
        for (t, &g) in granted.iter().enumerate() {
            prop_assert!(
                g >= 1,
                "tenant {} starved across a full rotation of {} rounds at {} slots",
                t, n, slots
            );
        }
    }

    /// Over many rounds with saturated demand, each tenant's cumulative
    /// share converges to its configured weight fraction (within the
    /// per-round rounding-plus-guarantee error bound).
    #[test]
    fn fair_share_converges_to_the_weight_ratios(
        weights in proptest::collection::vec(1u32..=8, 2..5),
        slots in 16usize..48,
    ) {
        let n = weights.len();
        let loads: Vec<TenantLoad> = weights
            .iter()
            .enumerate()
            .map(|(tenant, &w)| TenantLoad {
                tenant,
                weight: w as f64,
                priority: 0,
                in_flight: 0,
                ready: slots, // every tenant could absorb the whole fleet
                complete: false,
                remaining_epochs: 1,
                elapsed_h: 0.0,
                deadline_h: None,
            })
            .collect();
        let rounds = 64u64;
        let mut granted = vec![0u64; n];
        for round in 0..rounds {
            let caps = FairShare.allocate(&ArbiterContext {
                loads: &loads,
                total_slots: slots,
                round,
            });
            for (t, &c) in caps.iter().enumerate() {
                granted[t] += c as u64;
            }
        }
        let total_w: f64 = weights.iter().map(|&w| w as f64).sum();
        for (t, &g) in granted.iter().enumerate() {
            // Ideal share after the one-slot guarantee: 1 + (slots - n) * w/W
            // per round; the leftover distribution adds at most ±1.
            let per_round = 1.0 + (slots - n) as f64 * weights[t] as f64 / total_w;
            let mean = g as f64 / rounds as f64;
            prop_assert!(
                (mean - per_round).abs() <= 1.0,
                "tenant {} mean share {:.3} drifted from ideal {:.3} (weights {:?}, slots {})",
                t, mean, per_round, weights, slots
            );
        }
    }

    /// Under equal ample demand, a strictly heavier tenant never ends a
    /// round with fewer slots than a lighter one.
    #[test]
    fn fair_share_is_monotone_in_weight(
        wa in 1u32..=8,
        wb in 1u32..=8,
        slots in 4usize..64,
        round in 0u64..32,
    ) {
        let unslo = |tenant: usize, weight: f64, ready: usize| TenantLoad {
            tenant,
            weight,
            priority: 0,
            in_flight: 0,
            ready,
            complete: false,
            remaining_epochs: 1,
            elapsed_h: 0.0,
            deadline_h: None,
        };
        let loads = [unslo(0, wa as f64, slots), unslo(1, wb as f64, slots)];
        let caps = FairShare.allocate(&ArbiterContext {
            loads: &loads,
            total_slots: slots,
            round,
        });
        if wa > wb {
            prop_assert!(
                caps[0] >= caps[1],
                "heavier tenant got less: {:?} for weights ({}, {})",
                caps, wa, wb
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One [`EarliestDeadlineFirst`] allocation over a feasible
    /// deadline set obeys the same conservation laws as fair share
    /// (never more than the fleet, never beyond per-tenant demand,
    /// work-conserving up to total demand) *and* is greedy by slack:
    /// whenever a strictly looser tenant received anything, every
    /// strictly tighter tenant already holds its whole demand.
    #[test]
    fn edf_allocation_is_sound_and_greedy_by_slack(
        loads in arb_slo_loads(),
        slots in 1usize..64,
        round in 0u64..32,
    ) {
        let caps = EarliestDeadlineFirst.allocate(&ArbiterContext {
            loads: &loads,
            total_slots: slots,
            round,
        });
        prop_assert_eq!(caps.len(), loads.len());
        let granted: usize = caps.iter().sum();
        let demand: usize = loads.iter().map(TenantLoad::demand).sum();
        prop_assert!(granted <= slots, "over-allocated: {} > {}", granted, slots);
        prop_assert_eq!(
            granted,
            slots.min(demand),
            "not work-conserving: granted {} of min({}, {})",
            granted, slots, demand
        );
        for (load, &cap) in loads.iter().zip(&caps) {
            prop_assert!(cap <= load.demand(), "tenant {} over demand", load.tenant);
        }
        for tight in loads.iter().filter(|l| l.wants_capacity()) {
            for loose in loads.iter().filter(|l| l.wants_capacity()) {
                if tight.slack_h() < loose.slack_h() && caps[loose.tenant] > 0 {
                    prop_assert_eq!(
                        caps[tight.tenant],
                        tight.demand(),
                        "slack {:.2} h tenant {} shortchanged while slack {:.2} h tenant {} held {}",
                        tight.slack_h(), tight.tenant, loose.slack_h(), loose.tenant,
                        caps[loose.tenant]
                    );
                }
            }
        }
    }

    /// With capacity for everyone, a feasible deadline set is served in
    /// full — no SLO tenant is throttled below its demand, so every
    /// meetable deadline stays meetable.
    #[test]
    fn edf_serves_feasible_sets_in_full_under_capacity(
        loads in arb_slo_loads(),
        round in 0u64..32,
        headroom in 0usize..16,
    ) {
        let demand: usize = loads.iter().map(TenantLoad::demand).sum();
        let caps = EarliestDeadlineFirst.allocate(&ArbiterContext {
            loads: &loads,
            total_slots: demand + headroom,
            round,
        });
        for (load, &cap) in loads.iter().zip(&caps) {
            prop_assert_eq!(
                cap,
                load.demand(),
                "tenant {} throttled to {} under ample capacity",
                load.tenant, cap
            );
        }
    }

    /// An infeasible deadline set (some demanding tenant already past
    /// its deadline) degrades to *exactly* the fair-share allocation —
    /// round for round — which inherits the rotation guarantee: nobody
    /// starves across a full rotation.
    #[test]
    fn edf_degrades_to_fair_share_when_infeasible(
        base in arb_loads(),
        slots in 1usize..8,
        start in 0u64..16,
    ) {
        let loads: Vec<TenantLoad> = base
            .into_iter()
            .map(|mut l| {
                if l.tenant == 0 {
                    // Tenant 0 is hopeless: work left, deadline behind it.
                    l.ready = l.ready.max(1);
                    l.remaining_epochs = 1;
                    l.elapsed_h = 5.0;
                    l.deadline_h = Some(1.0);
                }
                l
            })
            .collect();
        prop_assert!(loads.iter().any(TenantLoad::past_deadline));
        let n = loads.len() as u64;
        let mut granted = vec![0usize; loads.len()];
        for round in start..start + n {
            let ctx = ArbiterContext { loads: &loads, total_slots: slots, round };
            let edf = EarliestDeadlineFirst.allocate(&ctx);
            prop_assert_eq!(
                &edf,
                &FairShare.allocate(&ctx),
                "infeasible round {} diverged from fair share", round
            );
            for (t, &c) in edf.iter().enumerate() {
                granted[t] += c;
            }
        }
        for load in loads.iter().filter(|l| l.wants_capacity()) {
            prop_assert!(
                granted[load.tenant] >= 1,
                "tenant {} starved across a fallback rotation", load.tenant
            );
        }
    }
}

/// [`FairShare::allocate`] as it was written before its rounds stopped
/// allocating — kept verbatim (a `demanding` list, an `open` list and a
/// `fracs` vector per pass, sorted stably) as the reference the
/// allocation-free rewrite must agree with decision for decision.
fn fair_share_reference(ctx: &ArbiterContext<'_>) -> Vec<usize> {
    let mut caps = vec![0usize; ctx.loads.len()];
    let demanding: Vec<usize> = (0..ctx.loads.len())
        .filter(|&t| ctx.loads[t].wants_capacity())
        .collect();
    if demanding.is_empty() || ctx.total_slots == 0 {
        return caps;
    }
    let k = demanding.len();
    let start = (ctx.round % k as u64) as usize;
    let mut remaining = ctx.total_slots;
    for i in 0..k {
        if remaining == 0 {
            break;
        }
        caps[demanding[(start + i) % k]] = 1;
        remaining -= 1;
    }
    while remaining > 0 {
        let open: Vec<usize> = demanding
            .iter()
            .copied()
            .filter(|&t| caps[t] < ctx.loads[t].demand())
            .collect();
        if open.is_empty() {
            break;
        }
        let rotation = (ctx.round % open.len() as u64) as usize;
        let total_w: f64 = open.iter().map(|&t| ctx.loads[t].weight).sum();
        let pool = remaining;
        let mut fracs: Vec<(f64, usize, usize)> = Vec::with_capacity(open.len());
        for (i, &t) in open.iter().enumerate() {
            let ideal = pool as f64 * ctx.loads[t].weight / total_w;
            let headroom = ctx.loads[t].demand() - caps[t];
            let grant = (ideal.floor() as usize).min(headroom).min(remaining);
            caps[t] += grant;
            remaining -= grant;
            fracs.push((ideal.fract(), (i + open.len() - rotation) % open.len(), t));
        }
        fracs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, _, t) in &fracs {
            if remaining == 0 {
                break;
            }
            if caps[t] < ctx.loads[t].demand() {
                caps[t] += 1;
                remaining -= 1;
            }
        }
    }
    caps
}

/// Random fleet loads for the reference comparison: 1–40 tenants,
/// weights drawn from a few repeated values (ties in the fractional
/// parts) or continuously, in-flight and ready counts, completed
/// tenants.
fn arb_wide_loads() -> impl Strategy<Value = Vec<TenantLoad>> {
    let tenant = ((0u32..6, 0.05..6.0f64), (0usize..5, 0usize..9, 0u32..10));
    proptest::collection::vec(tenant, 1..40).prop_map(|ts| {
        ts.into_iter()
            .enumerate()
            .map(
                |(tenant, ((tier, w), (in_flight, ready, done)))| TenantLoad {
                    tenant,
                    weight: match tier {
                        0 => w,
                        _ => [0.5, 1.0, 1.0, 2.0, 3.0][tier as usize - 1],
                    },
                    priority: 0,
                    in_flight,
                    ready,
                    complete: done == 0,
                    remaining_epochs: 1,
                    elapsed_h: 0.0,
                    deadline_h: None,
                },
            )
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The allocation-free [`FairShare`] grants exactly what the
    /// sorting reference grants, over loads, weights, demands, slot
    /// counts and rounds well beyond the fleet fixtures.
    #[test]
    fn fair_share_caps_equal_the_sorting_reference(
        loads in arb_wide_loads(),
        slots in 0usize..96,
        round in 0u64..10_000,
    ) {
        let ctx = ArbiterContext { loads: &loads, total_slots: slots, round };
        prop_assert_eq!(FairShare.allocate(&ctx), fair_share_reference(&ctx));
    }
}
