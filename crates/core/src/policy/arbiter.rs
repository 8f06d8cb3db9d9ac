//! Tenant → capacity arbitration policies for the multi-tenant fleet.
//!
//! The paper treats every NISQ device as a queue-contended shared
//! resource (Section I); [`FleetRuntime`](crate::fleet::FleetRuntime)
//! lifts that to the fleet level: several training sessions (tenants)
//! borrow capacity from one shared device pool, and a [`TenantArbiter`]
//! decides, at every grant round, how many concurrent tasks each tenant
//! may keep in flight. The fleet owns all mutable bookkeeping (in-flight
//! counts, ready queues, starvation counters) and hands the arbiter an
//! immutable [`ArbiterContext`] snapshot — the same stateless-policy
//! contract as [`Scheduler`](crate::policy::Scheduler).
//!
//! Three arbiters ship:
//!
//! * [`Unshared`] — capacity sharing *disabled*: every tenant proceeds
//!   as if it owned the fleet alone. A tenant's trajectory is then
//!   byte-identical to its standalone [`Ensemble`](crate::Ensemble)
//!   run regardless of co-tenants (pinned by tests).
//! * [`FairShare`] — weighted round-robin: slots split proportionally
//!   to each tenant's configured weight, with a rotating one-slot
//!   guarantee so no tenant with pending work ever starves.
//! * [`PriorityArbiter`] — strict priority: higher-priority tenants
//!   take all the capacity they can use; lower priorities get the
//!   leftovers (and their starvation shows up in
//!   [`TenantTelemetry`](crate::report::TenantTelemetry)).
//! * [`EarliestDeadlineFirst`] — deadline/SLO-aware: tenants are served
//!   in ascending slack (deadline budget minus elapsed virtual hours),
//!   and the arbiter degrades to [`FairShare`] the moment the deadline
//!   set becomes infeasible, so a blown SLO is time-sliced (and visible
//!   as starvation telemetry) instead of cascading through every later
//!   deadline.

use std::fmt;

/// One tenant's load snapshot inside an [`ArbiterContext`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantLoad {
    /// Tenant index within the current fleet run.
    pub tenant: usize,
    /// The tenant's configured fair-share weight (positive, finite).
    pub weight: f64,
    /// The tenant's configured priority (higher wins under
    /// [`PriorityArbiter`]).
    pub priority: i64,
    /// Tasks the tenant currently has in flight (dispatched, not yet
    /// absorbed).
    pub in_flight: usize,
    /// Idle clients waiting for a capacity grant to dispatch.
    pub ready: usize,
    /// Whether the tenant's training goal is already met.
    pub complete: bool,
    /// Epochs still owed on the tenant's budget.
    pub remaining_epochs: usize,
    /// Virtual hours elapsed on the tenant's own clock.
    pub elapsed_h: f64,
    /// The tenant's deadline budget in virtual hours from its arrival;
    /// `None` means no SLO.
    pub deadline_h: Option<f64>,
}

impl TenantLoad {
    /// Total capacity the tenant could use right now.
    pub fn demand(&self) -> usize {
        self.in_flight + self.ready
    }

    /// Whether the tenant wants capacity this round.
    pub fn wants_capacity(&self) -> bool {
        !self.complete && self.demand() > 0
    }

    /// Virtual hours left before the tenant's deadline; infinite when
    /// no SLO was configured, negative once the budget is blown.
    pub fn slack_h(&self) -> f64 {
        self.deadline_h
            .map_or(f64::INFINITY, |d| d - self.elapsed_h)
    }

    /// Whether the tenant still owes epochs but has exhausted its
    /// deadline budget — the infeasibility signal
    /// [`EarliestDeadlineFirst`] degrades on.
    pub fn past_deadline(&self) -> bool {
        self.remaining_epochs > 0 && self.slack_h() <= 0.0
    }
}

/// Everything a [`TenantArbiter`] may consult for one grant round.
#[derive(Clone, Debug)]
pub struct ArbiterContext<'a> {
    /// One load snapshot per tenant, indexed by tenant id.
    pub loads: &'a [TenantLoad],
    /// Total concurrent-task slots the fleet offers (its device count).
    pub total_slots: usize,
    /// Monotone grant-round counter — the rotation source for
    /// round-robin tie-breaking (policies stay stateless).
    pub round: u64,
}

/// Decides each tenant's concurrent-task capacity for one grant round.
///
/// Implementations must be deterministic pure functions of the context
/// (see [`Scheduler`](crate::policy::Scheduler) for why): the pooled
/// fleet substrate replays the discrete-event grant sequence exactly.
pub trait TenantArbiter: fmt::Debug + Send + Sync {
    /// Policy name as reported in
    /// [`FleetTelemetry`](crate::report::FleetTelemetry).
    fn name(&self) -> &'static str;

    /// Returns the per-tenant capacity caps for this round, indexed by
    /// tenant id. A cap above a tenant's demand is harmless (the fleet
    /// dispatches at most `demand` tasks); a missing entry reads as 0.
    fn allocate(&self, ctx: &ArbiterContext<'_>) -> Vec<usize>;
}

/// Capacity sharing disabled: every tenant is granted its full demand,
/// as if it owned the fleet alone.
///
/// Tenants never constrain each other, so a tenant's deterministic
/// trajectory is byte-identical to its standalone
/// [`Ensemble::train`](crate::Ensemble::train) run regardless of
/// co-tenants — the isolation oracle the fleet tests pin. The cost is
/// oversubscription: total in-flight tasks may exceed the device count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unshared;

impl TenantArbiter for Unshared {
    fn name(&self) -> &'static str {
        "unshared"
    }

    fn allocate(&self, ctx: &ArbiterContext<'_>) -> Vec<usize> {
        ctx.loads
            .iter()
            .map(|l| if l.complete { 0 } else { l.demand() })
            .collect()
    }
}

/// Weighted round-robin capacity sharing.
///
/// Every demanding tenant first receives one slot (rotating by round
/// when there are more tenants than slots, so scarcity is time-sliced
/// rather than starved); the remaining slots are apportioned by largest
/// remainder proportionally to the tenants' weights, capped at demand,
/// with slots freed by a binding demand cap respilling to the still-open
/// tenants. The properties the proptests pin: never over-allocates,
/// never exceeds demand, grants every demanding tenant at least one slot
/// whenever slots suffice, weakly favors heavier weights, and converges
/// to the configured weight ratios over rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct FairShare;

impl TenantArbiter for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn allocate(&self, ctx: &ArbiterContext<'_>) -> Vec<usize> {
        let (loads, n) = (ctx.loads, ctx.loads.len());
        // The caps, then room for one apportionment pass's scratch, so a
        // round allocates only the vector it returns.
        let mut caps = Vec::with_capacity(5 * n);
        caps.resize(n, 0usize);
        let demanding = || (0..n).filter(|&t| loads[t].wants_capacity());
        let k = demanding().count();
        if k == 0 || ctx.total_slots == 0 {
            return caps;
        }
        let start = (ctx.round % k as u64) as usize;
        let mut remaining = ctx.total_slots;

        // Rotating one-slot guarantee: with fewer slots than tenants the
        // rotation time-slices, so nobody starves permanently.
        for t in demanding().skip(start).chain(demanding().take(start)) {
            if remaining == 0 {
                break;
            }
            caps[t] = 1;
            remaining -= 1;
        }

        // Largest-remainder apportionment of the rest by weight, capped
        // at demand. Each pass grants at least one slot while any tenant
        // has headroom, so the loop terminates.
        while remaining > 0 {
            caps.truncate(n);
            for t in demanding() {
                if caps[t] < loads[t].demand() {
                    caps.push(t);
                }
            }
            let open = caps.len() - n;
            if open == 0 {
                break;
            }
            // Past the caps: the open tenants (ascending), the bits of
            // each one's remainder in two 32-bit halves (a non-negative
            // `f64` orders as its bits), and the leftover order.
            caps.resize(n + 4 * open, 0);
            let (granted, scratch) = caps.split_at_mut(n);
            let (tenants, scratch) = scratch.split_at_mut(open);
            let (high, scratch) = scratch.split_at_mut(open);
            let (low, order) = scratch.split_at_mut(open);
            let total_w: f64 = tenants.iter().map(|&t| loads[t].weight).sum();
            let pool = remaining;
            // Floors first.
            for (i, &t) in tenants.iter().enumerate() {
                let ideal = pool as f64 * loads[t].weight / total_w;
                let headroom = loads[t].demand() - granted[t];
                let grant = (ideal.floor() as usize).min(headroom).min(remaining);
                granted[t] += grant;
                remaining -= grant;
                let bits = ideal.fract().to_bits();
                (high[i], low[i], order[i]) = ((bits >> 32) as usize, bits as u32 as usize, i);
            }
            if remaining == 0 {
                break;
            }
            // Leftovers by descending fractional part, ties in rank
            // order: the open tenants rotated by round, so ties cycle. A
            // stable sort of the rotated order keeps it among ties.
            order.rotate_left((ctx.round % open as u64) as usize);
            let remainder = |i: usize| (high[i], low[i]);
            order.sort_by_key(|&i| std::cmp::Reverse(remainder(i)));
            for &i in order.iter() {
                if remaining == 0 {
                    break;
                }
                let t = tenants[i];
                if granted[t] < loads[t].demand() {
                    granted[t] += 1;
                    remaining -= 1;
                }
            }
        }
        caps.truncate(n);
        caps
    }
}

/// Strict priority: tenants are served in descending priority order
/// (ties toward the lower tenant id), each taking as much capacity as it
/// can use before the next is considered.
///
/// Deliberately starvation-prone — a saturated high-priority tenant
/// holds the whole fleet until it completes. The fleet's per-tenant
/// starvation accounting ([`TenantTelemetry::starved_rounds`]) makes
/// that visible; the `fig_tenants` harness ablates it against
/// [`FairShare`].
///
/// [`TenantTelemetry::starved_rounds`]: crate::report::TenantTelemetry::starved_rounds
#[derive(Clone, Copy, Debug, Default)]
pub struct PriorityArbiter;

impl TenantArbiter for PriorityArbiter {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn allocate(&self, ctx: &ArbiterContext<'_>) -> Vec<usize> {
        let mut caps = vec![0usize; ctx.loads.len()];
        let mut order: Vec<usize> = (0..ctx.loads.len())
            .filter(|&t| ctx.loads[t].wants_capacity())
            .collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(ctx.loads[t].priority), t));
        let mut remaining = ctx.total_slots;
        for t in order {
            let grant = ctx.loads[t].demand().min(remaining);
            caps[t] = grant;
            remaining -= grant;
            if remaining == 0 {
                break;
            }
        }
        caps
    }
}

/// Deadline-aware capacity sharing: earliest deadline first, degrading
/// to [`FairShare`] when the deadline set is infeasible.
///
/// Each tenant's urgency is its *slack* — the deadline budget from
/// [`TenantConfig::deadline_h`](crate::config::TenantConfig::deadline_h)
/// minus the virtual hours already elapsed on the tenant's own clock.
/// Demanding tenants are served strictly in ascending slack (no-SLO
/// tenants rank last with infinite slack; ties toward the lower tenant
/// id), each taking as much capacity as it can use — classic EDF, which
/// meets every deadline whenever any non-migrating policy can.
///
/// The moment any demanding tenant has blown its budget
/// ([`TenantLoad::past_deadline`]), strict EDF would let the doomed
/// tenant drag every later deadline down with it; instead the round is
/// delegated verbatim to [`FairShare`], whose rotating guarantee bounds
/// starvation and whose telemetry
/// ([`TenantTelemetry::starved_rounds`]) is the safety signal that the
/// degradation happened.
///
/// [`TenantTelemetry::starved_rounds`]: crate::report::TenantTelemetry::starved_rounds
#[derive(Clone, Copy, Debug, Default)]
pub struct EarliestDeadlineFirst;

impl TenantArbiter for EarliestDeadlineFirst {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn allocate(&self, ctx: &ArbiterContext<'_>) -> Vec<usize> {
        let mut caps = vec![0usize; ctx.loads.len()];
        let mut order: Vec<usize> = (0..ctx.loads.len())
            .filter(|&t| ctx.loads[t].wants_capacity())
            .collect();
        if order.is_empty() || ctx.total_slots == 0 {
            return caps;
        }
        if order.iter().any(|&t| ctx.loads[t].past_deadline()) {
            return FairShare.allocate(ctx);
        }
        order.sort_by(|&a, &b| {
            ctx.loads[a]
                .slack_h()
                .total_cmp(&ctx.loads[b].slack_h())
                .then(a.cmp(&b))
        });
        let mut remaining = ctx.total_slots;
        for t in order {
            if remaining == 0 {
                break;
            }
            let grant = ctx.loads[t].demand().min(remaining);
            caps[t] = grant;
            remaining -= grant;
        }
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(tenant: usize, weight: f64, priority: i64, demand: usize) -> TenantLoad {
        TenantLoad {
            tenant,
            weight,
            priority,
            in_flight: 0,
            ready: demand,
            complete: false,
            remaining_epochs: if demand > 0 { 1 } else { 0 },
            elapsed_h: 0.0,
            deadline_h: None,
        }
    }

    fn slo(tenant: usize, demand: usize, elapsed_h: f64, deadline_h: f64) -> TenantLoad {
        TenantLoad {
            elapsed_h,
            deadline_h: Some(deadline_h),
            ..load(tenant, 1.0, 0, demand)
        }
    }

    fn ctx(loads: &[TenantLoad], total_slots: usize, round: u64) -> ArbiterContext<'_> {
        ArbiterContext {
            loads,
            total_slots,
            round,
        }
    }

    #[test]
    fn unshared_grants_full_demand_to_everyone() {
        let loads = [load(0, 1.0, 0, 5), load(1, 1.0, 0, 3)];
        assert_eq!(Unshared.allocate(&ctx(&loads, 4, 0)), vec![5, 3]);
        let mut done = loads;
        done[1].complete = true;
        assert_eq!(Unshared.allocate(&ctx(&done, 4, 0)), vec![5, 0]);
    }

    #[test]
    fn fair_share_splits_by_weight_and_never_starves() {
        // Weights 3:1 over 8 slots: 1+1 guaranteed, 6 split 4.5/1.5.
        let loads = [load(0, 3.0, 0, 8), load(1, 1.0, 0, 8)];
        let caps = FairShare.allocate(&ctx(&loads, 8, 0));
        assert_eq!(caps.iter().sum::<usize>(), 8, "work-conserving");
        assert!(caps[0] > caps[1], "heavier weight takes more: {caps:?}");
        assert!(caps[1] >= 1, "light tenant still served: {caps:?}");
    }

    #[test]
    fn fair_share_caps_at_demand_and_respills() {
        let loads = [load(0, 1.0, 0, 2), load(1, 1.0, 0, 10)];
        let caps = FairShare.allocate(&ctx(&loads, 8, 0));
        assert_eq!(caps[0], 2, "never beyond demand");
        assert_eq!(caps[1], 6, "freed slots respill");
    }

    #[test]
    fn fair_share_rotates_scarce_slots() {
        // Three tenants, one slot: the guarantee must rotate by round.
        let loads = [load(0, 1.0, 0, 4), load(1, 1.0, 0, 4), load(2, 1.0, 0, 4)];
        let mut granted = [0usize; 3];
        for round in 0..3 {
            let caps = FairShare.allocate(&ctx(&loads, 1, round));
            assert_eq!(caps.iter().sum::<usize>(), 1);
            for (t, &c) in caps.iter().enumerate() {
                granted[t] += c;
            }
        }
        assert_eq!(granted, [1, 1, 1], "one slot each over a full rotation");
    }

    #[test]
    fn fair_share_ignores_complete_and_idle_tenants() {
        let mut loads = [load(0, 1.0, 0, 4), load(1, 1.0, 0, 0), load(2, 1.0, 0, 4)];
        loads[2].complete = true;
        let caps = FairShare.allocate(&ctx(&loads, 8, 0));
        assert_eq!(caps[1], 0, "no demand, no slots");
        assert_eq!(caps[2], 0, "complete tenants hold nothing");
        assert_eq!(caps[0], 4);
    }

    #[test]
    fn priority_serves_strictly_in_order() {
        let loads = [load(0, 1.0, 0, 4), load(1, 1.0, 5, 3), load(2, 1.0, 5, 4)];
        let caps = PriorityArbiter.allocate(&ctx(&loads, 6, 0));
        // Priority 5 first (ties toward lower id), tenant 0 gets scraps.
        assert_eq!(caps, vec![0, 3, 3]);
    }

    #[test]
    fn edf_serves_tightest_slack_first() {
        // Slacks: t0 = 9, t1 = 2, t2 = inf (no SLO). Six slots cover
        // t1 fully, then t0, and t2 gets the scraps.
        let loads = [
            slo(0, 4, 1.0, 10.0),
            slo(1, 3, 8.0, 10.0),
            load(2, 1.0, 0, 4),
        ];
        let caps = EarliestDeadlineFirst.allocate(&ctx(&loads, 6, 0));
        assert_eq!(caps, vec![3, 3, 0]);
    }

    #[test]
    fn edf_grants_full_demand_under_ample_capacity() {
        let loads = [slo(0, 2, 0.0, 1.0), slo(1, 3, 0.0, 2.0)];
        assert_eq!(
            EarliestDeadlineFirst.allocate(&ctx(&loads, 8, 0)),
            vec![2, 3]
        );
    }

    #[test]
    fn edf_degrades_to_fair_share_when_infeasible() {
        // Tenant 1 blew its budget (elapsed 5 h of a 2 h deadline) with
        // epochs still owed: the whole round must match FairShare
        // exactly, rotation included.
        let loads = [slo(0, 4, 0.0, 10.0), slo(1, 4, 5.0, 2.0)];
        for round in 0..4 {
            assert_eq!(
                EarliestDeadlineFirst.allocate(&ctx(&loads, 3, round)),
                FairShare.allocate(&ctx(&loads, 3, round)),
                "infeasible round {round} must delegate to fair-share"
            );
        }
        assert!(loads[1].past_deadline());
        assert!(!loads[0].past_deadline());
    }

    #[test]
    fn slack_is_infinite_without_an_slo() {
        let l = load(0, 1.0, 0, 2);
        assert_eq!(l.slack_h(), f64::INFINITY);
        assert!(!l.past_deadline());
        assert!(slo(0, 2, 3.0, 3.0).past_deadline(), "zero slack is blown");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Unshared.name(), "unshared");
        assert_eq!(FairShare.name(), "fair-share");
        assert_eq!(PriorityArbiter.name(), "priority");
        assert_eq!(EarliestDeadlineFirst.name(), "edf");
    }
}
