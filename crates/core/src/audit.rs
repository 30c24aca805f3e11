//! State-space accounting.
//!
//! The paper's headline is a *space* bound: `StableRanking` uses
//! `n + O(log² n)` states, exponentially fewer overhead states than the
//! `n + Ω(n)` of prior self-stabilizing ranking protocols. This module
//! makes the claim checkable:
//!
//! * [`stable_state_bound`] computes the analytic size of the implemented
//!   state space from the parameters (exact products, not asymptotics);
//! * [`enumerate_states`] materializes the state space itself — every
//!   state [`StableState::is_valid_for`] admits — for exhaustive
//!   consumers (the model checker's branching adversaries, audits);
//! * [`StateAudit`] records every distinct state observed during a run
//!   (via the injective [`StableState::encode`]) so tests can assert
//!   `observed ⊆ analytic` and experiments can report real usage.

use std::collections::HashSet;
use std::ops::RangeInclusive;

use leader_election::fast::FastLeState;

use crate::params::Params;
use crate::stable::state::{MainKind, UnRole, UnState};
use crate::stable::{StableRanking, StableState};

/// Breakdown of the analytic state-space size of `STABLERANKING`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateBudget {
    /// The `n` rank states (the information-theoretic minimum).
    pub rank_states: u64,
    /// `PROPAGATERESET` states: `2 · (R_max+1) · (D_max+1)` (coin ×
    /// resetCount × delayCount).
    pub reset_states: u64,
    /// `FASTLEADERELECTION` states:
    /// `2 · (L_max+1) · (⌈log n⌉+1) · 4` (coin × LECount × coinCount ×
    /// flags).
    pub elect_states: u64,
    /// Main-protocol unranked states:
    /// `2 · (L_max+1) · (waitMax + ⌈log n⌉)` (coin × aliveCount ×
    /// (waitCount ⊎ phase)).
    pub main_states: u64,
}

impl StateBudget {
    /// Total number of states.
    pub fn total(&self) -> u64 {
        self.rank_states + self.overhead()
    }

    /// Overhead states — everything beyond the `n` ranks. The paper's
    /// claim is that this is `O(log² n)`.
    pub fn overhead(&self) -> u64 {
        self.reset_states + self.elect_states + self.main_states
    }
}

/// Analytic state-space size of `STABLERANKING` for `params`.
pub fn stable_state_bound(params: &Params) -> StateBudget {
    let n = params.n() as u64;
    let r = u64::from(params.r_max()) + 1;
    let d = u64::from(params.d_max()) + 1;
    let l = u64::from(params.l_max()) + 1;
    let ct = u64::from(params.coin_target()) + 1;
    let wait = u64::from(params.wait_max());
    let kmax = u64::from(params.fseq().kmax());
    StateBudget {
        rank_states: n,
        reset_states: 2 * r * d,
        elect_states: 2 * l * ct * 4,
        main_states: 2 * l * (wait + kmax),
    }
}

/// Every state of `STABLERANKING`'s declared state space for `params` —
/// exactly the states [`StableState::is_valid_for`] accepts, including
/// the tolerated adversarial corner cases (e.g. a lone `isLeader`
/// flag).
///
/// The list is the concrete counterpart of [`stable_state_bound`]'s
/// arithmetic and the *branching universe* of a maximally adversarial
/// Byzantine agent in the model checker (the `scenarios` crate's
/// `Recorrupt` strategy branches over all of it). The size is
/// `n + O(log² n)`, so materializing it is cheap at any practical `n`.
pub fn enumerate_states(params: &Params) -> Vec<StableState> {
    let mut states: Vec<StableState> = (1..=params.n() as u64).map(StableState::Ranked).collect();
    for coin in [false, true] {
        let mut push = |role| states.push(StableState::Un(UnState { coin, role }));
        for reset_count in 0..=params.r_max() {
            for delay_count in 0..=params.d_max() {
                push(UnRole::Reset {
                    reset_count,
                    delay_count,
                });
            }
        }
        for le_count in 0..=params.l_max() {
            for coin_count in 0..=params.coin_target() {
                for (leader_done, is_leader) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    push(UnRole::Elect(FastLeState {
                        le_count,
                        coin_count,
                        leader_done,
                        is_leader,
                    }));
                }
            }
        }
        for alive in 0..=params.l_max() {
            for w in 1..=params.wait_max() {
                push(UnRole::Main {
                    alive,
                    kind: MainKind::Waiting(w),
                });
            }
            for k in 1..=params.coin_target() {
                push(UnRole::Main {
                    alive,
                    kind: MainKind::Phase(k),
                });
            }
        }
    }
    states
}

/// The population sizes in `sizes` at which the shape of [`Params`]
/// steps — phase count, `L_max`, `R_max`, `D_max`, `waitMax` or
/// `⌈log₂ n⌉` — given as the first and last size of every distinct
/// shape, so an exhaustive check that cannot afford every `n` still
/// meets every state-space geometry on both sides of each step.
pub fn shape_sizes(sizes: RangeInclusive<usize>) -> Vec<usize> {
    let shape = |n: usize| {
        let p = Params::new(n);
        (
            p.fseq().kmax(),
            p.l_max(),
            p.r_max(),
            p.d_max(),
            p.wait_max(),
            p.coin_target(),
        )
    };
    let (first, last) = (*sizes.start(), *sizes.end());
    let mut out = vec![first];
    for n in first + 1..=last {
        if shape(n) != shape(n - 1) {
            out.extend([n - 1, n]);
        }
    }
    out.push(last);
    out.dedup();
    out
}

/// Verdict of a post-restore configuration audit: where a restored run
/// stands relative to the paper's legal set and silence property.
///
/// Produced by [`restore_audit`] after a snapshot load. Word-level
/// validation (codec exactness, state-space membership) already
/// happened during decoding — this is the *configuration-level* layer
/// on top: is the restored population a valid ranking, and is it
/// silent? Because silence is a closed predicate over pairs (the
/// paper's defining property), a restored snapshot of a stabilized run
/// is *checkable*, not just plausible — the compact-certificate idea of
/// the silent self-stabilization literature applied to durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreAudit {
    /// Population size.
    pub n: usize,
    /// Agents currently holding a rank.
    pub ranked: usize,
    /// Do the outputs form a permutation of `1..=n` (the legal set)?
    pub valid_ranking: bool,
    /// Do at least two agents share a rank?
    pub duplicate_rank: bool,
    /// Would no ordered pair change state on interaction? Exhaustive
    /// `O(n²)` check — run once at restore, not in any loop.
    pub silent: bool,
}

impl RestoreAudit {
    /// `true` iff the configuration is stabilized in the paper's sense:
    /// a valid ranking that is also silent.
    pub fn stabilized(&self) -> bool {
        self.valid_ranking && self.silent
    }

    /// One-word human verdict for logs: `"stabilized"`, `"transient"`
    /// (not yet a silent valid ranking, but nothing structurally wrong),
    /// or `"corrupted"` (duplicate ranks present — a fault's signature).
    pub fn verdict(&self) -> &'static str {
        if self.stabilized() {
            "stabilized"
        } else if self.duplicate_rank {
            "corrupted"
        } else {
            "transient"
        }
    }
}

/// Audit a restored configuration: rank census, legal-set membership,
/// and the exhaustive silence check (see [`RestoreAudit`]).
pub fn restore_audit(protocol: &StableRanking, states: &[StableState]) -> RestoreAudit {
    RestoreAudit {
        n: states.len(),
        ranked: population::ranked_count(states),
        valid_ranking: population::is_valid_ranking(states),
        duplicate_rank: population::has_duplicate_rank(states),
        silent: population::silence::is_silent(protocol, states),
    }
}

/// Records the set of distinct states seen over a run.
#[derive(Debug, Default)]
pub struct StateAudit {
    codes: HashSet<u64>,
    ranked_codes: HashSet<u64>,
}

impl StateAudit {
    /// New, empty audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record all states of a configuration.
    pub fn record(&mut self, params: &Params, states: &[StableState]) {
        for s in states {
            let code = s.encode(params);
            self.codes.insert(code);
            if matches!(s, StableState::Ranked(_)) {
                self.ranked_codes.insert(code);
            }
        }
    }

    /// Number of distinct states observed.
    pub fn distinct(&self) -> usize {
        self.codes.len()
    }

    /// Number of distinct *overhead* (non-rank) states observed.
    pub fn distinct_overhead(&self) -> usize {
        self.codes.len() - self.ranked_codes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::StableRanking;
    use population::observe::{Convergence, Sampler};
    use population::{is_valid_ranking, Simulator};

    #[test]
    fn budget_matches_hand_computation_for_n256() {
        // n = 256: R_max = 16, D_max = 32, L_max = 32, ⌈log n⌉ = 8,
        // waitMax = 16, kmax = 8.
        let p = Params::new(256);
        let b = stable_state_bound(&p);
        assert_eq!(b.rank_states, 256);
        assert_eq!(b.reset_states, 2 * 17 * 33);
        assert_eq!(b.elect_states, 2 * 33 * 9 * 4);
        assert_eq!(b.main_states, 2 * 33 * (16 + 8));
        assert_eq!(b.total(), b.rank_states + b.overhead());
    }

    #[test]
    fn overhead_grows_like_log_squared() {
        // The paper's Theorem 2: overhead = O(log² n). Check the ratio
        // overhead / log₂² n is bounded and roughly flat over 4 decades.
        let mut ratios = Vec::new();
        for exp in [10u32, 14, 18, 22] {
            let n = 1usize << exp;
            let b = stable_state_bound(&Params::new(n));
            let log2n = f64::from(exp);
            ratios.push(b.overhead() as f64 / (log2n * log2n));
        }
        for r in &ratios {
            assert!(*r < 120.0, "overhead/log² ratio too large: {r}");
        }
        let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
            / ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 3.0,
            "overhead is not Θ(log² n): ratio spread {spread}"
        );
    }

    #[test]
    fn overhead_is_sublinear_for_large_n() {
        // The exponential improvement over Burman et al.: overhead ≪ n.
        for exp in [16u32, 20, 24] {
            let n = 1usize << exp;
            let b = stable_state_bound(&Params::new(n));
            assert!(
                (b.overhead() as f64) < (n as f64) * 0.6,
                "n=2^{exp}: overhead {} not sublinear",
                b.overhead()
            );
        }
    }

    #[test]
    fn observed_states_stay_within_analytic_budget() {
        // Run the protocol from an adversarial configuration, recording
        // every state along the way; all must fit the analytic budget.
        let n = 32;
        let params = Params::new(n);
        let protocol = StableRanking::new(params.clone());
        let init = protocol.adversarial_uniform(99);
        let mut sim = Simulator::new(protocol, init, 5);
        let mut audit = StateAudit::new();
        let budget = stable_state_bound(&params);
        let mut done = Convergence::new(is_valid_ranking);
        let mut record = Sampler::new(|_, states: &[_]| audit.record(&params, states));
        let stop = sim.run_observed(20_000 * 64, 64, &mut (&mut done, &mut record));
        assert!(
            stop.converged_at().is_some(),
            "run did not stabilize within the audit budget"
        );
        assert!(
            (audit.distinct() as u64) <= budget.total(),
            "observed {} distinct states, budget {}",
            audit.distinct(),
            budget.total()
        );
        assert!(
            (audit.distinct_overhead() as u64) <= budget.overhead(),
            "observed {} overhead states, budget {}",
            audit.distinct_overhead(),
            budget.overhead()
        );
    }

    #[test]
    fn enumerate_states_matches_the_analytic_budget_exactly() {
        for n in [3usize, 8, 64] {
            let params = Params::new(n);
            let states = enumerate_states(&params);
            // Size: exactly the analytic bound, when kmax == coin_target
            // (both are ⌈log₂ n⌉; the budget counts phases via kmax).
            assert_eq!(params.fseq().kmax(), params.coin_target());
            assert_eq!(states.len() as u64, stable_state_bound(&params).total());
            // Validity: exactly the declared state space, no duplicates.
            assert!(states.iter().all(|s| s.is_valid_for(&params)));
            let codes: HashSet<u64> = states.iter().map(|s| s.encode(&params)).collect();
            assert_eq!(codes.len(), states.len(), "enumeration repeated a state");
        }
    }

    #[test]
    fn restore_audit_classifies_the_three_regimes() {
        let n = 12;
        let params = Params::new(n);
        let protocol = StableRanking::new(params.clone());

        // A stabilized configuration: the legal ranking, which is silent.
        let legal: Vec<StableState> = (1..=n as u64).map(StableState::Ranked).collect();
        let audit = restore_audit(&protocol, &legal);
        assert!(audit.stabilized());
        assert_eq!(audit.verdict(), "stabilized");
        assert_eq!(audit.ranked, n);

        // A corrupted one: two agents share rank 1.
        let mut dup = legal.clone();
        dup[3] = StableState::Ranked(1);
        let audit = restore_audit(&protocol, &dup);
        assert!(!audit.stabilized());
        assert!(audit.duplicate_rank);
        assert_eq!(audit.verdict(), "corrupted");

        // A transient one: an adversarial start, not yet ranked.
        let init = protocol.adversarial_uniform(7);
        let audit = restore_audit(&protocol, &init);
        assert!(!audit.stabilized());
        assert_eq!(audit.n, n);
    }

    #[test]
    fn audit_counts_distinct_not_total() {
        let params = Params::new(8);
        let mut audit = StateAudit::new();
        let states = vec![StableState::Ranked(1), StableState::Ranked(1)];
        audit.record(&params, &states);
        audit.record(&params, &states);
        assert_eq!(audit.distinct(), 1);
        assert_eq!(audit.distinct_overhead(), 0);
    }
}
