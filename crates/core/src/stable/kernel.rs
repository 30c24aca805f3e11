//! The block transition kernel: `StableRanking`'s implementation of the
//! [`BatchedProtocol`] seam.
//!
//! The scalar packed path (`transition_packed`) already replaced enum
//! walks with tag tests and table lookups, but per pair it still pays
//! the `FastLe::step_bits` field unpack / effect-enum round trip, a
//! full `ranking_plus_step_packed` call on every main/main meeting —
//! including the null meetings a converged population consists of —
//! and an atomic RMW per instrumented event. The kernel processes a
//! whole chunk of pairs in one in-order pass with those costs
//! restructured away:
//!
//! ```text
//!  chunk (≤ 4096 pairs): drawn one at a time off the Schedule's RNG
//!        │  (fused, transition_pairs) or read from a sample_block slice
//!        │  (transition_block) — one pass body, inlined into both
//!        ▼
//!  load both words by value
//!        ├─ null first: (u|v) & TAG_MASK == 0 && u != v
//!        │    two distinct ranked agents → next pair (no borrow, no
//!        │    classification, no counter, no store)
//!        ▼
//!  classify: branchless one-hot mask tests over the two loaded words
//!        │    reset: (u|v) & TAG_RESET       both-elect: u & v & TAG_ELECT
//!        │    one-elect: (u|v) & TAG_ELECT   main/main: otherwise
//!        ▼
//!  dispatch (same skewed branch chain as the scalar dispatcher)
//!        ├─ reset-involved → propagate_step_packed
//!        ├─ both-electing  → branchless lottery word step
//!        ├─ one-electing   → mask-selected join_phase1 rebirth
//!        └─ main/main      → ranking_plus (unranked, or a duplicate rank)
//!        ▼  shared tail: branchless coin toggle + changed compare
//!  words (flat SoA Vec<PackedState>)
//!        ▼  flush: resets and the three counted classes; main/main =
//!           pairs − (reset + both-elect + one-elect)
//! ```
//!
//! Because the pass executes pairs in draw order, it is bit-for-bit the
//! scalar packed loop by construction: repeated agents inside a block
//! need no special handling — a pair reads whatever the previous pair
//! wrote, exactly as the scalar loop does. (An earlier revision of this
//! kernel instead split blocks into hazard-free segments with an
//! occupancy bitset and ran per-class stashed lanes, so each class body
//! became a tight homogeneous loop. Measured on the `engine_throughput`
//! workload it *lost* to the scalar packed loop by ~2× — the per-pair
//! bookkeeping (six bitset updates, a 24-byte stash write + read) and
//! the short expected segment length (≈ √(πn/8) pairs before the first
//! repeated agent, ~63 at `n = 10⁴`) cost more than the removed
//! dispatch branches, while the reset and Ranking⁺ lanes still ran the
//! same helper bodies as the scalar path. The in-order form keeps every
//! per-class win and pays none of the segmentation tax.)
//!
//! The per-class wins over `transition_packed`:
//!
//! * **null first**: two distinct ranked agents are a null pair —
//!   detected with one mask test on the two words loaded by value,
//!   before the split borrow, the class chain or any counter: no
//!   store, no coin to toggle. A converged population takes this exit
//!   on essentially every interaction, and so does most of a
//!   stabilization run: at `n = 512` the last few unranked agents take
//!   the bulk of the Theorem 2 time, and ~93% of all pairs meet two
//!   ranked agents. The main/main counter is therefore not bumped per
//!   pair; every pair is in exactly one class, so the flush derives it
//!   as the chunk's pair count minus the three counted classes. A
//!   ranked×ranked *duplicate* (two agents holding one rank) is not
//!   null: it falls through to Ranking⁺, which resolves it.
//! * **fused draw**: on the uniform `Schedule` the engine's chunk
//!   reaches the kernel through
//!   [`transition_pairs`](BatchedProtocol::transition_pairs), which
//!   takes the pairs as a [`Draws`](population::schedule::Draws)
//!   iterator: each pair is drawn into registers and consumed at once,
//!   never stored to or reloaded from the 32 KiB block buffer. On a
//!   null pair the buffer round trip cost more than the pair: the
//!   `fused_overhead` block of `BENCH_engine.json` records the fused
//!   loop at 1.4–2.2× its own slice loop on the silent workload (best
//!   interleaved pair). Sources that decline `draws` (and `n = 2`)
//!   keep the slice path, and so do the sharded lanes, which hand the
//!   kernel their lane-local pairs as a slice.
//! * **both-electing**: the embedded Protocol 5 lottery runs as
//!   straight-line mask arithmetic directly on the packed word
//!   (`elect_step_word`) — no field unpack, no effect enum — with
//!   real branches only for the two rare effects (leader rebirth,
//!   timeout reset).
//! * **everywhere**: the responder coin toggle is a branchless
//!   mask-multiply, the changed flag is a non-shortcircuit compare, and
//!   reset-event / dispatch-mix instrumentation is accumulated in
//!   locals and flushed with one relaxed `fetch_add` per counter per
//!   chunk (the scalar dispatcher pays one per event). The mix feeds
//!   [`StableRanking::dispatch_mix`] so `engine_throughput` can
//!   attribute a kernel regression to a workload shift.
//!
//! On the churn-heavy transient from a clean start (the non-`silent`
//! bench rows) the kernel measures within ~10–20% of the scalar loop
//! either way: those interactions are dominated by the branchy
//! propagate / Ranking⁺ helper bodies both paths share, and paired A/B
//! runs show that even a bit-identical copy of the scalar loop reached
//! through the kernel's call route measures ~0.9× on the benchmark
//! host, so much of the residual is codegen/layout noise rather than
//! algorithmic cost.
//!
//! Equivalence with the scalar packed loop — and, through it, with the
//! structured enum path — is property-tested in
//! `tests/packed_equivalence.rs` (random runs, block boundaries,
//! repeated-agent blocks, faulted and sharded runs, and the fused path
//! against the slice path on a source that declines `draws`).

use population::schedule::{for_each_block, Pair};
use population::{pair_mut, BatchedProtocol, PackedProtocol, PairSource};

use crate::stable::packed::{PackedState, A_SHIFT, COIN_BIT, TAG_ELECT, TAG_MASK, TAG_RESET};
use crate::stable::ranking_plus::ranking_plus_step_packed;
use crate::stable::reset;
use crate::stable::tables::StepTables;
use crate::stable::StableRanking;

/// `LECount` position inside an elect word (16 bits).
const LE_SHIFT: u32 = A_SHIFT;
/// `coinCount` position inside an elect word (16 bits).
const CC_SHIFT: u32 = A_SHIFT + 16;
/// `leaderDone` bit of an elect word.
const DONE_BIT: u64 = 1 << (A_SHIFT + 32);
/// `isLeader` bit of an elect word.
const LEADER_BIT: u64 = 1 << (A_SHIFT + 33);
/// Width mask of the embedded 16-bit counter fields.
const FIELD_MASK: u64 = 0xFFFF;

/// One both-electing interaction as straight-line word arithmetic: the
/// Protocol 5 lottery update of `FastLe::step` with the branches
/// replaced by mask selects, operating directly on the packed word.
/// Returns the initiator's new word and whether a timeout reset was
/// triggered. Must match `FastLe::step_bits` through the word layout
/// exactly (pinned by a unit test below and by the trajectory
/// equivalence suite).
#[inline(always)]
fn elect_step_word(t: &StepTables, half: u64, u: u64, v: u64) -> (u64, bool) {
    // Line 1: LECount ← LECount − 1 (saturating).
    let le = (u >> LE_SHIFT) & FIELD_MASK;
    let le1 = le - u64::from(le != 0);
    // Lines 2–8, applied only while ¬leaderDone: a tails observation
    // finishes the lottery; heads decrement coinCount; heads with an
    // exhausted coinCount win.
    let heads = v & COIN_BIT != 0;
    let live = u & DONE_BIT == 0;
    let cc = (u >> CC_SHIFT) & FIELD_MASK;
    let win = live & heads & (cc == 0);
    let dec = u64::from(live & heads & (cc != 0));
    let mut w = (u & !(FIELD_MASK << LE_SHIFT)) | (le1 << LE_SHIFT);
    w -= dec << CC_SHIFT;
    w |= u64::from(live & (!heads | win)) * DONE_BIT;
    w |= u64::from(win) * LEADER_BIT;
    // Lines 9–15: the two rare effects stay real branches — both are
    // once-per-agent-per-lottery events, so the predictor sees them as
    // almost-never-taken.
    if w & LEADER_BIT != 0 && le1 >= half {
        return (t.leader_wait.bits() | (u & COIN_BIT), false);
    }
    if le1 == 0 {
        return (t.triggered.bits() | (u & COIN_BIT), true);
    }
    (w, false)
}

impl StableRanking {
    /// The kernel body: one in-order pass over `total` pairs, whichever
    /// way they arrive — a buffered slice or a
    /// [`Draws`](population::schedule::Draws) run straight off the
    /// generator. Inlined into both callers so each gets its own loop
    /// with the pair source's state in registers.
    #[inline(always)]
    fn kernel_pass(
        &self,
        words: &mut [PackedState],
        pairs: impl Iterator<Item = Pair>,
        total: u64,
    ) -> u64 {
        let t = &self.tables;
        let half = u64::from(self.fast.l_max / 2);
        let join = t.join_phase1.bits();
        let mut changed = 0u64;
        let mut resets = 0u64;
        // Reset, both-elect and one-elect hits; main/main is derived at
        // the flush.
        let mut mix = [0u64; 3];

        for (i, j) in pairs {
            let (i, j) = (i as usize, j as usize);
            let (pu, pv) = (words[i].0, words[j].0);
            // Null first: two distinct ranked words (no tag bit set)
            // meet without a state change, no coin to toggle, no store.
            // Once ranking stabilizes almost every pair leaves here,
            // before any borrow or classification.
            if (pu | pv) & TAG_MASK == 0 && pu != pv {
                continue;
            }
            let (u, v) = pair_mut(words, i, j);

            // One-hot classification over the two loaded words — each
            // test is a single fused mask op — feeding the same skewed
            // branch chain as the scalar dispatcher (which the
            // predictor tracks far better than a computed jump: a
            // `match` on the arithmetic class index measured ~5%
            // slower on the same workload). Only the class-specific
            // core lives in each arm; the responder coin toggle and
            // the changed compare are one shared tail, so the loop
            // body stays compact.
            let or = pu | pv;
            if or & TAG_RESET != 0 {
                // Reset-involved: Protocol 3 line 1.
                mix[0] += 1;
                reset::propagate_step_packed(t, u, v);
            } else if pu & pv & TAG_ELECT != 0 {
                // Both electing: the branchless lottery word step, no
                // field unpack / effect-enum round trip.
                mix[1] += 1;
                let (nu, reset_triggered) = elect_step_word(t, half, pu, pv);
                resets += u64::from(reset_triggered);
                u.0 = nu;
            } else if or & TAG_ELECT != 0 {
                // Exactly one electing: precomposed phase-1 rebirth
                // for the electing side (Protocol 3 lines 4–6),
                // mask-selected so the initiator/responder distinction
                // costs no branch.
                mix[2] += 1;
                let ue = pu & TAG_ELECT != 0;
                u.0 = if ue { join | (pu & COIN_BIT) } else { pu };
                v.0 = if ue { pv } else { join | (pv & COIN_BIT) };
            } else {
                // Both in main states and not a null pair: full
                // Ranking⁺ (an unranked agent, or two agents holding
                // the same rank).
                let out = ranking_plus_step_packed(t, u, v);
                resets += u64::from(out.reset_triggered);
            }
            // Shared tail, Protocol 3 lines 9–10: the responder coin
            // toggles if it has one (unranked ⇔ some tag bit set) — a
            // branchless mask-multiply — and the changed flag is a
            // non-shortcircuit compare against the loaded words.
            v.0 ^= COIN_BIT * u64::from(v.0 & TAG_MASK != 0);
            changed += u64::from((u.0 != pu) | (v.0 != pv));
        }

        // Flush the locally accumulated instrumentation to the metrics
        // registry: one relaxed RMW per counter per call instead of one
        // per event. Every pair is in exactly one class, so main/main —
        // null exits included — is what the other three leave over.
        if resets > 0 {
            self.metrics.resets.add(resets);
        }
        let main = total - mix.iter().sum::<u64>();
        for (hits, count) in self
            .metrics
            .classes
            .iter()
            .zip(mix.into_iter().chain([main]))
        {
            if count > 0 {
                hits.add(count);
            }
        }
        changed
    }
}

impl BatchedProtocol for StableRanking {
    fn transition_block(&self, words: &mut [PackedState], pairs: &[Pair]) -> u64 {
        // n = 2 routes through the deterministic-election special case
        // inside `transition_packed`, which reads `params.n()`; keep it
        // on the scalar loop rather than teaching the kernel a case the
        // schedule only produces for a two-agent population.
        if self.params.n() == 2 {
            let mut changed = 0;
            for &(i, j) in pairs {
                let (u, v) = pair_mut(words, i as usize, j as usize);
                changed += u64::from(self.transition_packed(u, v));
            }
            return changed;
        }
        self.kernel_pass(words, pairs.iter().copied(), pairs.len() as u64)
    }

    /// The fused path: when the source serves the chunk as a
    /// [`Draws`](population::schedule::Draws) run, the kernel consumes
    /// each pair as it is drawn and the pair never touches a buffer.
    /// A source that declines (or `n = 2`) takes the slice path through
    /// [`transition_block`](Self::transition_block).
    fn transition_pairs<S: PairSource + ?Sized>(
        &self,
        words: &mut [PackedState],
        source: &mut S,
        count: usize,
    ) -> u64 {
        if self.params.n() != 2 {
            if let Some(draws) = source.draws(count) {
                return self.kernel_pass(words, draws, count as u64);
            }
        }
        for_each_block(source, count, |pairs| {
            BatchedProtocol::transition_block(self, words, pairs)
        })
    }

    /// The silence certificate, one O(n) pass: every word is a ranked
    /// word (tag and coin bits clear) holding a rank in `1..=n`, and no
    /// rank repeats (a bitmap over `1..=n`). Then every ordered pair is
    /// two distinct ranked words — the main/main null exit above — so
    /// the `count` skipped interactions are credited to the main/main
    /// dispatch counter, as the kernel would have credited them.
    ///
    /// `n = 2` never certifies: that population runs the scalar
    /// fallback, which does not count the dispatch mix.
    fn certify_silent(&self, words: &[PackedState], count: u64) -> bool {
        let n = self.params.n();
        if n == 2 {
            return false;
        }
        let mut seen = vec![0u64; n / 64 + 1];
        for w in words {
            let rank = w.0 >> A_SHIFT;
            if w.0 & (TAG_MASK | COIN_BIT) != 0 || rank == 0 || rank > n as u64 {
                return false;
            }
            let (slot, bit) = ((rank / 64) as usize, 1u64 << (rank % 64));
            if seen[slot] & bit != 0 {
                return false;
            }
            seen[slot] |= bit;
        }
        self.metrics.classes[3].add(count);
        self.metrics.silent_skipped.add(count);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::stable::state::{MainKind, StableState, UnRole, UnState};
    use leader_election::fast::FastLeState;
    use population::{CursorSource, Packed, Protocol, Schedule};

    fn protocol(n: usize) -> StableRanking {
        StableRanking::new(Params::new(n))
    }

    /// The branchless lottery word step must agree with
    /// `FastLe::step_bits` (and the dispatcher built on it) over the
    /// full elect state space × both responder coins.
    #[test]
    fn elect_step_word_matches_the_scalar_dispatcher() {
        let p = protocol(64);
        let t = p.tables();
        let half = u64::from(p.fast_le().l_max / 2);
        for le in 0..=p.fast_le().l_max {
            for cc in 0..=p.fast_le().coin_target {
                for (done, lead) in [(false, false), (true, false), (true, true)] {
                    for (u_coin, v_coin) in [(false, false), (false, true), (true, false)] {
                        let state = StableState::Un(UnState {
                            coin: u_coin,
                            role: UnRole::Elect(FastLeState {
                                le_count: le,
                                coin_count: cc,
                                leader_done: done,
                                is_leader: lead,
                            }),
                        });
                        let u = PackedState::pack(&state);
                        let v = PackedState::elect(
                            v_coin,
                            FastLeState {
                                le_count: 1,
                                coin_count: 0,
                                leader_done: true,
                                is_leader: false,
                            },
                        );
                        let mut su = u;
                        let mut sv = v;
                        let resets_before = p.resets_triggered();
                        p.transition_packed(&mut su, &mut sv);
                        let (nu, reset) = elect_step_word(t, half, u.0, v.0);
                        assert_eq!(
                            nu, su.0,
                            "initiator diverged at le={le} cc={cc} done={done} \
                             lead={lead} v_coin={v_coin}"
                        );
                        assert_eq!(
                            reset,
                            p.resets_triggered() == resets_before + 1,
                            "reset flag diverged at le={le} cc={cc} done={done} lead={lead}"
                        );
                        assert_eq!(sv.0, v.0 ^ COIN_BIT, "responder must only toggle its coin");
                    }
                }
            }
        }
    }

    /// Crafted blocks with repeated agents: the kernel's in-order pass
    /// must reproduce the scalar loop exactly — including the
    /// degenerate all-same-pair block, where every pair reads the
    /// previous pair's writes.
    #[test]
    fn repeated_agent_blocks_reproduce_the_scalar_loop() {
        let n = 16u32;
        let pair_sets: Vec<Vec<Pair>> = vec![
            vec![(0, 1); 64],
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)],
            (0..200).map(|k| (k % n, (k * 7 + 1) % n)).collect(),
        ];
        for (case, pairs) in pair_sets.into_iter().enumerate() {
            let pairs: Vec<Pair> = pairs.into_iter().filter(|&(i, j)| i != j).collect();
            let p = Packed(protocol(n as usize));
            let init = p.pack_all(&p.inner().adversarial_uniform(case as u64 + 5));

            let mut kernel_words = init.clone();
            let kernel_changed = Protocol::transition_block(&p, &mut kernel_words, &pairs);

            let mut scalar_words = init;
            let mut scalar_changed = 0u64;
            let q = Packed(protocol(n as usize));
            for &(i, j) in &pairs {
                let (u, v) = pair_mut(&mut scalar_words, i as usize, j as usize);
                scalar_changed += u64::from(q.inner().transition_packed(u, v));
            }

            assert_eq!(kernel_words, scalar_words, "case {case}: words diverged");
            assert_eq!(kernel_changed, scalar_changed, "case {case}: changed count");
            assert_eq!(
                p.inner().resets_triggered(),
                q.inner().resets_triggered(),
                "case {case}: reset instrumentation"
            );
        }
    }

    /// The class a pair of loaded words falls into, by the kernel's
    /// masks: `[reset, both-elect, one-elect, main/main]`.
    fn class_of(pu: u64, pv: u64) -> usize {
        if (pu | pv) & TAG_RESET != 0 {
            0
        } else if pu & pv & TAG_ELECT != 0 {
            1
        } else if (pu | pv) & TAG_ELECT != 0 {
            2
        } else {
            3
        }
    }

    /// The derived main/main count — what the three counted classes
    /// leave over — equals a per-pair count on crafted blocks that hit
    /// every class, the ranked×ranked duplicate (a main/main pair that
    /// is *not* null) included.
    #[test]
    fn derived_main_count_equals_a_per_pair_count() {
        let n = 16;
        let p = protocol(n);
        let un = |role| PackedState::pack(&StableState::Un(UnState { coin: true, role }));
        let mut init: Vec<PackedState> = (1..=n as u64)
            .map(|r| PackedState::pack(&StableState::Ranked(r)))
            .collect();
        init[1] = init[0]; // a duplicate rank
        init[2] = un(UnRole::Reset {
            reset_count: p.params.r_max(),
            delay_count: 0,
        });
        init[3] = PackedState::pack(&p.elector(true));
        init[4] = PackedState::pack(&p.elector(false));
        init[5] = un(UnRole::Main {
            alive: p.params.l_max(),
            kind: MainKind::Waiting(1),
        });
        let pairs: Vec<Pair> = vec![
            (6, 7),   // ranked × ranked: null
            (0, 1),   // ranked × ranked, same rank: not null
            (2, 8),   // reset-involved
            (3, 4),   // both electing
            (9, 3),   // one electing
            (5, 10),  // unranked main × ranked
            (11, 12), // null again
        ];
        let pairs: Vec<Pair> = pairs.repeat(3);

        // Per-pair reference: classify each pair on the words it meets,
        // then step it through the scalar packed transition.
        let reference = protocol(n);
        let mut ref_words = init.clone();
        let mut per_pair = [0u64; 4];
        let mut duplicate_changed = false;
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let (u, v) = pair_mut(&mut ref_words, i as usize, j as usize);
            per_pair[class_of(u.0, v.0)] += 1;
            let changed = reference.transition_packed(u, v);
            duplicate_changed |= k == 1 && changed;
        }
        assert!(
            per_pair.iter().all(|&c| c > 0),
            "every class hit: {per_pair:?}"
        );
        assert!(duplicate_changed, "a duplicate-rank meeting is not null");

        let mut words = init;
        BatchedProtocol::transition_block(&p, &mut words, &pairs);
        assert_eq!(words, ref_words);
        assert_eq!(p.dispatch_mix(), per_pair);
        assert_eq!(p.resets_triggered(), reference.resets_triggered());
    }

    /// `Σ dispatch_mix == interactions` over a whole stabilization run,
    /// on the fused path (chunks drawn straight off a `Schedule`) and
    /// the slice path (the same pairs pre-sampled); the two paths end
    /// at one position with one mix.
    #[test]
    fn dispatch_mix_covers_a_stabilization_run_on_both_paths() {
        let n = 24;
        let init = Packed(protocol(n)).pack_all(&protocol(n).adversarial_uniform(4));
        let (fused, sliced) = (protocol(n), protocol(n));
        let (mut fused_words, mut sliced_words) = (init.clone(), init);
        let (mut fused_sched, mut sliced_sched) = (Schedule::new(n, 8), Schedule::new(n, 8));
        let mut total = 0u64;
        while !population::is_valid_ranking(&fused_words) {
            assert!(total < 50_000_000, "no stabilization within the budget");
            let chunk = 4096;
            BatchedProtocol::transition_pairs(&fused, &mut fused_words, &mut fused_sched, chunk);
            for_each_block(&mut sliced_sched, chunk, |pairs| {
                BatchedProtocol::transition_block(&sliced, &mut sliced_words, pairs)
            });
            total += chunk as u64;
        }
        assert_eq!(fused_words, sliced_words);
        assert_eq!(fused_sched.cursor(), sliced_sched.cursor());
        assert_eq!(fused.dispatch_mix(), sliced.dispatch_mix());
        assert_eq!(fused.dispatch_mix().iter().sum::<u64>(), total);
        assert_eq!(fused.resets_triggered(), sliced.resets_triggered());
    }

    /// `n = 2` keeps the scalar loop on both paths — no dispatch mix is
    /// counted — and never certifies, so nothing is skipped.
    #[test]
    fn two_agents_stay_on_the_scalar_loop() {
        let p = Packed(protocol(2));
        let init = p.pack_all(&p.inner().legal());
        let mut sim = population::Simulator::new(p, init, 5);
        sim.run_batched(3 * 4096 + 1);
        assert_eq!(sim.protocol().inner().dispatch_mix(), [0; 4]);
        assert_eq!(sim.protocol().inner().silent_skipped(), 0);
    }

    /// The dispatch-mix counters account for every kernel-executed pair.
    #[test]
    fn dispatch_mix_counts_every_pair() {
        let p = Packed(protocol(32));
        let init = p.pack_all(&p.inner().initial());
        let mut sim = population::Simulator::new(p, init, 3);
        sim.run_batched(10_000);
        let mix = sim.protocol().inner().dispatch_mix();
        assert_eq!(mix.iter().sum::<u64>(), 10_000, "mix must cover the run");
        // A clean start is all-electing: the hot lane dominates early.
        assert!(mix[1] > 0, "both-elect lane never ran");
    }
}
