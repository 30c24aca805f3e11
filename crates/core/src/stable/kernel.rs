//! The packed form of Protocol 3 and the block kernel that runs it:
//! `StableRanking`'s implementation of [`PackedProtocol`].
//!
//! The dispatcher over packed words is written once, as the per-pair
//! body `step_pair`. It follows the enum reference
//! [`transition`](population::Protocol::transition) branch for branch —
//! reset, both-electing, one-electing, Ranking⁺, then the responder's
//! coin toggle — but every role test is a one-hot tag mask, every
//! threshold a [`StepTables`] entry, and every "forget everything"
//! rebirth (lottery winner, phase-1 joiner, triggered agent) a
//! precomposed word OR-ed with the surviving coin bit. Two callers run
//! it:
//!
//! ```text
//!  transition_packed: one pair          kernel_pass: a chunk of ≤ 4096 pairs,
//!        │                               │  drawn one at a time off the Schedule's
//!        │                               │  RNG (fused, transition_pairs) or read
//!        │                               │  from a sample_block slice
//!        │                               ▼  (transition_block)
//!        │                         null first: PackedState::is_null_pair(u, v)
//!        │                               │  → next pair: no borrow, no store
//!        ▼                               ▼
//!  step_pair: classify the two words by their tag masks
//!        ├─ reset-involved → propagate_step_packed
//!        ├─ both-electing  → elect_step_word (n = 2: the initiator wins)
//!        ├─ one-electing   → mask-selected join_phase1 rebirth
//!        └─ main/main      → ranking_plus_step_packed
//!        ▼  tail: branchless responder coin toggle
//!  Tally: resets and the three counted classes, in locals
//!        ├─ transition_packed: count a fired reset, drop the classes
//!        └─ kernel_pass: flush once per chunk; main/main =
//!           pairs − (reset + both-elect + one-elect)
//! ```
//!
//! What the kernel adds around the body:
//!
//! * **null first**: every pair Protocol 3 leaves unchanged is
//!   skipped — detected by [`PackedState::is_null_pair`], three mask
//!   tests on the two words loaded by value, before the split borrow,
//!   the class chain or any counter. The null pairs are exactly those
//!   whose responder is ranked and whose initiator is waiting, phase,
//!   or ranked with another rank (proven on the full state space by
//!   `crates/core/tests/null_pair_exact.rs`). A converged population
//!   takes this exit on every interaction, and so does most of a run:
//!   on the `stabilize` workload (`n = 512`, where the last few
//!   unranked agents take the bulk of the Theorem 2 time) 95.6% of all
//!   pairs are null, and on `churn` (`n = 256`, where arrivals and
//!   reset waves keep phase agents in the population) 80%. Every null
//!   pair is main/main, so the main/main counter is not bumped per
//!   pair; every pair is in exactly one class, so the flush derives it
//!   as the chunk's pair count minus the three counted classes. A
//!   ranked×ranked *duplicate* (two agents holding one rank) is not
//!   null: it falls through to Ranking⁺, which resolves it.
//!   `transition_packed` has no such exit: a null pair runs through
//!   Ranking⁺, which leaves it unchanged, so `ScalarBlock(Packed(..))`
//!   measures the body without the exit.
//! * **fused draw**: on the uniform `Schedule` the engine's chunk
//!   reaches the kernel through
//!   [`transition_pairs`](PackedProtocol::transition_pairs), which
//!   takes the pairs as a [`Draws`](population::schedule::Draws)
//!   iterator: each pair is drawn into registers and consumed at once,
//!   never stored to or reloaded from the 32 KiB block buffer. On a
//!   null pair the buffer round trip cost more than the pair: the
//!   `fused_overhead` block of `BENCH_engine.json` records the fused
//!   loop at 1.4–2.2× its own slice loop on the silent workload (best
//!   interleaved pair). Sources that decline `draws` keep the slice
//!   path, and so do the sharded lanes, which hand the kernel their
//!   lane-local pairs as a slice.
//! * **per-chunk flush**: the reset and dispatch-mix counts are
//!   accumulated in locals and flushed with one relaxed `fetch_add`
//!   per counter per chunk. The mix feeds
//!   [`StableRanking::dispatch_mix`] so `engine_throughput` can
//!   attribute a kernel regression to a workload shift.
//!
//! On every pair that is not null the kernel and `transition_packed`
//! execute the same body, so the `engine_throughput` kernel/scalar
//! rows measure exactly the null exit and the per-chunk flush.
//!
//! The body is proven equal to the enum reference on every ordered pair
//! of the full state space, for every `Params` shape up to `n = 64`, by
//! `crates/core/tests/single_pair_differential.rs`; the trajectory
//! suites in `tests/packed_equivalence.rs` cover random runs, block
//! boundaries, repeated-agent blocks, faulted and sharded runs, and the
//! fused path against the slice path on a source that declines `draws`.

use population::schedule::{for_each_block, Pair};
use population::{pair_mut, PackedProtocol, PairSource};

use crate::stable::packed::{PackedState, A_SHIFT, COIN_BIT, TAG_ELECT, TAG_MASK, TAG_RESET};
use crate::stable::ranking_plus::ranking_plus_step_packed;
use crate::stable::reset;
use crate::stable::tables::StepTables;
use crate::stable::{StableRanking, StableState};

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
/// triggered. Must match `FastLe::step` through the word layout exactly
/// (pinned by a unit test below and by the single-pair differential).
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

/// The loop-invariant inputs of [`step_pair`], built once per call —
/// per chunk in the kernel.
#[derive(Clone, Copy)]
struct Hoisted<'a> {
    t: &'a StepTables,
    /// `L_max / 2`: a lottery winner below it keeps electing.
    half: u64,
    /// The phase-1 joiner word, coin bit clear.
    join: u64,
    /// `n = 2`: the both-electing arm elects deterministically.
    two: bool,
}

/// What [`step_pair`] counts: triggered resets, and the reset,
/// both-elect and one-elect class hits (main/main is what they leave
/// over).
#[derive(Default)]
struct Tally {
    resets: u64,
    mix: [u64; 3],
}

/// Protocol 3 on two packed words, in place: the one packed form of
/// the dispatcher, shared by `transition_packed` and the kernel.
#[inline(always)]
fn step_pair(h: Hoisted<'_>, u: &mut PackedState, v: &mut PackedState, tally: &mut Tally) {
    let (pu, pv) = (u.0, v.0);
    // One-hot classification — each test is a single fused mask op —
    // feeding a skewed branch chain (which the predictor tracks far
    // better than a computed jump: a `match` on the arithmetic class
    // index measured ~5% slower on the same workload).
    let or = pu | pv;
    if or & TAG_RESET != 0 {
        // Line 1: propagate resets / wake dormant agents.
        tally.mix[0] += 1;
        reset::propagate_step_packed(h.t, u, v);
    } else if pu & pv & TAG_ELECT != 0 {
        // Lines 2–3: both electing — the initiator's lottery step.
        tally.mix[1] += 1;
        if h.two {
            // The lottery cannot be won against a single alternating
            // coin (see `transition`), so at n = 2 the initiator of the
            // first elect–elect meeting becomes the waiting leader.
            u.0 = h.t.leader_wait.bits() | (pu & COIN_BIT);
        } else {
            let (nu, reset_triggered) = elect_step_word(h.t, h.half, pu, pv);
            tally.resets += u64::from(reset_triggered);
            u.0 = nu;
        }
    } else if or & TAG_ELECT != 0 {
        // Lines 4–6: exactly one electing — it joins as a phase-1
        // agent keeping only its coin, mask-selected so the
        // initiator/responder distinction costs no branch.
        tally.mix[2] += 1;
        let ue = pu & TAG_ELECT != 0;
        u.0 = if ue { h.join | (pu & COIN_BIT) } else { pu };
        v.0 = if ue { pv } else { h.join | (pv & COIN_BIT) };
    } else {
        // Lines 7–8: both in main states — Ranking⁺.
        let out = ranking_plus_step_packed(h.t, u, v);
        tally.resets += u64::from(out.reset_triggered);
    }
    // Lines 9–10: the responder's coin toggles if it has one (unranked
    // ⇔ some tag bit set), as a branchless mask-multiply.
    v.0 ^= COIN_BIT * u64::from(v.0 & TAG_MASK != 0);
}

impl StableRanking {
    #[inline(always)]
    fn hoisted(&self) -> Hoisted<'_> {
        Hoisted {
            t: &self.tables,
            half: u64::from(self.fast.l_max / 2),
            join: self.tables.join_phase1.bits(),
            two: self.params.n() == 2,
        }
    }

    /// The kernel: one in-order pass over `total` pairs, whichever way
    /// they arrive — a buffered slice or a
    /// [`Draws`](population::schedule::Draws) run straight off the
    /// generator. Inlined into both callers so each gets its own loop
    /// with the pair source's state in registers. Pairs run in draw
    /// order, so a repeated agent reads whatever the previous pair
    /// wrote, exactly as the scalar loop does.
    #[inline(always)]
    fn kernel_pass(
        &self,
        words: &mut [PackedState],
        pairs: impl Iterator<Item = Pair>,
        total: u64,
    ) -> u64 {
        let h = self.hoisted();
        let mut changed = 0u64;
        let mut tally = Tally::default();

        for (i, j) in pairs {
            let (i, j) = (i as usize, j as usize);
            let (pu, pv) = (words[i], words[j]);
            // Null first: a pair Protocol 3 leaves unchanged changes no
            // state, toggles no coin and stores nothing.
            if PackedState::is_null_pair(pu, pv) {
                continue;
            }
            let (u, v) = pair_mut(words, i, j);
            step_pair(h, u, v, &mut tally);
            // A non-shortcircuit compare against the loaded words.
            changed += u64::from((*u != pu) | (*v != pv));
        }

        // Flush to the metrics registry: one relaxed RMW per counter per
        // call instead of one per event. Every pair is in exactly one
        // class, so main/main — null exits included — is what the other
        // three leave over.
        if tally.resets > 0 {
            self.metrics.resets.add(tally.resets);
        }
        let main = total - tally.mix.iter().sum::<u64>();
        for (hits, count) in self
            .metrics
            .classes
            .iter()
            .zip(tally.mix.into_iter().chain([main]))
        {
            if count > 0 {
                hits.add(count);
            }
        }
        changed
    }
}

impl PackedProtocol for StableRanking {
    type Packed = PackedState;

    fn pack(&self, state: &StableState) -> PackedState {
        PackedState::pack(state)
    }

    fn unpack(&self, word: PackedState) -> StableState {
        word.unpack()
    }

    /// One pair through the shared body, without the kernel's null
    /// exit or its per-chunk flush: a fired reset is counted at once
    /// and the dispatch class is not counted.
    #[inline]
    fn transition_packed(&self, u: &mut PackedState, v: &mut PackedState) -> bool {
        let before = (*u, *v);
        let mut tally = Tally::default();
        step_pair(self.hoisted(), u, v, &mut tally);
        if tally.resets > 0 {
            self.count_reset();
        }
        (*u, *v) != before
    }

    fn transition_block(&self, words: &mut [PackedState], pairs: &[Pair]) -> u64 {
        self.kernel_pass(words, pairs.iter().copied(), pairs.len() as u64)
    }

    /// The fused path: when the source serves the chunk as a
    /// [`Draws`](population::schedule::Draws) run, the kernel consumes
    /// each pair as it is drawn and the pair never touches a buffer.
    /// A source that declines takes the slice path through
    /// [`transition_block`](Self::transition_block).
    fn transition_pairs<S: PairSource + ?Sized>(
        &self,
        words: &mut [PackedState],
        source: &mut S,
        count: usize,
    ) -> u64 {
        if let Some(draws) = source.draws(count) {
            return self.kernel_pass(words, draws, count as u64);
        }
        for_each_block(source, count, |pairs| {
            PackedProtocol::transition_block(self, words, pairs)
        })
    }

    /// The silence certificate, one O(n) pass: every word is a ranked
    /// word (tag and coin bits clear) holding a rank in `1..=n`, and no
    /// rank repeats (a bitmap over `1..=n`). Then every ordered pair is
    /// two distinct ranked words — the kernel's null exit — so the
    /// `count` skipped interactions are credited to the main/main
    /// dispatch counter, as the kernel would have credited them.
    fn certify_silent(&self, words: &[PackedState], count: u64) -> bool {
        let n = self.params.n();
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
    use crate::stable::state::{MainKind, UnRole, UnState};
    use leader_election::fast::FastLeState;
    use population::{CursorSource, Packed, Protocol, ScalarBlock, Schedule};

    fn protocol(n: usize) -> StableRanking {
        StableRanking::new(Params::new(n))
    }

    /// The branchless lottery word step must agree with the enum
    /// dispatcher (`FastLe::step` inside `transition`) over the full
    /// elect state space — all four `(leaderDone, isLeader)` flag
    /// combinations — × both coins of both agents.
    #[test]
    fn elect_step_word_matches_the_scalar_dispatcher() {
        let p = protocol(64);
        let t = p.tables();
        let half = u64::from(p.fast_le().l_max / 2);
        let elect = |coin, le_count, coin_count, leader_done, is_leader| {
            StableState::Un(UnState {
                coin,
                role: UnRole::Elect(FastLeState {
                    le_count,
                    coin_count,
                    leader_done,
                    is_leader,
                }),
            })
        };
        let flags = [(false, false), (false, true), (true, false), (true, true)];
        let coins = [(false, false), (false, true), (true, false), (true, true)];
        for le in 0..=p.fast_le().l_max {
            for cc in 0..=p.fast_le().coin_target {
                for (done, lead) in flags {
                    for (u_coin, v_coin) in coins {
                        let u = elect(u_coin, le, cc, done, lead);
                        let v = elect(v_coin, 1, 0, true, false);
                        let (mut su, mut sv) = (u, v);
                        let resets_before = p.resets_triggered();
                        p.transition(&mut su, &mut sv);
                        let (pu, pv) = (PackedState::pack(&u), PackedState::pack(&v));
                        let (nu, reset) = elect_step_word(t, half, pu.0, pv.0);
                        let ctx = format!(
                            "le={le} cc={cc} done={done} lead={lead} coins={u_coin},{v_coin}"
                        );
                        assert_eq!(nu, PackedState::pack(&su).0, "initiator diverged at {ctx}");
                        assert_eq!(
                            reset,
                            p.resets_triggered() == resets_before + 1,
                            "reset flag diverged at {ctx}"
                        );
                        assert_eq!(
                            PackedState::pack(&sv).0,
                            pv.0 ^ COIN_BIT,
                            "responder must only toggle its coin at {ctx}"
                        );
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
            (5, 10),  // waiting × ranked: null
            (11, 12), // null again
        ];
        let pairs: Vec<Pair> = pairs.repeat(3);

        // Per-pair reference: every pair as its own one-pair block,
        // whose class the single-pair differential pins to the tag
        // masks of the two words it meets.
        let reference = protocol(n);
        let mut ref_words = init.clone();
        let mut duplicate_changed = false;
        for (k, &pair) in pairs.iter().enumerate() {
            let changed = PackedProtocol::transition_block(&reference, &mut ref_words, &[pair]);
            duplicate_changed |= k == 1 && changed == 1;
        }
        let per_pair = reference.dispatch_mix();
        assert!(
            per_pair.iter().all(|&c| c > 0),
            "every class hit: {per_pair:?}"
        );
        assert!(duplicate_changed, "a duplicate-rank meeting is not null");

        let mut words = init;
        PackedProtocol::transition_block(&p, &mut words, &pairs);
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
            PackedProtocol::transition_pairs(&fused, &mut fused_words, &mut fused_sched, chunk);
            for_each_block(&mut sliced_sched, chunk, |pairs| {
                PackedProtocol::transition_block(&sliced, &mut sliced_words, pairs)
            });
            total += chunk as u64;
        }
        assert_eq!(fused_words, sliced_words);
        assert_eq!(fused_sched.cursor(), sliced_sched.cursor());
        assert_eq!(fused.dispatch_mix(), sliced.dispatch_mix());
        assert_eq!(fused.dispatch_mix().iter().sum::<u64>(), total);
        assert_eq!(fused.resets_triggered(), sliced.resets_triggered());
    }

    /// `n = 2` runs on the kernel: the fused path, the slice path and
    /// the scalar reference `ScalarBlock(Packed(..))` end at the same
    /// words and cursor, and the dispatch mix covers every interaction.
    /// A legal two-agent population certifies silent, so a burst skips.
    #[test]
    fn two_agents_run_on_the_kernel() {
        let n = 2;
        let chunks = [4096, 4096, 4096, 1];
        let total: usize = chunks.iter().sum();
        let starts: Vec<Vec<StableState>> = std::iter::once(protocol(n).initial())
            .chain((0..8).map(|seed| protocol(n).adversarial_uniform(seed)))
            .collect();
        for (case, start) in starts.iter().enumerate() {
            let seed = case as u64;
            let init = Packed(protocol(n)).pack_all(start);
            let (fused, sliced) = (protocol(n), protocol(n));
            let scalar = ScalarBlock(Packed(protocol(n)));
            let mut words = [init.clone(), init.clone(), init];
            let mut scheds = [0, 1, 2].map(|_| Schedule::new(n, seed));
            for chunk in chunks {
                PackedProtocol::transition_pairs(&fused, &mut words[0], &mut scheds[0], chunk);
                for_each_block(&mut scheds[1], chunk, |pairs| {
                    PackedProtocol::transition_block(&sliced, &mut words[1], pairs)
                });
                Protocol::transition_pairs(&scalar, &mut words[2], &mut scheds[2], chunk);
            }
            assert_eq!(words[0], words[1], "case {case}: fused vs slice");
            assert_eq!(words[0], words[2], "case {case}: fused vs scalar");
            assert_eq!(scheds[0].cursor(), scheds[1].cursor(), "case {case}");
            assert_eq!(scheds[0].cursor(), scheds[2].cursor(), "case {case}");
            assert_eq!(fused.dispatch_mix(), sliced.dispatch_mix(), "case {case}");
            assert_eq!(fused.dispatch_mix().iter().sum::<u64>(), total as u64);
            assert_eq!(fused.resets_triggered(), sliced.resets_triggered());
            assert_eq!(
                fused.resets_triggered(),
                scalar.0.inner().resets_triggered()
            );
            if case == 0 {
                // The clean start is two electors: the deterministic
                // election in the both-elect arm ran.
                assert!(fused.dispatch_mix()[1] > 0, "both-elect arm never ran");
            }
        }

        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().legal());
        let mut sim = population::Simulator::new(p, init, 5);
        sim.run_batched(total as u64);
        let kernel = sim.protocol().inner();
        assert!(kernel.silent_skipped() > 0, "a legal pair must certify");
        assert_eq!(kernel.dispatch_mix(), [0, 0, 0, total as u64]);
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
