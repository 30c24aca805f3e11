use std::fmt::Debug;

use crate::pairs::pair_mut;
use crate::schedule::{for_each_block, Pair, PairSource};

/// A population protocol: a state space and a common transition function
/// over ordered pairs of agents.
///
/// The model follows Section III of the paper: in each time step two agents
/// are chosen uniformly at random; the first argument of
/// [`transition`](Protocol::transition) is the *initiator* `u`, the second
/// the *responder* `v`. Protocols whose pseudocode is symmetric simply
/// ignore the distinction.
///
/// Implementations must be deterministic: all randomness comes from the
/// scheduler (and from *synthetic coins* stored inside agent states, as in
/// Section V of the paper). This is what makes every simulation exactly
/// reproducible from a seed.
pub trait Protocol {
    /// Per-agent state. Kept `Clone + PartialEq + Debug` so the engine can
    /// detect state changes and report configurations in test failures.
    type State: Clone + PartialEq + Debug;

    /// The population size `n` this protocol instance is configured for.
    ///
    /// Population protocols in this paper assume exact knowledge of `n`
    /// (required for ranking; see Theorem 1 of Cai et al. cited in
    /// Section IV), so the protocol value carries it.
    fn n(&self) -> usize;

    /// Apply one interaction to `(initiator, responder)`, mutating the
    /// states in place. Returns `true` iff either state changed.
    ///
    /// **Contract:** the flag must have no false negatives — returning
    /// `false` asserts that *neither* state was mutated, and the batched
    /// engine uses it to skip the write-back of null interactions (a
    /// silent configuration then dirties no cache lines). Returning a
    /// spurious `true` for an unchanged pair is always safe, merely
    /// unoptimized.
    fn transition(&self, initiator: &mut Self::State, responder: &mut Self::State) -> bool;

    /// Apply a whole block of scheduled `pairs` to `states`, in draw
    /// order, returning the number of interactions that changed a state
    /// (same no-false-negatives contract as the per-pair `changed`
    /// flag). This is the batched engine's per-block entry point:
    /// [`Simulator::run_batched`](crate::Simulator::run_batched) and the
    /// sharded intra-phase lanes call it once per block instead of
    /// dispatching per pair.
    ///
    /// The default is the scalar reference loop: split-borrow both
    /// states ([`pair_mut`]) and run [`transition`](Protocol::transition)
    /// on each pair in order — copy-free (no per-pair clones), and
    /// bit-for-bit what `count` calls of
    /// [`step`](crate::Simulator::step) would do. Implementations may
    /// override it with a block kernel (see
    /// [`PackedProtocol`] and `StableRanking`'s transition kernel), but
    /// must preserve exact trajectory equivalence with the scalar loop —
    /// including when `pairs` repeats an agent index, where the later
    /// pair must observe the earlier pair's writes.
    ///
    /// # Panics
    ///
    /// May panic if a pair has `i == j` or an index out of bounds;
    /// [`PairSource`](crate::PairSource) implementations never produce
    /// such pairs.
    fn transition_block(&self, states: &mut [Self::State], pairs: &[Pair]) -> u64 {
        let mut changed = 0;
        for &(i, j) in pairs {
            let (u, v) = pair_mut(states, i as usize, j as usize);
            changed += u64::from(self.transition(u, v));
        }
        changed
    }

    /// Draw the next `count` pairs from `source` and apply them to
    /// `states` in draw order, returning the number of interactions
    /// that changed a state (the [`transition_block`] contract). This
    /// is the engine's per-chunk entry point: the block loop
    /// ([`advance_blocks`](crate::advance_blocks)) makes one call per
    /// chunk of at most [`BLOCK_PAIRS`](crate::schedule::BLOCK_PAIRS)
    /// pairs.
    ///
    /// **Contract:** exactly `count` pairs are consumed — no more, no
    /// fewer — and the result is bit for bit what drawing them with
    /// [`sample_block`](PairSource::sample_block) and running the
    /// slices through [`transition_block`] would give: same states, same
    /// source position, same instrumentation.
    ///
    /// The default is exactly that slice loop
    /// ([`for_each_block`](crate::schedule::for_each_block)), and it
    /// must stay routed through [`transition_block`]: a wrapper that
    /// overrides only `transition_block` (a timer, an adversary, the
    /// [`ScalarBlock`] reference) then still sees every pair. An
    /// override may instead consume a [`PairSource::draws`] iterator
    /// and run each pair as it is drawn, skipping the buffer — the
    /// fused path of `StableRanking`'s kernel, reached through
    /// [`Packed`] — and must fall back to the slice loop when the
    /// source declines.
    ///
    /// [`transition_block`]: Protocol::transition_block
    fn transition_pairs<S: PairSource + ?Sized>(
        &self,
        states: &mut [Self::State],
        source: &mut S,
        count: usize,
    ) -> u64 {
        for_each_block(source, count, |pairs| self.transition_block(states, pairs))
    }

    /// The silence certificate: return `true` only if *every* ordered
    /// pair over `states` is a null interaction (no state changes), and
    /// in that case account for `count` such interactions in the
    /// protocol's own instrumentation exactly as executing them would.
    ///
    /// This is what lets the sequential block loop
    /// ([`advance_blocks`](crate::advance_blocks)) fast-forward a silent
    /// configuration: a certified configuration is a fixed point of
    /// every pair, so `count` interactions leave the states untouched
    /// and only the pair stream has to move (see
    /// [`PairSource::skip`](crate::PairSource::skip)). A `true` that is
    /// not backed by such a proof breaks bit-for-bit equivalence with
    /// the faithful loop.
    ///
    /// The default never certifies, so a protocol — and every wrapper
    /// that does not forward the call ([`ScalarBlock`], the `scenarios`
    /// crate's `Byzantine`) — always runs every pair.
    fn certify_silent(&self, states: &[Self::State], count: u64) -> bool {
        let _ = (states, count);
        false
    }
}

/// A [`Protocol`] that additionally offers a *packed* machine-word
/// state representation with its own transition path.
///
/// Structured state types (nested enums with per-role counters) are the
/// readable reference representation, but they cost the hot loop dearly:
/// a three-level enum occupies several words, and its transition walks a
/// tree of matches. Protocols whose state space fits in one machine word
/// (the whole point of the paper's `n + O(log² n)` construction) can
/// expose a lossless codec plus a transition that operates on the packed
/// words directly.
///
/// The contract, property-tested for every implementation:
///
/// * `unpack(pack(s)) == s` for every valid state `s`, and
///   `pack(unpack(w)) == w` for every word `w` produced by `pack`;
/// * [`transition_packed`](PackedProtocol::transition_packed) commutes
///   with the codec: packing, stepping packed, and unpacking yields
///   exactly what [`Protocol::transition`] yields — bit-for-bit, so the
///   packed path is a pure optimization exactly like the batched loop;
/// * the block, chunk and certificate entry points are bit-for-bit the
///   [`transition_packed`](PackedProtocol::transition_packed) loop over
///   the pairs in draw order — including when a block repeats an agent,
///   where the later pair must observe the earlier pair's writes. Their
///   defaults are exactly that loop (and a certificate that never
///   certifies); an implementation may override them with an in-order
///   block kernel, as `StableRanking` does.
///
/// Run a protocol packed by wrapping it in [`Packed`], which implements
/// [`Protocol`] over the packed words: the simulator then stores the
/// population as a flat `Vec` of words (structure-of-arrays layout),
/// never unpacks on the hot path, and hands every block and chunk to
/// the protocol's own entry points
/// ([`Simulator::run_batched`](crate::Simulator::run_batched),
/// `run_faulted`, the sharded intra-phase lanes). Observation and fault
/// injection unpack only at their boundaries — see
/// [`observe::Unpacked`](crate::observe::Unpacked) and
/// [`UnpackedHook`](crate::UnpackedHook). To run a packed protocol
/// *without* its kernel (A/B benchmarking, differential tests), wrap it
/// in [`ScalarBlock`].
pub trait PackedProtocol: Protocol {
    /// The packed word type (typically a `#[repr(transparent)]` wrapper
    /// over `u64`).
    type Packed: Copy + PartialEq + Debug;

    /// Encode a state into its packed word (lossless).
    fn pack(&self, state: &Self::State) -> Self::Packed;

    /// Decode a packed word back into the structured state.
    fn unpack(&self, word: Self::Packed) -> Self::State;

    /// Apply one interaction directly on packed words; must be
    /// trajectory-equivalent to [`Protocol::transition`] through the
    /// codec. Returns `true` iff either word changed.
    fn transition_packed(&self, u: &mut Self::Packed, v: &mut Self::Packed) -> bool;

    /// Apply a whole block of scheduled `pairs` to the packed `words`,
    /// in draw order; returns the number of word-changing interactions.
    /// Must be bit-for-bit trajectory-equivalent to the scalar
    /// [`transition_packed`](PackedProtocol::transition_packed) loop
    /// (the provided default).
    fn transition_block(&self, words: &mut [Self::Packed], pairs: &[Pair]) -> u64 {
        let mut changed = 0;
        for &(i, j) in pairs {
            let (u, v) = pair_mut(words, i as usize, j as usize);
            changed += u64::from(self.transition_packed(u, v));
        }
        changed
    }

    /// The chunk entry point over packed words — the twin [`Packed`]
    /// forwards [`Protocol::transition_pairs`] to, with the same
    /// contract. The default is the slice loop through
    /// [`transition_block`](PackedProtocol::transition_block).
    fn transition_pairs<S: PairSource + ?Sized>(
        &self,
        words: &mut [Self::Packed],
        source: &mut S,
        count: usize,
    ) -> u64 {
        for_each_block(source, count, |pairs| {
            PackedProtocol::transition_block(self, words, pairs)
        })
    }

    /// The silence certificate over packed words — the twin
    /// [`Packed`] forwards [`Protocol::certify_silent`] to, with the
    /// same contract. Never certifies by default.
    fn certify_silent(&self, words: &[Self::Packed], count: u64) -> bool {
        let _ = (words, count);
        false
    }
}

/// Adapter running a [`PackedProtocol`] over its packed words: the
/// simulator's state vector becomes a flat `Vec<P::Packed>`, every
/// interaction dispatches to
/// [`transition_packed`](PackedProtocol::transition_packed), and every
/// block and chunk to the protocol's packed entry points.
///
/// ```ignore
/// let protocol = Packed(StableRanking::new(Params::new(n)));
/// let init = protocol.pack_all(&protocol.inner().initial());
/// let mut sim = Simulator::new(protocol, init, seed);
/// sim.run_batched(1_000_000); // hot loop over u64 words
/// ```
#[derive(Debug, Clone)]
pub struct Packed<P>(pub P);

impl<P: PackedProtocol> Packed<P> {
    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.0
    }

    /// Pack a whole configuration.
    pub fn pack_all(&self, states: &[P::State]) -> Vec<P::Packed> {
        states.iter().map(|s| self.0.pack(s)).collect()
    }

    /// Unpack a whole configuration (the observation-boundary inverse
    /// of [`pack_all`](Packed::pack_all)).
    pub fn unpack_all(&self, words: &[P::Packed]) -> Vec<P::State> {
        words.iter().map(|&w| self.0.unpack(w)).collect()
    }
}

impl<P: PackedProtocol> Protocol for Packed<P> {
    type State = P::Packed;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        self.0.transition_packed(u, v)
    }

    fn transition_block(&self, states: &mut [Self::State], pairs: &[Pair]) -> u64 {
        // UFCS: both `Protocol` and `PackedProtocol` name a
        // `transition_block`, and here they operate on the same word
        // type — this is the dispatch point that hands blocks to the
        // protocol's kernel (or the scalar default).
        PackedProtocol::transition_block(&self.0, states, pairs)
    }

    fn transition_pairs<S: PairSource + ?Sized>(
        &self,
        states: &mut [Self::State],
        source: &mut S,
        count: usize,
    ) -> u64 {
        PackedProtocol::transition_pairs(&self.0, states, source, count)
    }

    fn certify_silent(&self, states: &[Self::State], count: u64) -> bool {
        PackedProtocol::certify_silent(&self.0, states, count)
    }
}

/// Adapter forcing the default *scalar* block path for a protocol,
/// bypassing any block kernel its [`PackedProtocol`] entry points run.
///
/// `ScalarBlock(Packed(p))` runs the packed representation with the
/// pair-at-a-time reference loop — the A/B twin of `Packed(p)` (which
/// dispatches blocks to the kernel). Used by the `engine_throughput`
/// bench to report kernel and scalar-packed rows side by side, and by
/// the differential tests in `tests/packed_equivalence.rs`.
#[derive(Debug, Clone)]
pub struct ScalarBlock<P>(pub P);

impl<P: Protocol> Protocol for ScalarBlock<P> {
    type State = P::State;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut Self::State, v: &mut Self::State) -> bool {
        self.0.transition(u, v)
    }
    // No `transition_block`, `transition_pairs` or `certify_silent`
    // override: chunks take the slice path and blocks run through the
    // provided scalar split-borrow loop regardless of the inner
    // protocol, and every pair runs even on a silent configuration.
}

/// Output map for ranking protocols: the rank an agent currently outputs,
/// or `None` while unranked.
///
/// This decouples the engine's convergence predicates
/// ([`crate::is_valid_ranking`]) from any particular protocol's state
/// representation.
pub trait RankOutput {
    /// The rank in `1..=n` output by this state, if any.
    fn rank(&self) -> Option<u64>;
}

/// Output map for protocols with a designated adversary subset: each
/// state knows whether its agent is *honest* (executes the protocol) or
/// a persistent (Byzantine) adversary.
///
/// With `k` persistent adversaries, a self-stabilization claim can only
/// be made about the `n − k` honest agents — the adversaries never
/// converge by definition. This trait is the seam between the engine's
/// honest-subset predicates ([`crate::is_valid_honest_ranking`], the
/// [`HonestRanking`](crate::observe::HonestRanking) observer) and the
/// `scenarios` crate's `Byzantine` protocol wrapper, whose wrapped
/// states implement it.
pub trait HonestOutput: RankOutput {
    /// Is this agent honest (i.e. not a designated adversary)?
    fn is_honest(&self) -> bool;
}
