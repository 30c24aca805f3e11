//! Exact jump-ahead for the schedule's xoshiro256++ generator.
//!
//! The xoshiro256 state transition `T` is linear over GF(2)²⁵⁶ (xors,
//! shifts and rotations only; the `++` scrambler touches the output,
//! never the state). Its characteristic polynomial `p` has degree 256,
//! so by Cayley–Hamilton `Tᵏ = (xᵏ mod p)(T)`: advancing the state by
//! `k` draws costs one polynomial power modulo `p` (O(log k) squarings)
//! plus 256 generator steps that accumulate the states selected by the
//! remainder's coefficients — the construction behind xoshiro's own
//! `jump()` constants (Haramoto et al., *Efficient jump ahead for
//! F2-linear random number generators*, 2008), generalized to any `k`.
//!
//! The jump works purely over [`SmallRng::state`] /
//! [`SmallRng::from_state`], so the vendored `rand` stand-in keeps the
//! API of the crates.io generator it replaces.

use rand::rngs::SmallRng;
use rand::RngCore;

/// The low 256 coefficients of the characteristic polynomial of the
/// xoshiro256 state transition (bit `i` of word `i / 64` is the
/// coefficient of `xⁱ`); the leading `x²⁵⁶` term is implicit. Recomputed
/// from the generator's bit stream by Berlekamp–Massey in the tests.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// A polynomial over GF(2) of degree < 256, reduced modulo [`CHAR_POLY`].
type Poly = [u64; 4];

/// `a · x mod p`.
#[inline]
fn mul_x(a: Poly) -> Poly {
    let carry = a[3] >> 63;
    let mut r = [
        a[0] << 1,
        (a[1] << 1) | (a[0] >> 63),
        (a[2] << 1) | (a[1] >> 63),
        (a[3] << 1) | (a[2] >> 63),
    ];
    let mask = carry.wrapping_neg();
    for (w, p) in r.iter_mut().zip(CHAR_POLY) {
        *w ^= p & mask;
    }
    r
}

/// `a · b mod p`, bit-serial Horner over the bits of `b`.
fn mul_mod(a: Poly, b: Poly) -> Poly {
    let mut r = [0u64; 4];
    for i in (0..256).rev() {
        r = mul_x(r);
        let mask = ((b[i / 64] >> (i % 64)) & 1).wrapping_neg();
        for (w, x) in r.iter_mut().zip(a) {
            *w ^= x & mask;
        }
    }
    r
}

/// `xᵏ mod p`, left-to-right square-and-multiply.
fn x_pow_mod(k: u64) -> Poly {
    let mut r = [1, 0, 0, 0];
    for bit in (0..64 - k.leading_zeros()).rev() {
        r = mul_mod(r, r);
        if (k >> bit) & 1 == 1 {
            r = mul_x(r);
        }
    }
    r
}

/// The generator state `k` draws after `state`. Costs one squaring
/// modulo `p` per bit of `k` plus 256 generator steps: ~17 µs for
/// `k ≈ 6.5·10⁶` on a 2-vCPU x86-64 host, where a step costs ~1.3 ns.
pub(crate) fn jump(state: [u64; 4], k: u64) -> [u64; 4] {
    let coeffs = x_pow_mod(k);
    let mut rng = SmallRng::from_state(state);
    let mut acc = [0u64; 4];
    for i in 0..256 {
        if (coeffs[i / 64] >> (i % 64)) & 1 == 1 {
            for (a, s) in acc.iter_mut().zip(rng.state()) {
                *a ^= s;
            }
        }
        rng.next_u64();
    }
    acc
}

/// Advance `rng` by exactly `k` draws, discarding the outputs —
/// bit-for-bit the state `k` calls of `next_u64` would leave.
pub(crate) fn skip(rng: &mut SmallRng, k: u64) {
    *rng = SmallRng::from_state(jump(rng.state(), k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Berlekamp–Massey over GF(2): the shortest linear recurrence of
    /// `bits`, returned as the characteristic polynomial's coefficients
    /// (index `i` ↔ `xⁱ`, leading coefficient included).
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let mut c = vec![0u8; bits.len() + 1];
        let mut b = vec![0u8; bits.len() + 1];
        c[0] = 1;
        b[0] = 1;
        let (mut l, mut m) = (0usize, 1usize);
        for n in 0..bits.len() {
            let d = (1..=l).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
            if d == 0 {
                m += 1;
            } else if 2 * l <= n {
                let t = c.clone();
                for i in m..c.len() {
                    c[i] ^= b[i - m];
                }
                l = n + 1 - l;
                b = t;
                m = 1;
            } else {
                for i in m..c.len() {
                    c[i] ^= b[i - m];
                }
                m += 1;
            }
        }
        // Connection polynomial C(x) = Σ cᵢ xⁱ; the characteristic
        // polynomial is its reciprocal x^L · C(1/x).
        (0..=l).map(|i| c[l - i]).collect()
    }

    fn stepped(state: [u64; 4], k: u64) -> [u64; 4] {
        let mut rng = SmallRng::from_state(state);
        for _ in 0..k {
            rng.next_u64();
        }
        rng.state()
    }

    #[test]
    fn char_poly_is_recomputed_by_berlekamp_massey() {
        // Bit 0 of the first state word is a linear functional of the
        // state, so its sequence obeys T's minimal polynomial, which has
        // the full degree 256 for this full-period generator.
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let bits: Vec<u8> = (0..1024)
            .map(|_| {
                let bit = (rng.state()[0] & 1) as u8;
                rng.next_u64();
                bit
            })
            .collect();
        let poly = berlekamp_massey(&bits);
        assert_eq!(poly.len(), 257, "degree must be 256");
        assert_eq!(poly[256], 1);
        let mut low = [0u64; 4];
        for (i, &c) in poly[..256].iter().enumerate() {
            low[i / 64] |= u64::from(c) << (i % 64);
        }
        assert_eq!(low, CHAR_POLY, "recomputed polynomial: {low:#018x?}");
    }

    #[test]
    fn jump_equals_stepping() {
        let start = SmallRng::seed_from_u64(11).state();
        for k in [0, 1, 255, 256, 4095, 4096, 4097, 1_000_003, 6_553_600] {
            assert_eq!(jump(start, k), stepped(start, k), "k = {k}");
        }
    }

    #[test]
    fn jumps_compose() {
        let start = SmallRng::seed_from_u64(3).state();
        let (a, b) = (123_456_789u64, 987_654_321u64);
        assert_eq!(jump(jump(start, a), b), jump(start, a + b));
    }
}
