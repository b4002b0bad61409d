//! Stateless hashing: the SplitMix64 bit mixer, the keyed uniform draws
//! built on it, and the FNV-1a digest accumulator.
//!
//! Every hash-keyed subsystem (fault and chaos injection, the streaming
//! motion and traffic generators, shard routing) draws its decisions
//! from [`keyed`]/[`keyed4`] — a pure function of `(key, salt,
//! subject)`, never of shared mutable state — which is what makes those
//! subsystems bitwise-reproducible at any thread or shard count.  Every
//! committed digest is an [`Fnv1a`] fold.  The values these functions
//! return are part of the golden and `BENCH_*.json` contracts: changing
//! any constant here changes committed digests.

/// The SplitMix64 increment, `2^64 / φ`.
pub(crate) const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The first SplitMix64 multiplier, reused to spread a second subject.
const M1: u64 = 0xBF58_476D_1CE4_E5B9;

/// SplitMix64 finalizer applied to `z + φ`: a high-quality 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(PHI);
    z = (z ^ (z >> 30)).wrapping_mul(M1);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A keyed draw over one subject:
/// `mix64(key ^ mix64(salt·φ ^ mix64(k)))`.
#[inline]
pub fn keyed(key: u64, salt: u64, k: u64) -> u64 {
    mix64(key ^ mix64(salt.wrapping_mul(PHI) ^ mix64(k)))
}

/// A keyed draw over two subjects:
/// `mix64(key ^ mix64(salt·φ ^ mix64(a) ^ mix64(b·M1)))`.
#[inline]
pub fn keyed4(key: u64, salt: u64, a: u64, b: u64) -> u64 {
    mix64(key ^ mix64(salt.wrapping_mul(PHI) ^ mix64(a) ^ mix64(b.wrapping_mul(M1))))
}

/// The top 53 bits of `h` as a uniform value in `[0, 1)`.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// An FNV-1a accumulator.
///
/// Two feeds, both used by committed digests: [`Fnv1a::bytes`] and
/// [`Fnv1a::u64_bytes`] fold one byte per multiply (textbook FNV-1a),
/// while [`Fnv1a::word`] folds a whole 64-bit word per multiply.  They
/// give different digests for the same value, so each call site keeps
/// the feed its digest was recorded with.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// The empty digest (the FNV-1a offset basis).
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Byte-wise feed of `bytes`.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Byte-wise feed of the 8 little-endian bytes of `v`.
    #[inline]
    pub fn u64_bytes(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Word-wise feed: one multiply for all 64 bits of `v`.
    #[inline]
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
        self
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known answers recorded from the per-site implementations these
    // functions replaced; committed digests depend on every bit.
    const KEY: u64 = 0x0123_4567_89AB_CDEF;

    #[test]
    fn mix64_known_answers() {
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(mix64(0xDEAD_BEEF), 0x4adf_b90f_68c9_eb9b);
    }

    #[test]
    fn keyed_draws_known_answers() {
        // The chaos injector's draw for (salt 0xC401, subject 42).
        assert_eq!(unit_f64(keyed(KEY, 0xC4_01, 42)).to_bits(), 0x3f9f_e731_0258_ba60);
        // The fault injector's draw for (salt 3, a 17, b 42).
        assert_eq!(unit_f64(keyed4(KEY, 3, 17, 42)).to_bits(), 0x3fe4_0bef_be29_0521);
    }

    #[test]
    fn fnv_byte_feed_known_answers() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        // `ModelKey::device_id_hash` and `chaos_subject` for ("tk1", 7, no faults).
        assert_eq!(Fnv1a::new().bytes(b"tk1").finish(), 0x56ec_0519_4459_e6eb);
        assert_eq!(
            Fnv1a::new().bytes(b"tk1").u64_bytes(7).u64_bytes(0).finish(),
            0x49e2_b5b6_3dd5_c1ec
        );
        // `potential_digest(&[1.5, -2.25])`.
        let mut h = Fnv1a::new();
        h.u64_bytes(1.5f64.to_bits()).u64_bytes((-2.25f64).to_bits());
        assert_eq!(h.finish(), 0x58b4_b38f_9173_8c92);
    }

    #[test]
    fn fnv_word_feed_known_answer() {
        // `stream_digest` of one request (id 1, class 2, 0.5 s, 1.5 s).
        let mut h = Fnv1a::new();
        h.word(1).word(2).word(0.5f64.to_bits()).word(1.5f64.to_bits());
        assert_eq!(h.finish(), 0xd555_c077_5168_54ba);
    }
}
