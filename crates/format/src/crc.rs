//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) for wire-format
//! integrity.
//!
//! Version-2 SPASM streams carry a trailing CRC-32 over the header,
//! template, tile-directory and instance-stream sections, and every wire-v3
//! container section is CRC'd individually, so in-flight or at-rest
//! corruption is detected before any structural parsing trusts the bytes.
//!
//! The implementation is slicing-by-8: eight 256-entry tables built in a
//! `const` context (no runtime init), folding eight input bytes per step.
//! Cold-start latency is bounded by how fast a mapped container can be
//! checksummed, so this path is worth keeping at memory-bandwidth-ish
//! speed rather than the classic one-byte-per-step loop.
//!
//! CRC-32 is linear over GF(2), which gives two crate-private tools on
//! top of the byte loop ([`update`]):
//!
//! * **streaming** — [`update`] folds one chunk into a running register,
//!   so a stream can be checksummed as it is produced, without ever
//!   being held whole;
//! * **patching** — for two messages of equal length, `crc(a) ^ crc(b)`
//!   is the zero-init, no-final-xor CRC of `a ^ b`. Rewriting one 4-byte
//!   word followed by `tail` bytes therefore moves the CRC by
//!   `multmodp(x2nmodp(tail), update(0, old ^ new))` ([`patch_word`]):
//!   O(log tail) work instead of a pass over the whole message. The two
//!   polynomial helpers are zlib's `crc32_combine` primitives —
//!   [`multmodp`] multiplies modulo the CRC polynomial P, and
//!   [`x2nmodp`] raises x to `8·n` (n zero bytes) modulo P by squaring,
//!   from a 32-entry table of x^(2^k) mod P;
//! * **combining** — a register fed `a` then `b` equals the register
//!   after `a`, shifted past `|b|` zero bytes, XOR the zero-init register
//!   of `b` alone. A [`Segment`] keeps that zero-init register and the
//!   shift factor of one stretch of a message, so a message cut into
//!   segments is checksummed by one `multmodp` per segment, and a segment
//!   that changes is re-checksummed alone.

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[t][b] extends tables[t-1][b] by one zero byte: table t gives
    // the contribution of a byte seen t positions before the current one.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 (IEEE) of `data`.
///
/// # Examples
///
/// ```
/// // The standard check vector.
/// assert_eq!(spasm_format::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !update(u32::MAX, data)
}

/// Folds `data` into the raw CRC register `crc` — no initial value and
/// no final inversion, so `crc32(m) == !update(u32::MAX, m)` and a
/// message can be fed in any number of consecutive chunks.
pub(crate) fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = step8(crc, lo, hi);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Folds eight bytes, given as two little-endian words, into `crc`.
#[inline(always)]
fn step8(crc: u32, lo: u32, hi: u32) -> u32 {
    let lo = lo ^ crc;
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// `a · b` modulo P, both operands in reflected bit order (x^0 is the
/// top bit): four bits of `a` per step.
///
/// `b` times each 4-bit polynomial goes into a 16-entry table, then
/// Horner's rule walks `a`'s nibbles from x^28..x^31 down to x^0..x^3,
/// multiplying the accumulator by x^4 between them. Multiplying by x^4
/// is advancing a CRC register past four zero bits, which the byte
/// table does for a nibble placed in the high half of a byte. Free of
/// data-dependent branches, unlike the bit-serial [`multmodp_bitwise`].
fn multmodp(a: u32, b: u32) -> u32 {
    let times_x = |v: u32| (v >> 1) ^ (POLY & (v & 1).wrapping_neg());
    // Bit 3 of a nibble is its x^0 term, bit 0 its x^3 term.
    let mut basis = [0u32; 4];
    basis[3] = b;
    basis[2] = times_x(basis[3]);
    basis[1] = times_x(basis[2]);
    basis[0] = times_x(basis[1]);
    let mut table = [0u32; 16];
    for v in 1..16 {
        table[v] = table[v & (v - 1)] ^ basis[v.trailing_zeros() as usize];
    }
    let mut p = table[(a & 0xF) as usize];
    for k in (0..7).rev() {
        p = (p >> 4) ^ TABLES[0][((p & 0xF) << 4) as usize];
        p ^= table[((a >> (28 - 4 * k)) & 0xF) as usize];
    }
    p
}

/// `a · b` modulo P one bit of `a` at a time (`a` non-zero): the
/// `const` form that builds [`X2N`].
const fn multmodp_bitwise(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` is x^(2^k) mod P.
static X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp_bitwise(p, p);
        table[k] = p;
        k += 1;
    }
    table
};

/// x^(8·n) mod P: the factor that shifts a CRC contribution past `n`
/// zero bytes.
fn x2nmodp(mut n: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3; // 8·n = n·2^3
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of a message after the little-endian word `old` at some
/// offset is rewritten to `new`, given the message's CRC `crc` before
/// the rewrite and the `tail` bytes that follow the word.
pub(crate) fn patch_word(crc: u32, old: u32, new: u32, tail: u64) -> u32 {
    let diff = update(0, &(old ^ new).to_le_bytes());
    crc ^ multmodp(x2nmodp(tail), diff)
}

/// Folds the little-endian bytes of `words` into the raw register `crc`,
/// as [`update`] would fold them from a byte buffer. Whole pairs of words
/// take the sliced path, so a stream of fixed-layout records is
/// checksummed without serialising it first.
pub(crate) fn update_words(mut crc: u32, words: impl IntoIterator<Item = u32>) -> u32 {
    let mut words = words.into_iter();
    while let Some(lo) = words.next() {
        let Some(hi) = words.next() else {
            return update(crc, &lo.to_le_bytes());
        };
        crc = step8(crc, lo, hi);
    }
    crc
}

/// One stretch of a longer message, kept so the message's CRC can be
/// rebuilt without reading the stretch again: its zero-init register and
/// the factor x^(8·len) mod P that shifts a register past it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Segment {
    crc: u32,
    shift: u32,
}

impl Segment {
    /// The segment whose zero-init register is `crc` over `len` bytes.
    pub(crate) fn new(crc: u32, len: u64) -> Segment {
        Segment {
            crc,
            shift: x2nmodp(len),
        }
    }

    /// The register after feeding this segment's bytes to the register
    /// `crc`.
    pub(crate) fn append_to(self, crc: u32) -> u32 {
        multmodp(self.shift, crc) ^ self.crc
    }

    /// Moves the segment's register after the word `old` is rewritten to
    /// `new` with `tail` of the segment's bytes after it.
    pub(crate) fn patch_word(&mut self, old: u32, new: u32, tail: u64) {
        self.crc = patch_word(self.crc, old, new, tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_sensitivity() {
        let base = vec![0u8; 64];
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    /// Rewrites the word at `at` in `data` and checks the patched CRC
    /// against a full recompute.
    fn assert_patch_matches(data: &mut [u8], at: usize, new: u32) {
        let before = crc32(data);
        let word = |d: &[u8]| u32::from_le_bytes([d[at], d[at + 1], d[at + 2], d[at + 3]]);
        let old = word(data);
        data[at..at + 4].copy_from_slice(&new.to_le_bytes());
        let tail = (data.len() - at - 4) as u64;
        assert_eq!(
            patch_word(before, old, new, tail),
            crc32(data),
            "word at {at} of {}",
            data.len()
        );
    }

    #[test]
    fn patch_matches_recompute_at_the_ends_and_around_chunk_boundaries() {
        let mut data: Vec<u8> = (0..203u32).map(|i| (i * 29 + 11) as u8).collect();
        let len = data.len();
        let mut offsets = vec![0, len - 4];
        offsets.extend((1..len / 8).flat_map(|k| (8 * k - 4..=8 * k).filter(|o| o + 4 <= len)));
        for (n, at) in offsets.into_iter().enumerate() {
            assert_patch_matches(&mut data, at, 0x9E37_79B9u32.rotate_left(n as u32));
        }
    }

    #[test]
    fn nibble_multiply_matches_bitwise() {
        let mut x = 0x2545_F491u32;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let (a, b) = (x, x.rotate_left(11) ^ 0x9E37_79B9);
            assert_eq!(multmodp(a, b), multmodp_bitwise(a, b), "{a:#x} · {b:#x}");
        }
        for a in [1, 1 << 31, u32::MAX] {
            assert_eq!(multmodp(a, x), multmodp_bitwise(a, x), "{a:#x}");
        }
        assert_eq!(multmodp(0, x), 0);
    }

    #[test]
    fn word_update_matches_byte_update() {
        let words: Vec<u32> = (0..41u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for n in 0..words.len() {
            let bytes: Vec<u8> = words[..n].iter().flat_map(|w| w.to_le_bytes()).collect();
            for init in [0, u32::MAX, 0x1234_5678] {
                assert_eq!(
                    update_words(init, words[..n].iter().copied()),
                    update(init, &bytes),
                    "{n} words from {init:#x}"
                );
            }
        }
    }

    /// Cutting a message anywhere into segments and folding them from the
    /// initial register gives the one-shot CRC, and a word patched inside
    /// a segment moves it to the patched message's CRC.
    #[test]
    fn segments_fold_to_the_one_shot_crc() {
        let mut data: Vec<u8> = (0..300u32).map(|i| (i * 53 + 17) as u8).collect();
        let fold = |data: &[u8], cuts: &[usize]| {
            let mut bounds = vec![0];
            bounds.extend_from_slice(cuts);
            bounds.push(data.len());
            let segments: Vec<Segment> = bounds
                .windows(2)
                .map(|w| Segment::new(update(0, &data[w[0]..w[1]]), (w[1] - w[0]) as u64))
                .collect();
            (
                segments.iter().fold(u32::MAX, |crc, s| s.append_to(crc)),
                segments,
            )
        };
        for cuts in [&[][..], &[0], &[7, 7, 100], &[1, 2, 3, 299], &[150, 300]] {
            assert_eq!(!fold(&data, cuts).0, crc32(&data), "cuts {cuts:?}");
        }
        let (_, mut segments) = fold(&data, &[40, 160]);
        let at = 100;
        let old = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
        let new = 0xDEAD_BEEFu32;
        data[at..at + 4].copy_from_slice(&new.to_le_bytes());
        segments[1].patch_word(old, new, (160 - at - 4) as u64);
        let patched = segments.iter().fold(u32::MAX, |crc, s| s.append_to(crc));
        assert_eq!(!patched, crc32(&data));
    }

    #[test]
    fn chunked_update_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for step in [1, 5, 8, 13, 512] {
            let crc = data.chunks(step).fold(u32::MAX, update);
            assert_eq!(!crc, crc32(&data), "chunks of {step}");
        }
    }

    /// The sliced fast path and the classic byte-at-a-time recurrence
    /// agree on every length around the 8-byte chunk boundary.
    #[test]
    fn sliced_path_matches_bytewise_reference() {
        fn reference(data: &[u8]) -> u32 {
            let mut crc = u32::MAX;
            for &b in data {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }
}
