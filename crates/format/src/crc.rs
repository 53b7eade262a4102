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
//!   from a 32-entry table of x^(2^k) mod P.

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
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// `a · b` modulo P, both operands in reflected bit order (x^0 is the
/// top bit).
const fn multmodp(a: u32, mut b: u32) -> u32 {
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
        p = multmodp(p, p);
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
