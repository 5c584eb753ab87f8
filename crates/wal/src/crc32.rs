//! CRC-32 (IEEE 802.3: reflected, polynomial `0xEDB88320`), slicing-by-16.
//!
//! Implemented in-crate because the workspace builds without registry
//! access.  Sixteen 256-entry tables (16 KiB) are computed at compile
//! time: `TABLES[0]` is the classic byte-at-a-time table, and
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.  The
//! update folds 16 input bytes per step with 16 independent lookups, so
//! the loop-carried dependency is one step per 16 bytes instead of one
//! per byte; a tail shorter than 16 bytes goes byte by byte through
//! `TABLES[0]`.  `crc32("123456789")` matches the canonical check value
//! `0xCBF43926`.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Incremental CRC-32 state, for checksumming a record's header fields
/// and payload without concatenating them first.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum state.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            let c: &[u8; 16] = chunk.try_into().expect("16-byte chunk");
            let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[15][(head & 0xFF) as usize]
                ^ t[14][((head >> 8) & 0xFF) as usize]
                ^ t[13][((head >> 16) & 0xFF) as usize]
                ^ t[12][(head >> 24) as usize]
                ^ t[11][usize::from(c[4])]
                ^ t[10][usize::from(c[5])]
                ^ t[9][usize::from(c[6])]
                ^ t[8][usize::from(c[7])]
                ^ t[7][usize::from(c[8])]
                ^ t[6][usize::from(c[9])]
                ^ t[5][usize::from(c[10])]
                ^ t[4][usize::from(c[11])]
                ^ t[3][usize::from(c[12])]
                ^ t[2][usize::from(c[13])]
                ^ t[1][usize::from(c[14])]
                ^ t[0][usize::from(c[15])];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The finished checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: the byte-at-a-time loop over a table built bit by
    /// bit here, independent of `TABLES`.
    fn oracle(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// SplitMix64 bytes: a fixed seed, so a failure reproduces.
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn canonical_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        // 32 zero bytes — exercises the table's high rows.
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn matches_the_byte_loop_on_every_length_offset_and_large_buffers() {
        let buf = random_bytes(256 + 16, 0x5EED);
        for start in 0..16 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), oracle(bytes), "start {start}, length {len}");
            }
        }
        for seed in 1..=4 {
            let big = random_bytes(64 << 10, seed);
            assert_eq!(crc32(&big), oracle(&big), "64 KiB buffer, seed {seed}");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(data), "split at {split}");
        }
        // 100 bytes: the splits cross the 16-byte chunk edge on both sides.
        let data = random_bytes(100, 7);
        let whole = oracle(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split} of 100");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"durability";
        let base = crc32(data);
        let mut buf = *data;
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(crc32(&buf), base, "flip byte {byte} bit {bit} went undetected");
                buf[byte] ^= 1 << bit;
            }
        }
    }
}
