//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slicing-by-8.
//!
//! The durable store frames every record and every manifest with this
//! checksum, so corruption inside the acknowledged region is *detected*
//! (a hard error) rather than silently restored, while garbage past the
//! committed frontier is *recognized* as a torn tail and truncated. The
//! workspace builds with no external dependencies, hence the local
//! implementation; the constants match every other IEEE CRC-32 in the
//! wild, so segments are checkable with standard tools.
//!
//! The kernel folds eight input bytes per step through eight 256-entry
//! tables (8 KiB, built at compile time): table `k` maps a byte to the
//! CRC contribution it makes when followed by `k` more bytes, so the
//! eight lookups of one step are independent and the loop runs several
//! times faster than the one-table, byte-at-a-time form. Inputs shorter
//! than eight bytes, and the tail of longer ones, take the bytewise
//! path through table 0, which *is* the classic table.

const POLY: u32 = 0xEDB8_8320;

/// The slicing tables. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][b]` advances `TABLES[k - 1][b]` by one zero byte.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// Advances the raw (pre-inverted) CRC register over `data`.
fn advance(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let v = u64::from_le_bytes(block.try_into().expect("8-byte block")) ^ u64::from(crc);
        crc = t[7][v as u8 as usize]
            ^ t[6][(v >> 8) as u8 as usize]
            ^ t[5][(v >> 16) as u8 as usize]
            ^ t[4][(v >> 24) as u8 as usize]
            ^ t[3][(v >> 32) as u8 as usize]
            ^ t[2][(v >> 40) as u8 as usize]
            ^ t[1][(v >> 48) as u8 as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// The IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends a finished CRC-32 over more bytes: `crc32_update(crc32(a), b)`
/// equals `crc32` of `a` followed by `b`, so a checksum over several
/// buffers needs no copy into one. `crc32_update(0, b)` is `crc32(b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    !advance(!crc, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, byte-at-a-time CRC the slicing kernel replaces.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = ickp_prng::Prng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"incremental checkpointing".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn bytewise_table_is_the_classic_one() {
        // Spot values of the published IEEE table.
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_kernel_matches_bytewise_at_every_length_and_offset() {
        let buf = bytes(64 + 8, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn slicing_kernel_matches_bytewise_on_a_large_buffer() {
        let data = bytes(1 << 20, 42);
        assert_eq!(crc32(&data), bytewise(&data));
    }

    #[test]
    fn update_at_every_split_equals_one_shot() {
        let data = bytes(40, 7);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {split}");
        }
        assert_eq!(crc32_update(0, &data), whole);
        assert_eq!(crc32_update(whole, b""), whole);
    }
}
