//! CRC-32 (IEEE 802.3 polynomial), table-driven. Guards every WAL record
//! so recovery can detect a torn or corrupted tail.

const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        t
    })
}

/// CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Streaming CRC-32: feed bytes incrementally, then [`finalize`].
/// Lets an encoder fold checksumming into its single append pass
/// instead of re-scanning the finished buffer.
///
/// [`finalize`]: Crc32::finalize
#[derive(Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0u32 }
    }

    /// Absorb more bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = table();
        let mut c = self.state;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything absorbed so far. The state is not
    /// consumed: more `update` calls may follow.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// `b[i] = (i·31 + 7) as u8`: every byte value, no period under 256.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn pinned_values_across_block_boundaries() {
        // zlib's values, confirmed against the byte-at-a-time kernel
        // this one replaced. A WAL or a frame written by any earlier
        // build must keep verifying, so these never change.
        const PINNED: [(usize, u32); 12] = [
            (0, 0x0000_0000),
            (1, 0x4c66_7a2e),
            (15, 0x8f77_fabb),
            (16, 0x0636_a895),
            (17, 0x71b8_d951),
            (31, 0x45d6_9b08),
            (32, 0x4923_fba6),
            (33, 0xd390_bd70),
            (255, 0x50a2_2b05),
            (4_096, 0x5d1c_4ee3),
            (65_537, 0x97a6_5d31),
            (262_181, 0x6667_433f),
        ];
        for (len, want) in PINNED {
            assert_eq!(crc32(&pattern(len)), want, "len {len}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32(data));
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
