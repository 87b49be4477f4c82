//! popbench's own load generator and oracle.
//!
//! Updates are key-partitioned: client `t` inserts and removes only keys
//! `≡ t (mod CLIENTS)`, while reads draw from the whole range. Each client
//! therefore knows exactly which of *its* keys are present, whatever the
//! interleaving, and can check the boolean result of every insert, every
//! remove and every contains on an own key in O(1). The streams depend on
//! the seed alone, so the same seed gives the same inputs and the same
//! expected outcomes.

/// Client threads per trial (the host has two CPUs; see `main`).
pub const CLIENTS: usize = 2;

/// xorshift64* — small, fast, and good enough for key draws.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 scramble so that nearby seeds give unrelated streams
        // and the state is never zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ for
    /// the ranges used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 32) * n) >> 32).min(n - 1)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Contains,
    Insert,
    Remove,
}

/// Operation mix in percent; the remainder after `contains` and `insert` is
/// `remove`.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub contains: u32,
    pub insert: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

/// One client's operation stream.
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    key_range: u64,
    client: u64,
}

impl OpStream {
    pub fn new(seed: u64, client: usize, key_range: u64, mix: Mix) -> OpStream {
        assert!(client < CLIENTS && key_range >= 2 * CLIENTS as u64);
        assert!(mix.contains + mix.insert <= 100);
        OpStream {
            rng: Rng::new(
                seed.wrapping_mul(CLIENTS as u64)
                    .wrapping_add(client as u64),
            ),
            mix,
            key_range,
            client: client as u64,
        }
    }

    fn own_key(&mut self) -> u64 {
        self.rng.below(self.key_range / CLIENTS as u64) * CLIENTS as u64 + self.client
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100) as u32;
        if roll < self.mix.contains {
            Op {
                kind: OpKind::Contains,
                key: self.rng.below(self.key_range),
            }
        } else {
            let kind = if roll < self.mix.contains + self.mix.insert {
                OpKind::Insert
            } else {
                OpKind::Remove
            };
            Op {
                kind,
                key: self.own_key(),
            }
        }
    }
}

/// Exact model of one client's own keys.
pub struct Oracle {
    present: Vec<u64>,
    client: u64,
    /// Operations whose result the oracle could check and found wrong.
    pub mismatches: u64,
    /// Every operation passed through [`Oracle::check`].
    pub attempted: u64,
    /// Rolling hash of `(op, key, expected)`; equal seeds give equal hashes.
    pub digest: u64,
}

impl Oracle {
    pub fn new(client: usize, key_range: u64) -> Oracle {
        let own = key_range.div_ceil(CLIENTS as u64) as usize;
        Oracle {
            present: vec![0; own.div_ceil(64)],
            client: client as u64,
            mismatches: 0,
            attempted: 0,
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn owns(&self, key: u64) -> bool {
        key % CLIENTS as u64 == self.client
    }

    /// Whether this client's model holds `key` (false for foreign keys).
    pub fn holds(&self, key: u64) -> bool {
        let i = (key / CLIENTS as u64) as usize;
        self.owns(key) && (self.present[i / 64] >> (i % 64)) & 1 == 1
    }

    /// What the structure must answer for `op`, or `None` when the answer
    /// depends on the other client (a contains on a foreign key). Applies
    /// the operation to the model.
    #[inline]
    pub fn expect(&mut self, op: Op) -> Option<bool> {
        let i = (op.key / CLIENTS as u64) as usize;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let expected = match op.kind {
            OpKind::Contains if !self.owns(op.key) => None,
            OpKind::Contains => Some(self.present[word] & bit != 0),
            OpKind::Insert => {
                let absent = self.present[word] & bit == 0;
                self.present[word] |= bit;
                Some(absent)
            }
            OpKind::Remove => {
                let held = self.present[word] & bit != 0;
                self.present[word] &= !bit;
                Some(held)
            }
        };
        let code = ((op.kind as u64) << 2) | expected.map_or(2, u64::from);
        self.digest = (self.digest ^ op.key ^ (code << 56)).wrapping_mul(0x0000_0100_0000_01B3);
        expected
    }

    /// Checks the structure's answer for `op` against the model and
    /// returns what the model expected.
    #[inline]
    pub fn check(&mut self, op: Op, answer: bool) -> Option<bool> {
        self.attempted += 1;
        let expected = self.expect(op);
        if expected.is_some_and(|e| e != answer) {
            self.mismatches += 1;
        }
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        contains: 50,
        insert: 25,
    };

    fn digest(seed: u64, client: usize, ops: usize) -> u64 {
        let mut stream = OpStream::new(seed, client, 1000, MIX);
        let mut oracle = Oracle::new(client, 1000);
        for _ in 0..ops {
            let op = stream.next_op();
            oracle.expect(op);
        }
        oracle.digest
    }

    #[test]
    fn same_seed_same_stream_and_outcomes() {
        assert_eq!(digest(42, 0, 10_000), digest(42, 0, 10_000));
        assert_ne!(digest(42, 0, 10_000), digest(43, 0, 10_000));
        assert_ne!(digest(42, 0, 10_000), digest(42, 1, 10_000));
    }

    #[test]
    fn updates_stay_in_the_clients_partition_and_follow_the_mix() {
        for client in 0..CLIENTS {
            let mut stream = OpStream::new(7, client, 1000, MIX);
            let mut counts = [0u32; 3];
            for _ in 0..100_000 {
                let op = stream.next_op();
                assert!(op.key < 1000);
                counts[op.kind as usize] += 1;
                if op.kind != OpKind::Contains {
                    assert_eq!(op.key % CLIENTS as u64, client as u64);
                }
            }
            assert!((49_000..51_000).contains(&counts[0]), "{counts:?}");
            assert!((24_000..26_000).contains(&counts[1]), "{counts:?}");
            assert!((24_000..26_000).contains(&counts[2]), "{counts:?}");
        }
    }

    #[test]
    fn oracle_models_a_set() {
        let mut o = Oracle::new(1, 10);
        let op = |kind, key| Op { kind, key };
        assert_eq!(o.expect(op(OpKind::Contains, 3)), Some(false));
        assert_eq!(o.expect(op(OpKind::Insert, 3)), Some(true));
        assert_eq!(o.expect(op(OpKind::Insert, 3)), Some(false));
        assert_eq!(o.expect(op(OpKind::Contains, 3)), Some(true));
        assert_eq!(o.expect(op(OpKind::Contains, 4)), None, "foreign key");
        assert!(o.holds(3) && !o.holds(4) && !o.holds(5));
        assert_eq!(o.expect(op(OpKind::Remove, 3)), Some(true));
        assert_eq!(o.expect(op(OpKind::Remove, 3)), Some(false));
        o.check(op(OpKind::Insert, 9), true);
        o.check(op(OpKind::Insert, 9), true); // a lie: 9 is already there
        assert_eq!((o.attempted, o.mismatches), (2, 1));
    }

    #[test]
    fn draws_cover_the_range_uniformly() {
        let mut rng = Rng::new(1);
        let mut hits = [0u32; 10];
        for _ in 0..100_000 {
            hits[rng.below(10) as usize] += 1;
        }
        assert!(
            hits.iter().all(|&h| (9_000..11_000).contains(&h)),
            "{hits:?}"
        );
    }
}
