//! Inputs and the answer checker.
//!
//! Every caller (an in-process worker or a TCP connection) owns a
//! disjoint slice of the key space and is the only writer of its keys,
//! so a sequential model of its own operations predicts every answer
//! exactly: GET returns the model's value, PUT and DEL return the
//! value they replaced. A wrong answer or an error is counted, never
//! tolerated; a run with any is reported as incorrect.

use ff_store::{KvOp, StoreError, KV_MAX};

/// SplitMix64: a small, seedable generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Operation mix in percent: GETs, then PUTs; DELs take the rest.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u64,
    pub put: u64,
}

/// The keys one caller owns: `owner, owner + stride, …` below `keys`.
#[derive(Clone, Copy, Debug)]
pub struct KeySlice {
    pub owner: u32,
    pub stride: u32,
    pub keys: u32,
}

impl KeySlice {
    /// Slice `owner` of `stride` interleaved slices of `0..keys`.
    pub fn new(owner: usize, stride: usize, keys: usize) -> Self {
        KeySlice {
            owner: owner as u32,
            stride: stride as u32,
            keys: keys as u32,
        }
    }

    fn len(&self) -> u64 {
        ((self.keys - self.owner).div_ceil(self.stride)) as u64
    }

    /// A uniform key of this slice.
    pub fn pick(&self, rng: &mut Rng) -> u32 {
        self.owner + self.stride * rng.below(self.len()) as u32
    }

    /// Every key of this slice.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = u32> {
        (self.owner..self.keys).step_by(self.stride as usize)
    }
}

/// Draw one operation of `mix` on a key of `slice`.
pub fn draw(rng: &mut Rng, mix: Mix, slice: KeySlice) -> KvOp {
    let key = slice.pick(rng);
    let roll = rng.below(100);
    if roll < mix.get {
        KvOp::Get(key)
    } else if roll < mix.get + mix.put {
        KvOp::Put(key, rng.below(KV_MAX as u64 + 1) as u32)
    } else {
        KvOp::Del(key)
    }
}

/// A caller's model of its own keys plus its tally of bad answers.
pub struct Checker {
    model: Vec<Option<u32>>,
    /// Answers that differ from the model.
    pub wrong: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// The first problem seen, for the report.
    pub first: Option<String>,
}

impl Checker {
    /// A checker over keys `0..keys`, all absent.
    pub fn new(keys: usize) -> Self {
        Checker::from_model(vec![None; keys])
    }

    /// A checker starting from a known state (`model[key]`).
    pub fn from_model(model: Vec<Option<u32>>) -> Self {
        Checker {
            model,
            wrong: 0,
            errors: 0,
            first: None,
        }
    }

    /// Apply `op` to the model and return the answer the store owes.
    pub fn apply(&mut self, op: KvOp) -> Option<u32> {
        match op {
            KvOp::Get(k) => self.model[k as usize],
            KvOp::Put(k, v) => self.model[k as usize].replace(v),
            KvOp::Del(k) => self.model[k as usize].take(),
        }
    }

    /// Compare an answer to what [`Checker::apply`] predicted.
    pub fn check(&mut self, op: KvOp, want: Option<u32>, got: Option<u32>) {
        if want != got {
            self.wrong += 1;
            self.first
                .get_or_insert_with(|| format!("{op:?} answered {got:?}, expected {want:?}"));
        }
    }

    /// Count an operation that failed outright.
    pub fn error(&mut self, op: &str, e: &StoreError) {
        self.errors += 1;
        self.first
            .get_or_insert_with(|| format!("{op} failed: {e}"));
    }

    /// Wrong answers plus errors.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors
    }

    /// The whole model, indexed by key.
    pub fn into_model(self) -> Vec<Option<u32>> {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_partition_the_key_space() {
        let mut seen = vec![0u8; 4096];
        for owner in 0..3 {
            for k in KeySlice::new(owner, 3, 4096).iter() {
                seen[k as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
        let slice = KeySlice::new(2, 3, 4096);
        let mut rng = Rng::new(1);
        assert!((0..10_000).all(|_| slice.pick(&mut rng) % 3 == 2));
    }

    #[test]
    fn the_model_predicts_previous_values() {
        let mut c = Checker::new(8);
        assert_eq!(c.apply(KvOp::Put(3, 9)), None);
        assert_eq!(c.apply(KvOp::Get(3)), Some(9));
        assert_eq!(c.apply(KvOp::Put(3, 4)), Some(9));
        assert_eq!(c.apply(KvOp::Del(3)), Some(4));
        assert_eq!(c.apply(KvOp::Get(3)), None);
        c.check(KvOp::Get(3), None, Some(1));
        assert_eq!((c.wrong, c.errors), (1, 0));
    }
}
