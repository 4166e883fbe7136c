//! Percentiles over exact samples and a fixed-memory latency histogram for
//! the reader, which makes millions of calls per run.

/// Nearest-rank percentile of already-sorted samples: the smallest sample
/// such that at least `p` percent of all samples are `≤` it. `p` is in
/// `(0, 100]`; an empty slice has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Sorts a copy and takes its nearest-rank percentile.
pub fn percentile_of(samples: &[f64], p: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, p)
}

/// The middle sample, or the mean of the two middle ones.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nanosecond values below this land in exact one-nanosecond buckets.
const EXACT: u64 = 128;
/// Sub-buckets per power of two above [`EXACT`] (≤ 1.6% relative width).
const SUB_BITS: u32 = 6;
const OCTAVES: usize = 40;

/// A log-linear histogram of nanosecond durations with fixed memory.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: vec![0; EXACT as usize + (OCTAVES << SUB_BITS)], total: 0, sum_ns: 0 }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (ns >> shift) as usize & ((1 << SUB_BITS) - 1);
        let octave = (exp - EXACT.trailing_zeros()) as usize;
        (EXACT as usize + (octave << SUB_BITS) + sub)
            .min(EXACT as usize + (OCTAVES << SUB_BITS) - 1)
    }

    /// Lower edge and width of bucket `i`, in nanoseconds.
    fn bucket(i: usize) -> (f64, f64) {
        if i < EXACT as usize {
            return (i as f64, 1.0);
        }
        let octave = (i - EXACT as usize) >> SUB_BITS;
        let sub = (i - EXACT as usize) & ((1 << SUB_BITS) - 1);
        let shift = octave as u32 + EXACT.trailing_zeros() - SUB_BITS;
        (((1u64 << SUB_BITS) + sub as u64) as f64 * (1u64 << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Nearest-rank percentile in nanoseconds, placed inside its bucket by
    /// the rank's position among the bucket's samples.
    pub fn percentile_ns(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().clamp(1.0, self.total as f64) as u64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lo, width) = Self::bucket(i);
                return Some(lo + width * ((rank - below) as f64 - 0.5) / c as f64);
            }
            below += c;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_round_trip() {
        for ns in [0, 1, 127, 128, 129, 200, 1000, 12_345, 1 << 30] {
            let (lo, width) = Hist::bucket(Hist::index(ns));
            assert!(lo <= ns as f64 && (ns as f64) < lo + width, "{ns} in [{lo}, +{width})");
            assert!(width <= 1.0_f64.max(ns as f64 / 64.0));
        }
    }
}
