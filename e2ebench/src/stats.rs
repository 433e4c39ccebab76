//! Latency histograms, small-sample quantiles, and the model-output digest.

/// Sub-buckets per octave: values are resolved to 1/128 of their
/// magnitude (≈0.8%), and quantiles interpolate inside the bucket.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const HALF: u64 = SUB / 2;

/// A log-linear latency histogram (ns). Exact below 256 ns, 0.8%
/// resolution above; constant memory however many samples a run takes.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; (SUB + 54 * HALF) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        let bits = 64 - v.leading_zeros();
        if bits <= SUB_BITS {
            return v as usize;
        }
        let shift = bits - SUB_BITS;
        let mantissa = v >> shift; // in [HALF, SUB)
        (SUB + (shift as u64 - 1) * HALF + (mantissa - HALF)) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = (i - SUB) / HALF + 1;
        let mantissa = (i - SUB) % HALF + HALF;
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Adds every sample of `o`.
    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (nearest rank, interpolated inside its bucket);
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, width) = Self::bucket(i);
                let within = (rank - seen) as f64 - 0.5;
                return lo + width * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank never exceeds the sample count")
    }
}

/// The `q`-quantile of a small raw sample set (nearest rank); 0 when empty.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// The median of `v` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over named u64 fields: the deterministic model-output digest.
#[derive(Default)]
pub struct Digest {
    fields: Vec<(&'static str, u64)>,
}

impl Digest {
    /// Adds one field.
    pub fn add(&mut self, name: &'static str, v: u64) {
        self.fields.push((name, v));
    }

    /// The 64-bit digest of every field, in insertion order.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, v) in &self.fields {
            for b in name.bytes().chain(v.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// `{"digest":"…","fields":{…}}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"digest\":\"{:016x}\",\"fields\":{{{}}}}}",
            self.hash(),
            fields.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [0u64, 1, 1023, 1024, 1500, 65_535, 1 << 20, 123_456_789] {
            let (lo, w) = Hist::bucket(Hist::index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + w, "{v}: [{lo}, +{w})");
        }
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.003, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.003, "{p99}");
        assert_eq!(quantile(&[5, 1, 3], 0.5), 3.0);
    }
}
