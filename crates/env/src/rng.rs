//! Deterministic, random-access noise for environment models.
//!
//! Environment processes in this crate are *counter-based*: every random
//! draw is a pure function of `(seed, stream, counter)`, computed with the
//! SplitMix64 mixer. This makes environment traces
//!
//! * **reproducible** — the same seed always yields the same trace, on every
//!   platform, independent of query order;
//! * **random-access** — `conditions(t)` can be evaluated for any `t`
//!   without stepping through earlier instants, which the simulation kernel
//!   and the parameter-sweep benches both rely on.

/// A stream identifier separating independent noise channels derived from
/// one scenario seed (cloud cover, gusts, occupancy, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u64);

impl StreamId {
    /// Cloud-cover process.
    pub const CLOUDS: Self = Self(1);
    /// Wind mean-level process.
    pub const WIND_MEAN: Self = Self(2);
    /// Wind gust process.
    pub const WIND_GUST: Self = Self(3);
    /// Indoor occupancy / lighting jitter.
    pub const OCCUPANCY: Self = Self(4);
    /// Vibration amplitude jitter.
    pub const VIBRATION: Self = Self(5);
    /// RF burst process.
    pub const RF: Self = Self(6);
    /// Water-flow schedule jitter.
    pub const WATER: Self = Self(7);
    /// Ambient-temperature weather deviation.
    pub const WEATHER_TEMP: Self = Self(8);
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based noise source: a pure function from
/// `(seed, stream, counter)` to uniform variates.
///
/// # Examples
///
/// ```
/// use mseh_env::rng::{Noise, StreamId};
///
/// let noise = Noise::new(42);
/// let a = noise.uniform(StreamId::CLOUDS, 7);
/// let b = noise.uniform(StreamId::CLOUDS, 7);
/// assert_eq!(a, b); // random access is deterministic
/// assert!((0.0..1.0).contains(&a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Noise {
    seed: u64,
}

impl Noise {
    /// Creates a noise source from a scenario seed.
    pub const fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The scenario seed.
    pub const fn seed(self) -> u64 {
        self.seed
    }

    /// Raw 64-bit draw for `(stream, counter)`.
    #[inline]
    pub fn bits(self, stream: StreamId, counter: u64) -> u64 {
        // Two mixing rounds decorrelate the three inputs.
        splitmix64(splitmix64(self.seed ^ stream.0.rotate_left(17)) ^ counter)
    }

    /// Uniform variate in `[0, 1)`.
    #[inline]
    pub fn uniform(self, stream: StreamId, counter: u64) -> f64 {
        // 53 top bits → uniform double in [0, 1).
        (self.bits(stream, counter) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform variate in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(self, stream: StreamId, counter: u64, lo: f64, hi: f64) -> f64 {
        lo + self.uniform(stream, counter) * (hi - lo)
    }

    /// Standard normal variate (Box–Muller over two decorrelated uniforms).
    #[inline]
    pub fn normal(self, stream: StreamId, counter: u64) -> f64 {
        // Use disjoint counter halves for the two uniforms.
        let u1 = self.uniform(stream, counter.wrapping_mul(2)).max(1e-300);
        let u2 = self.uniform(stream, counter.wrapping_mul(2).wrapping_add(1));
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Weibull variate with scale `lambda` and shape `k` (inverse-CDF
    /// method). The canonical distribution of wind speeds.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` or `k` is not positive.
    #[inline]
    pub fn weibull(self, stream: StreamId, counter: u64, lambda: f64, k: f64) -> f64 {
        assert!(
            lambda > 0.0 && k > 0.0,
            "weibull parameters must be positive"
        );
        let u = self.uniform(stream, counter);
        lambda * (-(1.0 - u).ln()).powf(1.0 / k)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(self, stream: StreamId, counter: u64, p: f64) -> bool {
        self.uniform(stream, counter) < p
    }
}

/// Smoothstep interpolation weight for blending piecewise-constant bucket
/// values into a continuous process: maps `x ∈ [0,1]` to `[0,1]` with zero
/// slope at both ends.
#[inline]
pub fn smoothstep(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    x * x * (3.0 - 2.0 * x)
}

/// A smoothly-varying value derived from per-bucket noise: buckets of width
/// `bucket_s` get independent draws via `draw(counter)`, blended with
/// [`smoothstep`] so the process is continuous in time.
pub fn bucket_blend(time_s: f64, bucket_s: f64, draw: impl Fn(u64) -> f64) -> f64 {
    BlendCursor::default().blend(time_s, bucket_s, draw)
}

/// The last bucket one blend site looked at, and that bucket's two draws.
///
/// A batch of instants that walks forward in time mostly stays in one
/// bucket or steps into the next, so the cursor reuses what it drew: both
/// draws in the same bucket, the old upper draw as the new lower one in
/// the next bucket. Any other move draws both afresh. Every draw is a pure
/// function of its bucket, so a reused draw has the same bits as a fresh
/// one. A cursor is keyed by bucket index alone: one cursor serves one
/// blend site (one bucket width, one `draw`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlendCursor {
    /// The bucket whose lower and upper draws `lo` and `hi` hold.
    bucket: Option<u64>,
    lo: f64,
    hi: f64,
}

impl BlendCursor {
    /// [`bucket_blend`] at `time_s`, drawing only what the cursor does not
    /// already hold.
    pub(crate) fn blend(&mut self, time_s: f64, bucket_s: f64, draw: impl Fn(u64) -> f64) -> f64 {
        let pos = time_s / bucket_s;
        let idx = pos.floor();
        let frac = pos - idx;
        let idx = idx as i64 as u64; // negative times wrap; simulation time is non-negative
        match self.bucket {
            Some(held) if held == idx => {}
            Some(held) if held.wrapping_add(1) == idx => {
                self.lo = self.hi;
                self.hi = draw(idx.wrapping_add(1));
            }
            _ => {
                self.lo = draw(idx);
                self.hi = draw(idx.wrapping_add(1));
            }
        }
        self.bucket = Some(idx);
        self.lo + smoothstep(frac) * (self.hi - self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_stream_separated() {
        let n = Noise::new(7);
        assert_eq!(n.bits(StreamId::CLOUDS, 5), n.bits(StreamId::CLOUDS, 5));
        assert_ne!(n.bits(StreamId::CLOUDS, 5), n.bits(StreamId::WIND_GUST, 5));
        assert_ne!(n.bits(StreamId::CLOUDS, 5), n.bits(StreamId::CLOUDS, 6));
        assert_ne!(
            Noise::new(1).bits(StreamId::RF, 0),
            Noise::new(2).bits(StreamId::RF, 0)
        );
    }

    #[test]
    fn uniform_range_and_mean() {
        let n = Noise::new(123);
        let mut sum = 0.0;
        for c in 0..10_000 {
            let u = n.uniform(StreamId::OCCUPANCY, c);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let n = Noise::new(99);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        const COUNT: u64 = 20_000;
        for c in 0..COUNT {
            let x = n.normal(StreamId::VIBRATION, c);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / COUNT as f64;
        let var = sumsq / COUNT as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn weibull_mean_matches_theory() {
        // For k=2 (Rayleigh), mean = λ·Γ(1.5) = λ·√π/2.
        let n = Noise::new(4);
        let lambda = 5.0;
        let mut sum = 0.0;
        const COUNT: u64 = 20_000;
        for c in 0..COUNT {
            sum += n.weibull(StreamId::WIND_GUST, c, lambda, 2.0);
        }
        let mean = sum / COUNT as f64;
        let expected = lambda * core::f64::consts::PI.sqrt() / 2.0;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "weibull parameters")]
    fn weibull_rejects_nonpositive() {
        Noise::new(0).weibull(StreamId::WIND_GUST, 0, 0.0, 2.0);
    }

    #[test]
    fn chance_frequency() {
        let n = Noise::new(11);
        let hits = (0..10_000)
            .filter(|&c| n.chance(StreamId::RF, c, 0.25))
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn smoothstep_endpoints_and_monotonicity() {
        assert_eq!(smoothstep(0.0), 0.0);
        assert_eq!(smoothstep(1.0), 1.0);
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(2.0), 1.0);
        let mut prev = 0.0;
        for i in 1..=100 {
            let y = smoothstep(i as f64 / 100.0);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn bucket_blend_is_continuous() {
        let n = Noise::new(21);
        let draw = |c: u64| n.uniform(StreamId::CLOUDS, c);
        let mut prev = bucket_blend(0.0, 60.0, draw);
        for i in 1..6000 {
            let t = i as f64 * 0.5;
            let v = bucket_blend(t, 60.0, draw);
            assert!((v - prev).abs() < 0.05, "jump at t={t}: {prev} -> {v}");
            prev = v;
        }
    }

    #[test]
    fn cursor_blend_matches_bucket_blend_bit_for_bit() {
        let n = Noise::new(31);
        let draw = |c: u64| n.normal(StreamId::WEATHER_TEMP, c);
        // Stays in bucket 0, steps into 1 and 2, lands on an edge, jumps
        // ahead, goes back, repeats an instant, and wraps below zero.
        let times = [
            0.0, 12.5, 59.9, 60.0, 61.0, 119.0, 120.0, 120.0, 3_000.0, 3_059.0, 30.0, 0.0, -1.0,
            -0.0, 7.3e6, 1e9,
        ];
        let mut cursor = BlendCursor::default();
        for &t in &times {
            let fresh = bucket_blend(t, 60.0, draw);
            assert_eq!(
                cursor.blend(t, 60.0, draw).to_bits(),
                fresh.to_bits(),
                "t={t}"
            );
        }
    }

    #[test]
    fn cursor_draws_only_what_it_does_not_hold() {
        use core::cell::Cell;
        let calls = Cell::new(0u32);
        let draw = |c: u64| {
            calls.set(calls.get() + 1);
            c as f64
        };
        let mut cursor = BlendCursor::default();
        let mut drawn = |t: f64| {
            let before = calls.get();
            cursor.blend(t, 60.0, draw);
            calls.get() - before
        };
        assert_eq!(drawn(10.0), 2, "an empty cursor draws both ends");
        assert_eq!(drawn(50.0), 0, "same bucket");
        assert_eq!(drawn(70.0), 1, "next bucket");
        assert_eq!(drawn(300.0), 2, "jump ahead");
        assert_eq!(drawn(10.0), 2, "go back");
    }

    #[test]
    fn bucket_blend_hits_bucket_values_at_edges() {
        let n = Noise::new(21);
        let draw = |c: u64| n.uniform(StreamId::CLOUDS, c);
        let at_edge = bucket_blend(120.0, 60.0, draw);
        assert!((at_edge - draw(2)).abs() < 1e-12);
    }
}
