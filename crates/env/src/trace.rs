//! Time-series traces: recording model output, CSV round-tripping, and
//! replaying recorded data as an environment source.

use std::fmt::Write as _;

use mseh_units::Seconds;

/// A sampled scalar time series with uniform or non-uniform time stamps.
///
/// Used both to record simulation outputs and to replay measured data
/// (e.g. an irradiance trace from a deployment) through the models.
///
/// # Examples
///
/// ```
/// use mseh_env::Trace;
/// use mseh_units::Seconds;
///
/// let mut trace = Trace::new("irradiance");
/// trace.push(Seconds::new(0.0), 100.0);
/// trace.push(Seconds::new(10.0), 200.0);
/// assert_eq!(trace.sample(Seconds::new(5.0)), 150.0); // linear interp
/// assert_eq!(trace.sample(Seconds::new(50.0)), 200.0); // clamped
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    name: String,
    samples: Vec<(f64, f64)>,
}

/// The error returned when parsing a CSV trace fails.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseTraceError {
    line: usize,
    reason: String,
}

impl core::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid trace at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Creates an empty trace with a channel name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Creates an empty trace pre-sized for `capacity` samples, so a
    /// recorder that knows its step count up front (the simulation
    /// kernel does) never reallocates mid-run.
    ///
    /// # Examples
    ///
    /// ```
    /// use mseh_env::Trace;
    ///
    /// let trace = Trace::with_capacity("store_voltage_v", 10_080);
    /// assert!(trace.is_empty());
    /// ```
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            samples: Vec::with_capacity(capacity),
        }
    }

    /// The channel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last appended sample (traces are
    /// time-ordered by construction).
    pub fn push(&mut self, t: Seconds, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(
                t.value() >= last,
                "trace samples must be time-ordered: {} < {last}",
                t.value()
            );
        }
        self.samples.push((t.value(), value));
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        self.samples.iter().map(|&(t, v)| (Seconds::new(t), v))
    }

    /// Linearly-interpolated value at `t`, clamped to the first/last sample
    /// outside the recorded span.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn sample(&self, t: Seconds) -> f64 {
        assert!(!self.samples.is_empty(), "cannot sample an empty trace");
        let t = t.value();
        match self
            .samples
            .binary_search_by(|&(st, _)| st.partial_cmp(&t).expect("NaN trace time"))
        {
            Ok(i) => self.samples[i].1,
            Err(0) => self.samples[0].1,
            Err(i) if i == self.samples.len() => self.samples[i - 1].1,
            Err(i) => {
                let (t0, v0) = self.samples[i - 1];
                let (t1, v1) = self.samples[i];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }

    /// Mean value weighted by the time intervals between samples
    /// (trapezoidal); equals the arithmetic mean for uniform sampling.
    ///
    /// Returns 0 for an empty trace, the single value for a one-sample
    /// trace, and the arithmetic mean of the samples when every
    /// timestamp coincides (a zero-span trace has no intervals to
    /// weight by).
    pub fn time_weighted_mean(&self) -> f64 {
        let (&(first_t, first_v), rest) = match self.samples.split_first() {
            Some(parts) => parts,
            None => return 0.0,
        };
        let last_t = match rest.last() {
            Some(&(t, _)) => t,
            None => return first_v,
        };
        let span = last_t - first_t;
        if span == 0.0 {
            // All timestamps coincide: fall back to the unweighted mean.
            let sum: f64 = self.samples.iter().map(|&(_, v)| v).sum();
            return sum / self.samples.len() as f64;
        }
        let mut area = 0.0;
        for pair in self.samples.windows(2) {
            let (t0, v0) = pair[0];
            let (t1, v1) = pair[1];
            area += 0.5 * (v0 + v1) * (t1 - t0);
        }
        area / span
    }

    /// Maximum sample value (NaN-free traces assumed).
    ///
    /// Returns `None` for an empty trace.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Minimum sample value.
    ///
    /// Returns `None` for an empty trace.
    pub fn min(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.min(v))))
    }

    /// Resamples onto a uniform grid of `n` points spanning the recorded
    /// interval (linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `n < 2`.
    pub fn resample(&self, n: usize) -> Trace {
        assert!(!self.samples.is_empty(), "cannot resample an empty trace");
        assert!(n >= 2, "need at least two points");
        let t0 = self.samples[0].0;
        let t1 = self.samples.last().expect("non-empty").0;
        let mut out = Trace::new(self.name.clone());
        for i in 0..n {
            let t = t0 + (t1 - t0) * i as f64 / (n - 1) as f64;
            out.push(Seconds::new(t), self.sample(Seconds::new(t)));
        }
        out
    }

    /// Sample standard deviation of the values (0 for fewer than two
    /// samples).
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().map(|&(_, v)| v).sum::<f64>() / n;
        let var = self
            .samples
            .iter()
            .map(|&(_, v)| (v - mean) * (v - mean))
            .sum::<f64>()
            / (n - 1.0);
        var.sqrt()
    }

    /// The `q`-quantile of the values (nearest-rank; `q` in `[0, 1]`).
    ///
    /// Returns `None` for an empty trace.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut values: Vec<f64> = self.samples.iter().map(|&(_, v)| v).collect();
        values.sort_by(f64::total_cmp);
        let idx = ((values.len() - 1) as f64 * q).round() as usize;
        Some(values[idx])
    }

    /// Serializes to two-column CSV (`time_s,value`) with a header line.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 24 + 32);
        let _ = writeln!(out, "time_s,{}", self.name);
        for &(t, v) in &self.samples {
            let _ = writeln!(out, "{t},{v}");
        }
        out
    }

    /// Parses a two-column CSV produced by [`Trace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] when a line is malformed, a number fails
    /// to parse or is not finite, timestamps are out of order, or no line
    /// holds a sample, so every parsed trace can be
    /// [sampled](Trace::sample).
    pub fn from_csv(text: &str) -> Result<Self, ParseTraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(ParseTraceError {
            line: 1,
            reason: "empty input".into(),
        })?;
        let name = header
            .split(',')
            .nth(1)
            .ok_or(ParseTraceError {
                line: 1,
                reason: "header must be `time_s,<name>`".into(),
            })?
            .trim()
            .to_owned();
        let mut trace = Trace::new(name);
        let mut last_line = 1;
        for (idx, line) in lines {
            last_line = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.splitn(2, ',');
            let parse = |s: Option<&str>| -> Result<f64, ParseTraceError> {
                s.ok_or(ParseTraceError {
                    line: idx + 1,
                    reason: "expected two comma-separated fields".into(),
                })?
                .trim()
                .parse()
                .map_err(|e| ParseTraceError {
                    line: idx + 1,
                    reason: format!("bad number: {e}"),
                })
            };
            let t = parse(parts.next())?;
            let v = parse(parts.next())?;
            if !t.is_finite() || !v.is_finite() {
                return Err(ParseTraceError {
                    line: idx + 1,
                    reason: format!("sample ({t}, {v}) is not finite"),
                });
            }
            if let Some(&(last, _)) = trace.samples.last() {
                if t < last {
                    return Err(ParseTraceError {
                        line: idx + 1,
                        reason: format!("timestamp {t} before previous {last}"),
                    });
                }
            }
            trace.samples.push((t, v));
        }
        if trace.is_empty() {
            return Err(ParseTraceError {
                line: last_line + 1,
                reason: "no samples: expected `time_s,value` lines after the header".into(),
            });
        }
        Ok(trace)
    }
}

impl Extend<(Seconds, f64)> for Trace {
    fn extend<I: IntoIterator<Item = (Seconds, f64)>>(&mut self, iter: I) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Trace {
        let mut t = Trace::new("ramp");
        t.push(Seconds::new(0.0), 0.0);
        t.push(Seconds::new(10.0), 100.0);
        t.push(Seconds::new(20.0), 50.0);
        t
    }

    #[test]
    fn interpolation_and_clamping() {
        let t = ramp();
        assert_eq!(t.sample(Seconds::new(0.0)), 0.0);
        assert_eq!(t.sample(Seconds::new(5.0)), 50.0);
        assert_eq!(t.sample(Seconds::new(10.0)), 100.0);
        assert_eq!(t.sample(Seconds::new(15.0)), 75.0);
        assert_eq!(t.sample(Seconds::new(-5.0)), 0.0);
        assert_eq!(t.sample(Seconds::new(99.0)), 50.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order_push() {
        let mut t = ramp();
        t.push(Seconds::new(5.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn sampling_empty_panics() {
        Trace::new("x").sample(Seconds::ZERO);
    }

    #[test]
    fn statistics() {
        let t = ramp();
        assert_eq!(t.max(), Some(100.0));
        assert_eq!(t.min(), Some(0.0));
        // Trapezoid: (0+100)/2·10 + (100+50)/2·10 = 500 + 750 = 1250 over 20 s.
        assert!((t.time_weighted_mean() - 62.5).abs() < 1e-12);
        assert_eq!(Trace::new("e").max(), None);
        assert_eq!(Trace::new("e").time_weighted_mean(), 0.0);
    }

    #[test]
    fn zero_span_mean_is_arithmetic_mean() {
        // All samples at the same instant: no intervals to weight by, so
        // the mean must be the plain average of *all* samples, not the
        // first one.
        let mut t = Trace::new("burst");
        t.push(Seconds::new(5.0), 10.0);
        t.push(Seconds::new(5.0), 20.0);
        t.push(Seconds::new(5.0), 60.0);
        assert!((t.time_weighted_mean() - 30.0).abs() < 1e-12);
        // Two coincident samples likewise.
        let mut two = Trace::new("pair");
        two.push(Seconds::ZERO, 1.0);
        two.push(Seconds::ZERO, 3.0);
        assert!((two.time_weighted_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_roundtrip() {
        let t = ramp();
        let csv = t.to_csv();
        assert!(csv.starts_with("time_s,ramp\n"));
        let back = Trace::from_csv(&csv).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_errors_are_located() {
        let err = Trace::from_csv("time_s,x\n0,1\nbroken\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = Trace::from_csv("time_s,x\n5,1\n2,1\n").unwrap_err();
        assert!(err.to_string().contains("before previous"), "{err}");
        assert!(Trace::from_csv("").is_err());
    }

    #[test]
    fn csv_without_samples_is_an_error() {
        let err = Trace::from_csv("time_s,irr\n").unwrap_err();
        assert!(err.to_string().contains("line 2: no samples"), "{err}");
        let err = Trace::from_csv("time_s,irr\n\n\n").unwrap_err();
        assert!(err.to_string().contains("line 4: no samples"), "{err}");
    }

    #[test]
    fn csv_rejects_a_nan_time() {
        // NaN passes the order check, and sampling the trace would panic.
        let err = Trace::from_csv("time_s,irr\n0,1\nnan,5\n100,3\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(err.to_string().contains("not finite"), "{err}");
    }

    #[test]
    fn csv_rejects_non_finite_values() {
        let err = Trace::from_csv("time_s,irr\n0,nan\n100,inf\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = Trace::from_csv("time_s,irr\n0,1\n100,inf\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = Trace::from_csv("time_s,irr\n-inf,1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn resample_uniform_grid() {
        let t = ramp();
        let r = t.resample(5);
        assert_eq!(r.len(), 5);
        let times: Vec<f64> = r.iter().map(|(t, _)| t.value()).collect();
        assert_eq!(times, vec![0.0, 5.0, 10.0, 15.0, 20.0]);
        let values: Vec<f64> = r.iter().map(|(_, v)| v).collect();
        assert_eq!(values, vec![0.0, 50.0, 100.0, 75.0, 50.0]);
        assert_eq!(r.name(), "ramp");
    }

    #[test]
    fn dispersion_statistics() {
        let mut t = Trace::new("vals");
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            t.push(Seconds::new(i as f64), *v);
        }
        // Known sample std-dev of this set ≈ 2.138.
        assert!((t.std_dev() - 2.138).abs() < 0.01, "{}", t.std_dev());
        assert_eq!(t.quantile(0.0), Some(2.0));
        assert_eq!(t.quantile(1.0), Some(9.0));
        assert_eq!(t.quantile(0.5), Some(5.0)); // nearest-rank rounds up
        assert_eq!(Trace::new("e").quantile(0.5), None);
        assert_eq!(Trace::new("e").std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "resample an empty")]
    fn resample_rejects_empty() {
        Trace::new("e").resample(4);
    }

    #[test]
    fn extend_appends_in_order() {
        let mut t = Trace::new("ext");
        t.extend([(Seconds::new(1.0), 1.0), (Seconds::new(2.0), 4.0)]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 2);
    }
}
