//! Trace specification and generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shhc_hash::xxh64;
use shhc_types::Fingerprint;

/// Target parameters for a synthetic fingerprint trace.
///
/// The three workload-defining numbers mirror the paper's Table I
/// columns: `total` fingerprints, `redundancy` (fraction of stream
/// entries whose chunk was seen before) and `mean_distance` (average gap
/// between consecutive occurrences of the same fingerprint — the
/// spatial-locality measure).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Human-readable workload name.
    pub name: String,
    /// Total number of fingerprints in the stream.
    pub total: usize,
    /// Target fraction of redundant (duplicate) fingerprints, in `[0,1)`.
    pub redundancy: f64,
    /// Target mean distance between consecutive occurrences of the same
    /// fingerprint.
    pub mean_distance: f64,
    /// Coefficient of variation of the duplicate-distance distribution
    /// (log-normal); larger values spread re-references more unevenly.
    pub distance_cv: f64,
    /// Chunk size in bytes this trace models (metadata only; fingerprints
    /// are what flow through the cluster).
    pub chunk_size: usize,
    /// RNG seed; same spec + same seed ⇒ bit-identical trace.
    pub seed: u64,
}

impl TraceSpec {
    /// Returns a copy with a different seed (for independent repetitions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales the trace down by `factor`, dividing both the total length
    /// and the mean distance so the locality *structure* (distance
    /// relative to stream length) is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled(mut self, factor: usize) -> Self {
        assert!(factor > 0, "scale factor must be nonzero");
        self.total = (self.total / factor).max(1);
        self.mean_distance = (self.mean_distance / factor as f64).max(1.0);
        self
    }

    /// Creates the generator for this spec.
    pub fn generator(&self) -> TraceGenerator {
        TraceGenerator::new(self.clone())
    }

    /// Generates the full trace into memory.
    pub fn generate(&self) -> Trace {
        let fingerprints: Vec<Fingerprint> = self.generator().collect();
        Trace {
            spec: self.clone(),
            fingerprints,
        }
    }
}

/// A fully generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The spec that produced (or described) this trace.
    pub spec: TraceSpec,
    /// The fingerprint stream.
    pub fingerprints: Vec<Fingerprint>,
}

impl Trace {
    /// Iterates the stream in batches of `size` (last may be shorter) —
    /// the client-side aggregation of the paper's evaluation setup.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = &[Fingerprint]> {
        self.fingerprints.chunks(size.max(1))
    }

    /// Number of fingerprints.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Total logical bytes the trace represents (`len × chunk_size`).
    pub fn logical_bytes(&self) -> u64 {
        self.len() as u64 * self.spec.chunk_size as u64
    }
}

/// Streaming trace generator (implements [`Iterator`]).
///
/// The generation model: each stream position is, with probability
/// `redundancy`, a re-reference to the fingerprint emitted `d` positions
/// ago (`d` ~ log-normal with the target mean), and otherwise a fresh
/// unique fingerprint. Re-references near the stream head fall back to
/// fresh fingerprints, so very short traces come out slightly less
/// redundant than the target — the characterizer reports the truth.
///
/// # Examples
///
/// ```
/// use shhc_workload::TraceSpec;
///
/// let spec = TraceSpec {
///     name: "tiny".into(),
///     total: 1000,
///     redundancy: 0.3,
///     mean_distance: 50.0,
///     distance_cv: 1.0,
///     chunk_size: 4096,
///     seed: 1,
/// };
/// let trace = spec.generate();
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    spec: TraceSpec,
    rng: StdRng,
    /// Unique-id history of the emitted stream (ids, not fingerprints, to
    /// keep memory at 8 bytes per position).
    history: Vec<u64>,
    next_unique: u64,
    emitted: usize,
    /// Log-normal parameters for distance sampling.
    ln_mu: f64,
    ln_sigma: f64,
}

impl TraceGenerator {
    /// Creates a generator for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy` is outside `[0, 1)` or `mean_distance < 1`.
    pub fn new(spec: TraceSpec) -> Self {
        assert!(
            (0.0..1.0).contains(&spec.redundancy),
            "redundancy must be in [0,1)"
        );
        assert!(spec.mean_distance >= 1.0, "mean distance must be ≥ 1");
        let cv = spec.distance_cv.max(0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let ln_mu = spec.mean_distance.ln() - sigma2 / 2.0;
        let rng = StdRng::seed_from_u64(spec.seed);
        TraceGenerator {
            history: Vec::with_capacity(spec.total),
            next_unique: 0,
            emitted: 0,
            ln_mu,
            ln_sigma: sigma2.sqrt(),
            rng,
            spec,
        }
    }

    /// The spec driving this generator.
    pub fn spec(&self) -> &TraceSpec {
        &self.spec
    }

    fn fingerprint_for(&self, id: u64) -> Fingerprint {
        // Mix with the seed so different workloads occupy disjoint
        // fingerprint populations (needed when mixing traces).
        Fingerprint::from_u64(xxh64(&id.to_le_bytes(), self.spec.seed))
    }

    fn sample_distance(&mut self) -> usize {
        // Box–Muller standard normal → log-normal.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.ln_mu + self.ln_sigma * z).exp().round().max(1.0) as usize
    }
}

impl Iterator for TraceGenerator {
    type Item = Fingerprint;

    fn next(&mut self) -> Option<Fingerprint> {
        if self.emitted >= self.spec.total {
            return None;
        }
        let pos = self.emitted;
        let dup = self.spec.redundancy > 0.0 && self.rng.gen_bool(self.spec.redundancy);
        let id = if dup {
            let d = self.sample_distance();
            if d <= pos {
                self.history[pos - d]
            } else {
                // Too early in the stream for this re-reference; emit a
                // fresh chunk instead.
                let id = self.next_unique;
                self.next_unique += 1;
                id
            }
        } else {
            let id = self.next_unique;
            self.next_unique += 1;
            id
        };
        self.history.push(id);
        self.emitted += 1;
        Some(self.fingerprint_for(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.spec.total - self.emitted;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize;

    fn spec(total: usize, red: f64, dist: f64) -> TraceSpec {
        TraceSpec {
            name: "test".into(),
            total,
            redundancy: red,
            mean_distance: dist,
            distance_cv: 1.0,
            chunk_size: 4096,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = spec(5000, 0.4, 100.0).generate();
        let b = spec(5000, 0.4, 100.0).generate();
        assert_eq!(a.fingerprints, b.fingerprints);
    }

    #[test]
    fn different_seeds_differ() {
        let a = spec(1000, 0.4, 100.0).generate();
        let b = spec(1000, 0.4, 100.0).with_seed(43).generate();
        assert_ne!(a.fingerprints, b.fingerprints);
    }

    #[test]
    fn hits_target_redundancy() {
        let trace = spec(100_000, 0.37, 500.0).generate();
        let stats = characterize(&trace.fingerprints);
        assert!(
            (stats.redundant_fraction - 0.37).abs() < 0.02,
            "measured {}",
            stats.redundant_fraction
        );
    }

    #[test]
    fn hits_target_distance_roughly() {
        let trace = spec(200_000, 0.5, 1000.0).generate();
        let stats = characterize(&trace.fingerprints);
        let ratio = stats.mean_duplicate_distance / 1000.0;
        assert!(
            (0.5..2.0).contains(&ratio),
            "measured distance {} vs target 1000",
            stats.mean_duplicate_distance
        );
    }

    #[test]
    fn zero_redundancy_is_all_unique() {
        let trace = spec(10_000, 0.0, 10.0).generate();
        let stats = characterize(&trace.fingerprints);
        assert_eq!(stats.unique, 10_000);
        assert_eq!(stats.redundant_fraction, 0.0);
    }

    #[test]
    fn scaling_preserves_structure() {
        let base = spec(100_000, 0.4, 2000.0);
        let scaled = base.clone().scaled(10);
        assert_eq!(scaled.total, 10_000);
        assert!((scaled.mean_distance - 200.0).abs() < 1e-9);
        assert_eq!(scaled.redundancy, base.redundancy);
    }

    #[test]
    fn batches_cover_stream() {
        let trace = spec(1000, 0.2, 50.0).generate();
        let total: usize = trace.batches(128).map(|b| b.len()).sum();
        assert_eq!(total, 1000);
        let sizes: Vec<usize> = trace.batches(128).map(|b| b.len()).collect();
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 128));
    }

    #[test]
    fn size_hint_is_exact() {
        let mut gen = spec(10, 0.0, 10.0).generator();
        assert_eq!(gen.size_hint(), (10, Some(10)));
        gen.next();
        assert_eq!(gen.size_hint(), (9, Some(9)));
    }

    #[test]
    #[should_panic(expected = "redundancy must be in [0,1)")]
    fn bad_redundancy_panics() {
        let _ = spec(10, 1.0, 10.0).generator();
    }
}
