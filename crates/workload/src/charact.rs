//! Trace characterization: measuring the Table I columns.

use std::collections::HashMap;

use shhc_types::Fingerprint;

/// Measured characteristics of a fingerprint trace — the columns of the
/// paper's Table I plus a few extras.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCharacteristics {
    /// Total fingerprints in the stream.
    pub total: usize,
    /// Number of distinct fingerprints.
    pub unique: usize,
    /// Fraction of stream entries that repeat an earlier fingerprint
    /// (the paper's "% Redundant": `1 − unique/total`).
    pub redundant_fraction: f64,
    /// Mean distance between consecutive occurrences of the same
    /// fingerprint (the paper's "Distance" column).
    pub mean_duplicate_distance: f64,
    /// Median of the same distance distribution.
    pub(crate) median_duplicate_distance: f64,
    /// Number of (consecutive-occurrence) duplicate pairs measured.
    pub(crate) duplicate_pairs: usize,
    /// Occurrence count of the most frequent fingerprint.
    pub(crate) max_occurrences: usize,
}

impl TraceCharacteristics {
    /// Formats the measurement as a Table I row:
    /// `name, fingerprints, % redundant, distance`.
    #[cfg(test)]
    pub(crate) fn table_row(&self, name: &str) -> String {
        format!(
            "{name:<12} {:>12} {:>10.0}% {:>12.0}",
            self.total,
            self.redundant_fraction * 100.0,
            self.mean_duplicate_distance
        )
    }
}

/// Measures a trace.
///
/// Distance is defined exactly as the paper uses it: for every occurrence
/// of a fingerprint after its first, the gap (in stream positions) to its
/// *previous* occurrence; the reported value is the mean over all such
/// gaps.
///
/// # Examples
///
/// ```
/// use shhc_types::Fingerprint;
/// use shhc_workload::characterize;
///
/// let a = Fingerprint::from_u64(1);
/// let b = Fingerprint::from_u64(2);
/// let stats = characterize(&[a, b, a]); // a repeats at distance 2
/// assert_eq!(stats.total, 3);
/// assert_eq!(stats.unique, 2);
/// assert_eq!(stats.mean_duplicate_distance, 2.0);
/// ```
pub fn characterize(fingerprints: &[Fingerprint]) -> TraceCharacteristics {
    let mut last_seen: HashMap<Fingerprint, usize> = HashMap::new();
    let mut counts: HashMap<Fingerprint, usize> = HashMap::new();
    let mut distances: Vec<usize> = Vec::new();

    for (pos, fp) in fingerprints.iter().enumerate() {
        if let Some(prev) = last_seen.insert(*fp, pos) {
            distances.push(pos - prev);
        }
        *counts.entry(*fp).or_insert(0) += 1;
    }

    let unique = counts.len();
    let total = fingerprints.len();
    let mean = if distances.is_empty() {
        0.0
    } else {
        distances.iter().sum::<usize>() as f64 / distances.len() as f64
    };
    let median = if distances.is_empty() {
        0.0
    } else {
        let mut sorted = distances.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2] as f64
    };

    TraceCharacteristics {
        total,
        unique,
        redundant_fraction: if total == 0 {
            0.0
        } else {
            1.0 - unique as f64 / total as f64
        },
        mean_duplicate_distance: mean,
        median_duplicate_distance: median,
        duplicate_pairs: distances.len(),
        max_occurrences: counts.values().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::from_u64(v)
    }

    #[test]
    fn empty_trace() {
        let stats = characterize(&[]);
        assert_eq!(stats.total, 0);
        assert_eq!(stats.unique, 0);
        assert_eq!(stats.redundant_fraction, 0.0);
        assert_eq!(stats.mean_duplicate_distance, 0.0);
    }

    #[test]
    fn all_unique() {
        let trace: Vec<_> = (0..100).map(fp).collect();
        let stats = characterize(&trace);
        assert_eq!(stats.unique, 100);
        assert_eq!(stats.redundant_fraction, 0.0);
        assert_eq!(stats.duplicate_pairs, 0);
        assert_eq!(stats.max_occurrences, 1);
    }

    #[test]
    fn all_identical() {
        let trace = vec![fp(7); 50];
        let stats = characterize(&trace);
        assert_eq!(stats.unique, 1);
        assert!((stats.redundant_fraction - 0.98).abs() < 1e-9);
        // Consecutive occurrences ⇒ every distance is 1.
        assert_eq!(stats.mean_duplicate_distance, 1.0);
        assert_eq!(stats.median_duplicate_distance, 1.0);
        assert_eq!(stats.max_occurrences, 50);
    }

    #[test]
    fn distance_uses_previous_occurrence() {
        // a . . a . a  → distances 3 and 2.
        let trace = vec![fp(1), fp(2), fp(3), fp(1), fp(4), fp(1)];
        let stats = characterize(&trace);
        assert_eq!(stats.duplicate_pairs, 2);
        assert!((stats.mean_duplicate_distance - 2.5).abs() < 1e-9);
    }

    #[test]
    fn table_row_formats() {
        let stats = characterize(&[fp(1), fp(1)]);
        let row = stats.table_row("Sample");
        assert!(row.contains("Sample"));
        assert!(row.contains('2'));
        assert!(row.contains('%'));
    }
}
