//! Wrapping ranges over the 64-bit routing-key space.

/// An inclusive, possibly wrapping range of 64-bit routing keys.
///
/// The fingerprint space is a ring: a range whose `first` exceeds its
/// `last` wraps through `u64::MAX` → `0`. Ranges are the unit of
/// migration during membership changes — a [`MigrationPlan`] describes
/// which key ranges change owner between two ring epochs.
///
/// [`MigrationPlan`]: https://docs.rs/shhc-ring
///
/// # Examples
///
/// ```
/// use shhc_types::KeyRange;
///
/// let plain = KeyRange::new(10, 20);
/// assert!(plain.contains(15));
/// assert!(!plain.contains(21));
///
/// let wrap = KeyRange::new(u64::MAX - 1, 1);
/// assert!(wrap.contains(u64::MAX));
/// assert!(wrap.contains(0));
/// assert!(!wrap.contains(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyRange {
    /// First key of the range (inclusive).
    pub first: u64,
    /// Last key of the range (inclusive). `last < first` means the range
    /// wraps through zero.
    pub last: u64,
}

impl KeyRange {
    /// Creates the inclusive range `[first, last]` (wrapping when
    /// `last < first`).
    pub const fn new(first: u64, last: u64) -> Self {
        KeyRange { first, last }
    }

    /// The range covering the entire key space.
    pub const fn full() -> Self {
        KeyRange {
            first: 0,
            last: u64::MAX,
        }
    }

    /// Whether `key` falls inside the range.
    pub fn contains(&self, key: u64) -> bool {
        if self.first <= self.last {
            self.first <= key && key <= self.last
        } else {
            key >= self.first || key <= self.last
        }
    }

    /// Number of keys in the range (always ≥ 1; needs 65 bits for the
    /// full space).
    pub fn span(&self) -> u128 {
        if self.first <= self.last {
            (self.last - self.first) as u128 + 1
        } else {
            (u64::MAX as u128 + 1) - (self.first - self.last) as u128 + 1
        }
    }

    /// Whether the range wraps through `u64::MAX` → `0`.
    pub fn wraps(&self) -> bool {
        self.first > self.last
    }
}

impl std::fmt::Display for KeyRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#018x}, {:#018x}]", self.first, self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_range_bounds_are_inclusive() {
        let r = KeyRange::new(5, 9);
        assert!(r.contains(5));
        assert!(r.contains(9));
        assert!(!r.contains(4));
        assert!(!r.contains(10));
        assert_eq!(r.span(), 5);
        assert!(!r.wraps());
    }

    #[test]
    fn wrapping_range_covers_both_ends() {
        let r = KeyRange::new(u64::MAX - 2, 2);
        assert!(r.wraps());
        for k in [u64::MAX - 2, u64::MAX, 0, 2] {
            assert!(r.contains(k), "{k}");
        }
        assert!(!r.contains(3));
        assert!(!r.contains(u64::MAX - 3));
        assert_eq!(r.span(), 6);
    }

    #[test]
    fn single_key_range() {
        let r = KeyRange::new(7, 7);
        assert!(r.contains(7));
        assert!(!r.contains(8));
        assert_eq!(r.span(), 1);
    }

    #[test]
    fn full_range_contains_everything() {
        let r = KeyRange::full();
        for k in [0, 1, u64::MAX / 2, u64::MAX] {
            assert!(r.contains(k));
        }
        assert_eq!(r.span(), u64::MAX as u128 + 1);
    }

    #[test]
    fn display_is_hex() {
        let r = KeyRange::new(0, 15);
        assert_eq!(format!("{r}"), "[0x0000000000000000, 0x000000000000000f]");
    }
}
