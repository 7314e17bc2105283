//! Byte-size helpers.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One kibibyte (1024 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// A count of bytes with human-readable formatting.
///
/// # Examples
///
/// ```
/// use shhc_types::ByteSize;
///
/// let total = ByteSize::from_kib(8) + ByteSize::new(512);
/// assert_eq!(total.as_u64(), 8 * 1024 + 512);
/// assert_eq!(ByteSize::from_mib(4).to_string(), "4.00 MiB");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Creates a size from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size expressed in KiB.
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * KIB)
    }

    /// Creates a size expressed in MiB.
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * MIB)
    }

    /// Creates a size expressed in GiB.
    #[cfg(test)]
    pub(crate) const fn from_gib(gib: u64) -> Self {
        ByteSize(gib * GIB)
    }

    /// Returns the raw number of bytes.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;

    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl From<u64> for ByteSize {
    fn from(v: u64) -> Self {
        ByteSize(v)
    }
}

impl From<ByteSize> for u64 {
    fn from(v: ByteSize) -> u64 {
        v.0
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSize({self})")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2} GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = ByteSize::from_kib(4);
        let b = ByteSize::new(96);
        assert_eq!((a + b).as_u64(), 4192);
        assert_eq!((a - b).as_u64(), 4000);
        assert_eq!(b.saturating_sub(a), ByteSize::new(0));
    }

    #[test]
    fn display_units() {
        assert_eq!(ByteSize::new(17).to_string(), "17 B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(ByteSize::from_mib(3).to_string(), "3.00 MiB");
        assert_eq!(ByteSize::from_gib(1).to_string(), "1.00 GiB");
    }

    #[test]
    fn add_assign_accumulates() {
        let mut s = ByteSize::default();
        s += ByteSize::new(10);
        s += ByteSize::new(20);
        assert_eq!(s.as_u64(), 30);
    }
}
