//! Atomic helpers used by the parallel graph algorithms.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomically lowers `slot` to `val` if `val` is smaller.
///
/// Returns `true` iff this call strictly decreased the stored value —
/// the `writeMin` primitive of Ligra-style frameworks.
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
/// let a = AtomicU32::new(10);
/// assert!(parlib::write_min_u32(&a, 3));
/// assert!(!parlib::write_min_u32(&a, 7));
/// assert_eq!(a.load(Ordering::Relaxed), 3);
/// ```
#[inline]
pub fn write_min_u32(slot: &AtomicU32, val: u32) -> bool {
    let mut cur = slot.load(Ordering::Relaxed);
    while val < cur {
        match slot.compare_exchange_weak(cur, val, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// An `f64` supporting atomic load/store/add via bit-level CAS.
///
/// Betweenness centrality accumulates floating-point dependency scores
/// from many threads; this is the standard CAS-loop formulation.
#[derive(Debug)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Creates a new atomic with initial value `v`.
    pub fn new(v: f64) -> Self {
        Self {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Stores `v`.
    #[inline]
    pub fn store(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta` and returns the previous value.
    ///
    /// ```
    /// let a = parlib::AtomicF64::new(1.5);
    /// a.fetch_add(2.0);
    /// assert!((a.load() - 3.5).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(prev) => return f64::from_bits(prev),
                Err(now) => cur = now,
            }
        }
    }
}

impl Default for AtomicF64 {
    fn default() -> Self {
        Self::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn write_min_converges_to_minimum() {
        let a = AtomicU32::new(u32::MAX);
        (0..1000u32).into_par_iter().for_each(|i| {
            write_min_u32(&a, 1000 - i);
        });
        assert_eq!(a.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn write_min_reports_strict_decrease_only() {
        let a = AtomicU32::new(5);
        assert!(!write_min_u32(&a, 5));
        assert!(!write_min_u32(&a, 9));
        assert!(write_min_u32(&a, 4));
    }

    #[test]
    fn atomic_f64_parallel_sum() {
        let a = AtomicF64::new(0.0);
        (0..10_000u32).into_par_iter().for_each(|_| {
            a.fetch_add(0.5);
        });
        assert!((a.load() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn atomic_f64_store_load() {
        let a = AtomicF64::default();
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }
}
