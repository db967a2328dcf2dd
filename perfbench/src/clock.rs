//! The benchmark's one wall-clock source. Everything else in the suite runs
//! on the virtual clock; a wall-clock benchmark of the real-threads backend
//! is the sanctioned exception, and it reads the clock only here.

// lint:allow(virtual-time): the benchmark measures wall-clock time by design.
use std::time::Instant;

/// A point in wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(
    // lint:allow(virtual-time): the benchmark measures wall-clock time by design.
    Instant,
);

impl Stamp {
    pub fn now() -> Self {
        // lint:allow(virtual-time): the benchmark measures wall-clock time by design.
        Self(Instant::now())
    }

    /// Seconds since this stamp.
    pub fn elapsed_s(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Seconds from `earlier` to this stamp (0 if `earlier` is later).
    pub fn since_s(self, earlier: Stamp) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }
}
