//! Pins the allocator's large-block policy so set-up cost repeats.
//!
//! glibc's malloc serves blocks above its mmap threshold with fresh,
//! lazily zeroed pages, and by default moves that threshold up whenever
//! such a block is freed. A simulated machine allocates several
//! megabyte-sized arrays, so with the dynamic threshold whether one
//! comes from fresh pages (page faults as it is touched) or from reused
//! heap depends on the allocation history of the process: set-up time
//! and peak RSS turned bimodal from run to run. Setting the threshold
//! explicitly, to glibc's default of 128 KiB, turns the adjustment off:
//! every large array comes from fresh pages, in every run.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_MMAP_THRESHOLD` from glibc's `malloc.h`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

/// Fixes the mmap threshold at 128 KiB; returns whether the allocator
/// accepted it (always false off glibc).
pub fn pin_mmap_threshold() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: mallopt takes two plain integers and only updates
        // malloc's tuning parameters under malloc's own lock; the
        // benchmark is single-threaded besides.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}
