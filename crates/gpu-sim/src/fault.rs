//! Deterministic, seeded fault injection.
//!
//! The injector is a counter-based PRNG (SplitMix64 finalizer over
//! `seed ⊕ class-salt ⊕ draw-index`): every fault class keeps its own draw
//! counter, so the decision for the *n*-th kernel launch (or allocation, or
//! transfer) depends only on the profile seed and *n* — never on wall-clock
//! time, host scheduling, or interleaving with other fault classes. Two runs
//! with the same profile and the same operation sequence inject byte-identical
//! fault patterns, which is what makes fault-recovery tests reproducible.

use std::sync::atomic::{AtomicU64, Ordering};

/// Mid-run memory pressure: once the device has seen `after_allocs`
/// allocation requests, `reserve_fraction` of its capacity becomes
/// reserved — as if a co-tenant process grabbed it — shrinking the
/// effective free bytes for every later allocation. Deterministic by
/// construction (keyed on the allocation count, not wall time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPressure {
    /// Allocation requests observed before the pressure sets in.
    pub after_allocs: u64,
    /// Fraction of device capacity reserved once pressure is active,
    /// in `[0, 1]`.
    pub reserve_fraction: f64,
}

/// What to inject and how often. `Default` disables everything, so an
/// injector is free when unused.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Seed for all fault draws.
    pub seed: u64,
    /// Probability that a kernel launch fails with a transient fault
    /// (decided *before* the kernel runs — a faulted launch has no side
    /// effects on device memory).
    pub kernel_fault_rate: f64,
    /// Probability that a device allocation fails.
    pub alloc_fault_rate: f64,
    /// Probability that a host/device transfer times out.
    pub transfer_timeout_rate: f64,
    /// Probability that a device buffer is silently corrupted (one bit
    /// flipped at a seeded site) on an H2D transfer or a pooled-buffer
    /// reuse. Undetected unless the device's integrity checks are on.
    pub corruption_rate: f64,
    /// Simulated-kernel watchdog: launches whose modelled time exceeds this
    /// limit fail with [`crate::DeviceError::WatchdogTimeout`].
    pub watchdog_limit_ms: Option<f64>,
    /// Mid-run memory-pressure mode (None = off).
    pub memory_pressure: Option<MemoryPressure>,
    /// Probability that a kernel launch kills the whole device: the launch
    /// fails with [`crate::DeviceError::DeviceLost`] and every later
    /// operation on that device fails immediately without consuming fault
    /// draws. Non-transient — recovery means moving the work elsewhere.
    pub device_loss_rate: f64,
    /// Probability that a kernel launch runs slow (a straggler): its
    /// modelled time is multiplied by `straggler_slowdown`. Numerics are
    /// untouched — stragglers only distort the simulated clock.
    pub straggler_rate: f64,
    /// Modelled-time multiplier applied to straggling launches.
    pub straggler_slowdown: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0,
            kernel_fault_rate: 0.0,
            alloc_fault_rate: 0.0,
            transfer_timeout_rate: 0.0,
            corruption_rate: 0.0,
            watchdog_limit_ms: None,
            memory_pressure: None,
            device_loss_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
        }
    }
}

impl FaultProfile {
    /// No injection at all (the default).
    pub fn disabled() -> Self {
        FaultProfile::default()
    }

    /// Start a profile with the given seed and everything disabled.
    pub fn seeded(seed: u64) -> Self {
        FaultProfile {
            seed,
            ..FaultProfile::default()
        }
    }

    pub fn with_kernel_fault_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.kernel_fault_rate = rate;
        self
    }

    pub fn with_alloc_fault_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.alloc_fault_rate = rate;
        self
    }

    pub fn with_transfer_timeout_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.transfer_timeout_rate = rate;
        self
    }

    pub fn with_corruption_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.corruption_rate = rate;
        self
    }

    pub fn with_watchdog_limit_ms(mut self, limit_ms: f64) -> Self {
        assert!(limit_ms > 0.0, "watchdog limit must be positive");
        self.watchdog_limit_ms = Some(limit_ms);
        self
    }

    pub fn with_memory_pressure(mut self, after_allocs: u64, reserve_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&reserve_fraction),
            "reserve fraction must be in [0, 1]"
        );
        self.memory_pressure = Some(MemoryPressure {
            after_allocs,
            reserve_fraction,
        });
        self
    }

    pub fn with_device_loss_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.device_loss_rate = rate;
        self
    }

    pub fn with_straggler(mut self, rate: f64, slowdown: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        assert!(slowdown >= 1.0, "straggler slowdown must be >= 1");
        self.straggler_rate = rate;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Derive the profile for device `ordinal` of a multi-device group:
    /// same rates, but an independent per-device seed, so each group member
    /// has its own deterministic fault stream. Ordinal 0 keeps the base
    /// seed, so a 1-device group is bit-identical to a plain device with
    /// this profile.
    pub fn for_device(&self, ordinal: usize) -> Self {
        let mut p = self.clone();
        if ordinal > 0 {
            p.seed = mix64(self.seed ^ DEVICE_SALT ^ ordinal as u64);
        }
        p
    }

    /// True when any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.kernel_fault_rate > 0.0
            || self.alloc_fault_rate > 0.0
            || self.transfer_timeout_rate > 0.0
            || self.corruption_rate > 0.0
            || self.watchdog_limit_ms.is_some()
            || self.memory_pressure.is_some()
            || self.device_loss_rate > 0.0
            || self.straggler_rate > 0.0
    }
}

/// Running totals of injected faults, for session reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub kernel_faults: u64,
    pub alloc_faults: u64,
    pub transfer_timeouts: u64,
    pub watchdog_timeouts: u64,
    /// Bit flips injected into device buffers (whether or not the
    /// integrity layer was on to catch them).
    pub corruptions: u64,
    /// Allocations rejected only because of the memory-pressure reserve
    /// (they would have fit in the unpressured device).
    pub pressure_rejections: u64,
    /// Launches that killed their device outright.
    pub device_losses: u64,
    /// Launches that ran slow (modelled time scaled by the straggler
    /// slowdown).
    pub stragglers: u64,
}

const KERNEL_SALT: u64 = 0x6b65726e656c5f66; // "kernel_f"
const ALLOC_SALT: u64 = 0x616c6c6f635f666c; // "alloc_fl"
const TRANSFER_SALT: u64 = 0x7472616e73666572; // "transfer"
const CORRUPT_SALT: u64 = 0x636f72727570746e; // "corruptn"
const DEVICE_LOSS_SALT: u64 = 0x6465766c6f737421; // "devlost!"
const STRAGGLER_SALT: u64 = 0x7374726167676c72; // "stragglr"
const DEVICE_SALT: u64 = 0x6465766963655f6e; // "device_n" (per-device seeds)

/// SplitMix64 finalizer: a high-quality bijective mix of the input.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Map a draw to the unit interval with 53 bits of precision.
fn unit(seed: u64, salt: u64, index: u64) -> f64 {
    (mix64(seed ^ salt ^ mix64(index)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic fault source shared by the device and the runtime.
///
/// Draw counters are atomics so the injector can sit behind `&Gpu`, but the
/// *decision* for draw `n` is a pure function of `(seed, class, n)` — see the
/// module docs.
#[derive(Debug)]
pub struct FaultInjector {
    profile: FaultProfile,
    kernel_draws: AtomicU64,
    alloc_draws: AtomicU64,
    transfer_draws: AtomicU64,
    corruption_draws: AtomicU64,
    device_loss_draws: AtomicU64,
    straggler_draws: AtomicU64,
    alloc_requests: AtomicU64,
    kernel_faults: AtomicU64,
    alloc_faults: AtomicU64,
    transfer_timeouts: AtomicU64,
    watchdog_timeouts: AtomicU64,
    corruptions: AtomicU64,
    pressure_rejections: AtomicU64,
    device_losses: AtomicU64,
    stragglers: AtomicU64,
}

impl FaultInjector {
    pub fn new(profile: FaultProfile) -> Self {
        FaultInjector {
            profile,
            kernel_draws: AtomicU64::new(0),
            alloc_draws: AtomicU64::new(0),
            transfer_draws: AtomicU64::new(0),
            corruption_draws: AtomicU64::new(0),
            device_loss_draws: AtomicU64::new(0),
            straggler_draws: AtomicU64::new(0),
            alloc_requests: AtomicU64::new(0),
            kernel_faults: AtomicU64::new(0),
            alloc_faults: AtomicU64::new(0),
            transfer_timeouts: AtomicU64::new(0),
            watchdog_timeouts: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            pressure_rejections: AtomicU64::new(0),
            device_losses: AtomicU64::new(0),
            stragglers: AtomicU64::new(0),
        }
    }

    pub fn disabled() -> Self {
        FaultInjector::new(FaultProfile::disabled())
    }

    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decide whether the next kernel launch faults. Returns the draw index
    /// when it does.
    pub fn draw_kernel_fault(&self) -> Option<u64> {
        if self.profile.kernel_fault_rate <= 0.0 {
            return None;
        }
        let idx = self.kernel_draws.fetch_add(1, Ordering::Relaxed);
        if unit(self.profile.seed, KERNEL_SALT, idx) < self.profile.kernel_fault_rate {
            self.kernel_faults.fetch_add(1, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// Decide whether the next device allocation faults.
    pub fn draw_alloc_fault(&self) -> Option<u64> {
        if self.profile.alloc_fault_rate <= 0.0 {
            return None;
        }
        let idx = self.alloc_draws.fetch_add(1, Ordering::Relaxed);
        if unit(self.profile.seed, ALLOC_SALT, idx) < self.profile.alloc_fault_rate {
            self.alloc_faults.fetch_add(1, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// Decide whether the next host/device transfer times out.
    pub fn draw_transfer_timeout(&self) -> Option<u64> {
        if self.profile.transfer_timeout_rate <= 0.0 {
            return None;
        }
        let idx = self.transfer_draws.fetch_add(1, Ordering::Relaxed);
        if unit(self.profile.seed, TRANSFER_SALT, idx) < self.profile.transfer_timeout_rate {
            self.transfer_timeouts.fetch_add(1, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// Decide whether the next corruption opportunity (an H2D transfer or
    /// a pooled-buffer reuse) flips a bit. Returns the draw index when it
    /// does; the site comes from [`FaultInjector::corruption_site`].
    pub fn draw_corruption(&self) -> Option<u64> {
        if self.profile.corruption_rate <= 0.0 {
            return None;
        }
        let idx = self.corruption_draws.fetch_add(1, Ordering::Relaxed);
        if unit(self.profile.seed, CORRUPT_SALT, idx) < self.profile.corruption_rate {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// The (element, bit) a corruption draw flips in a buffer of `len`
    /// elements — a pure function of `(seed, fault_index)`, independent of
    /// the accept/reject stream so the site is uncorrelated with *whether*
    /// the draw fired.
    pub fn corruption_site(&self, fault_index: u64, len: usize) -> (usize, u32) {
        let h = mix64(mix64(self.profile.seed ^ CORRUPT_SALT) ^ fault_index);
        let elem = if len == 0 { 0 } else { (h >> 6) as usize % len };
        let bit = (h & 63) as u32;
        (elem, bit)
    }

    /// Decide whether the next kernel launch kills the device. Returns the
    /// draw index when it does.
    pub fn draw_device_loss(&self) -> Option<u64> {
        if self.profile.device_loss_rate <= 0.0 {
            return None;
        }
        let idx = self.device_loss_draws.fetch_add(1, Ordering::Relaxed);
        if unit(self.profile.seed, DEVICE_LOSS_SALT, idx) < self.profile.device_loss_rate {
            self.device_losses.fetch_add(1, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// Decide whether the next kernel launch straggles (modelled time is
    /// scaled by the profile's slowdown). Returns the draw index when it
    /// does.
    pub fn draw_straggler(&self) -> Option<u64> {
        if self.profile.straggler_rate <= 0.0 {
            return None;
        }
        let idx = self.straggler_draws.fetch_add(1, Ordering::Relaxed);
        if unit(self.profile.seed, STRAGGLER_SALT, idx) < self.profile.straggler_rate {
            self.stragglers.fetch_add(1, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// Record one allocation request for the memory-pressure model. A no-op
    /// (counter untouched) when pressure is off, so a pressure-free device
    /// behaves bit-identically to one built before this class existed.
    pub fn note_alloc_request(&self) {
        if self.profile.memory_pressure.is_some() {
            self.alloc_requests.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Device bytes currently reserved by the memory-pressure model, for a
    /// device of `capacity_bytes`. Zero until the configured allocation
    /// count is reached (or when pressure is off).
    pub fn reserved_bytes(&self, capacity_bytes: u64) -> u64 {
        match self.profile.memory_pressure {
            // Strictly greater: the first `after_allocs` requests see the
            // full device; pressure sets in on every request after them.
            Some(mp) if self.alloc_requests.load(Ordering::Relaxed) > mp.after_allocs => {
                (capacity_bytes as f64 * mp.reserve_fraction) as u64
            }
            _ => 0,
        }
    }

    /// Record an allocation rejected only because of the pressure reserve.
    pub fn note_pressure_rejection(&self) {
        self.pressure_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Watchdog limit, if configured.
    pub fn watchdog_limit_ms(&self) -> Option<f64> {
        self.profile.watchdog_limit_ms
    }

    /// Record a watchdog trip (the device decides; the injector only counts).
    pub fn note_watchdog_timeout(&self) {
        self.watchdog_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Totals injected so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            kernel_faults: self.kernel_faults.load(Ordering::Relaxed),
            alloc_faults: self.alloc_faults.load(Ordering::Relaxed),
            transfer_timeouts: self.transfer_timeouts.load(Ordering::Relaxed),
            watchdog_timeouts: self.watchdog_timeouts.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            pressure_rejections: self.pressure_rejections.load(Ordering::Relaxed),
            device_losses: self.device_losses.load(Ordering::Relaxed),
            stragglers: self.stragglers.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_never_draws() {
        let inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert_eq!(inj.draw_kernel_fault(), None);
            assert_eq!(inj.draw_alloc_fault(), None);
            assert_eq!(inj.draw_transfer_timeout(), None);
            assert_eq!(inj.draw_corruption(), None);
            assert_eq!(inj.draw_device_loss(), None);
            assert_eq!(inj.draw_straggler(), None);
            inj.note_alloc_request();
        }
        assert_eq!(inj.counts(), FaultCounts::default());
        // Disabled classes consume no draw indices at all.
        assert_eq!(inj.kernel_draws.load(Ordering::Relaxed), 0);
        assert_eq!(inj.corruption_draws.load(Ordering::Relaxed), 0);
        assert_eq!(inj.device_loss_draws.load(Ordering::Relaxed), 0);
        assert_eq!(inj.straggler_draws.load(Ordering::Relaxed), 0);
        assert_eq!(inj.alloc_requests.load(Ordering::Relaxed), 0);
        assert_eq!(inj.reserved_bytes(1 << 30), 0);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let mk = || FaultInjector::new(FaultProfile::seeded(42).with_kernel_fault_rate(0.2));
        let a: Vec<Option<u64>> = {
            let i = mk();
            (0..200).map(|_| i.draw_kernel_fault()).collect()
        };
        let b: Vec<Option<u64>> = {
            let i = mk();
            (0..200).map(|_| i.draw_kernel_fault()).collect()
        };
        assert_eq!(a, b);
        assert!(
            a.iter().any(|d| d.is_some()),
            "rate 0.2 over 200 draws must fire"
        );
        assert!(a.iter().any(|d| d.is_none()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultProfile::seeded(1).with_kernel_fault_rate(0.5));
        let b = FaultInjector::new(FaultProfile::seeded(2).with_kernel_fault_rate(0.5));
        let va: Vec<bool> = (0..64).map(|_| a.draw_kernel_fault().is_some()).collect();
        let vb: Vec<bool> = (0..64).map(|_| b.draw_kernel_fault().is_some()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn classes_are_independent_streams() {
        // Interleaving alloc draws between kernel draws must not shift the
        // kernel stream.
        let p = FaultProfile::seeded(7)
            .with_kernel_fault_rate(0.3)
            .with_alloc_fault_rate(0.3);
        let pure = FaultInjector::new(p.clone());
        let kernel_only: Vec<bool> = (0..50)
            .map(|_| pure.draw_kernel_fault().is_some())
            .collect();
        let mixed = FaultInjector::new(p);
        let interleaved: Vec<bool> = (0..50)
            .map(|_| {
                mixed.draw_alloc_fault();
                mixed.draw_kernel_fault().is_some()
            })
            .collect();
        assert_eq!(kernel_only, interleaved);
    }

    #[test]
    fn empirical_rate_tracks_profile() {
        let inj = FaultInjector::new(FaultProfile::seeded(9).with_alloc_fault_rate(0.25));
        let n = 4000;
        let hits = (0..n).filter(|_| inj.draw_alloc_fault().is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
        assert_eq!(inj.counts().alloc_faults, hits as u64);
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn rejects_bad_rate() {
        FaultProfile::seeded(0).with_kernel_fault_rate(1.5);
    }

    #[test]
    fn same_seed_same_schedule_across_all_classes() {
        // Satellite: one combined determinism check covering the original
        // classes *and* the new corruption/pressure draws. Two injectors
        // with the same profile must produce an identical fault schedule
        // (indices, sites, counts) over an identical operation sequence.
        let mk = || {
            FaultInjector::new(
                FaultProfile::seeded(0xC0FFEE)
                    .with_kernel_fault_rate(0.1)
                    .with_alloc_fault_rate(0.1)
                    .with_transfer_timeout_rate(0.1)
                    .with_corruption_rate(0.15)
                    .with_memory_pressure(10, 0.5),
            )
        };
        let schedule = |inj: &FaultInjector| {
            let mut trail = Vec::new();
            for step in 0..200u64 {
                trail.push((inj.draw_kernel_fault(), inj.draw_alloc_fault()));
                if let Some(fi) = inj.draw_corruption() {
                    trail.push((Some(fi), None));
                    let (elem, bit) = inj.corruption_site(fi, 97);
                    trail.push((Some(elem as u64), Some(bit as u64)));
                }
                inj.note_alloc_request();
                trail.push((Some(inj.reserved_bytes(1000)), Some(step)));
            }
            (trail, inj.counts())
        };
        let a = mk();
        let b = mk();
        assert_eq!(schedule(&a), schedule(&b));
        let counts = a.counts();
        assert!(counts.corruptions > 0, "rate 0.15 over 200 draws must fire");
        assert_eq!(a.reserved_bytes(1000), 500);
    }

    #[test]
    fn corruption_sites_are_in_range_and_seed_dependent() {
        let a = FaultInjector::new(FaultProfile::seeded(1).with_corruption_rate(1.0));
        let b = FaultInjector::new(FaultProfile::seeded(2).with_corruption_rate(1.0));
        let sa: Vec<(usize, u32)> = (0..64).map(|i| a.corruption_site(i, 33)).collect();
        let sb: Vec<(usize, u32)> = (0..64).map(|i| b.corruption_site(i, 33)).collect();
        assert_ne!(sa, sb);
        for (elem, bit) in sa {
            assert!(elem < 33);
            assert!(bit < 64);
        }
        // Degenerate length never indexes out of bounds.
        assert_eq!(a.corruption_site(5, 0).0, 0);
    }

    #[test]
    fn pressure_reserve_kicks_in_at_the_threshold() {
        let inj = FaultInjector::new(FaultProfile::seeded(0).with_memory_pressure(3, 0.25));
        assert_eq!(inj.reserved_bytes(4000), 0);
        inj.note_alloc_request();
        inj.note_alloc_request();
        inj.note_alloc_request();
        assert_eq!(inj.reserved_bytes(4000), 0, "first N requests unpressured");
        inj.note_alloc_request();
        assert_eq!(inj.reserved_bytes(4000), 1000, "past the threshold");
        assert_eq!(inj.counts().pressure_rejections, 0);
        inj.note_pressure_rejection();
        assert_eq!(inj.counts().pressure_rejections, 1);
    }

    #[test]
    #[should_panic(expected = "reserve fraction must be in [0, 1]")]
    fn rejects_bad_reserve_fraction() {
        FaultProfile::seeded(0).with_memory_pressure(1, 1.5);
    }

    #[test]
    fn device_loss_and_straggler_are_independent_deterministic_streams() {
        let mk = || {
            FaultInjector::new(
                FaultProfile::seeded(0xD06)
                    .with_device_loss_rate(0.2)
                    .with_straggler(0.3, 4.0),
            )
        };
        let a = mk();
        let b = mk();
        let sa: Vec<(Option<u64>, Option<u64>)> = (0..100)
            .map(|_| (a.draw_device_loss(), a.draw_straggler()))
            .collect();
        // Interleaving straggler draws must not shift the device-loss
        // stream (and vice versa): replay device-loss draws alone.
        let loss_only: Vec<Option<u64>> = (0..100).map(|_| b.draw_device_loss()).collect();
        assert_eq!(
            sa.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            loss_only,
            "device-loss stream shifted by straggler draws"
        );
        assert!(sa.iter().any(|(l, _)| l.is_some()));
        assert!(sa.iter().any(|(_, s)| s.is_some()));
        let counts = a.counts();
        assert_eq!(
            counts.device_losses,
            sa.iter().filter(|(l, _)| l.is_some()).count() as u64
        );
        assert_eq!(
            counts.stragglers,
            sa.iter().filter(|(_, s)| s.is_some()).count() as u64
        );
    }

    #[test]
    fn per_device_profiles_are_distinct_but_deterministic() {
        let base = FaultProfile::seeded(0xFEED).with_device_loss_rate(0.5);
        assert_eq!(base.for_device(0), base, "ordinal 0 keeps the base seed");
        let d1 = base.for_device(1);
        let d2 = base.for_device(2);
        assert_ne!(d1.seed, base.seed);
        assert_ne!(d1.seed, d2.seed);
        assert_eq!(d1, base.for_device(1), "derivation is pure");
        assert_eq!(d1.device_loss_rate, base.device_loss_rate);
        let a = FaultInjector::new(d1.clone());
        let b = FaultInjector::new(d2);
        let va: Vec<bool> = (0..64).map(|_| a.draw_device_loss().is_some()).collect();
        let vb: Vec<bool> = (0..64).map(|_| b.draw_device_loss().is_some()).collect();
        assert_ne!(va, vb, "sibling devices draw from independent streams");
    }

    #[test]
    #[should_panic(expected = "straggler slowdown must be >= 1")]
    fn rejects_speedup_stragglers() {
        FaultProfile::seeded(0).with_straggler(0.1, 0.5);
    }
}
