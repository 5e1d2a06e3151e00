//! Deterministic simulated-time model of the paper's test environment.
//!
//! The evaluation hardware (§5.3.3) — a dual 750 MHz SunBlade 1000, a
//! 440 MHz Ultra 10, and a 100 Mbps effective-bandwidth network — is long
//! gone, and wall-clock measurements on a modern laptop would reproduce
//! neither the CPU/network balance nor the fast/slow machine asymmetry
//! the paper's numbers rest on. This module models that environment: a
//! shared [`SimEnv`] is charged CPU microseconds (scaled by the executing
//! [`MachineSpec`]'s speed factor) — the middleware's priced work counts,
//! and a benchmark's own modelled computation — and byte transfers over
//! a [`LinkSpec`] (latency + serialization delay at the link's
//! bandwidth). The accumulated clock is the simulated elapsed time
//! of a synchronous RPC exchange, which is exactly what the paper's
//! tables report (milliseconds per call).

use std::sync::Arc;

use parking_lot::Mutex;

/// A machine participating in the experiment, characterized by how much
/// slower it is than the reference machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    /// Human-readable name (for reports).
    pub name: String,
    /// CPU time multiplier relative to the reference machine: the paper's
    /// fast 750 MHz node is `1.0`; its slow 440 MHz node is `750/440 ≈ 1.7`.
    pub speed_factor: f64,
}

impl MachineSpec {
    /// The paper's fast node: SunBlade 1000, 750 MHz (reference speed).
    pub fn fast() -> Self {
        MachineSpec {
            name: "sunblade-750MHz".to_owned(),
            speed_factor: 1.0,
        }
    }

    /// The paper's slow node: Ultra 10, 440 MHz.
    pub fn slow() -> Self {
        MachineSpec {
            name: "ultra10-440MHz".to_owned(),
            speed_factor: 750.0 / 440.0,
        }
    }

    /// A custom machine.
    pub fn new(name: impl Into<String>, speed_factor: f64) -> Self {
        assert!(speed_factor > 0.0, "speed factor must be positive");
        MachineSpec {
            name: name.into(),
            speed_factor,
        }
    }
}

/// A network link between two machines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// One-way latency in microseconds.
    pub latency_us: f64,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
}

impl LinkSpec {
    /// The paper's LAN: 100 Mbps effective bandwidth; we model a typical
    /// switched-Ethernet one-way latency of 200 µs.
    pub fn lan_100mbps() -> Self {
        LinkSpec {
            latency_us: 200.0,
            bandwidth_bps: 100e6,
        }
    }

    /// Two JVMs on one physical machine (Table 3's configuration):
    /// loopback transfers modelled as memory-speed (≈ 10 Gbps, 20 µs).
    pub fn same_machine() -> Self {
        LinkSpec {
            latency_us: 20.0,
            bandwidth_bps: 10e9,
        }
    }

    /// A zero-cost link: transfers are free. Used for the pure local
    /// baseline (Table 1), where no middleware runs at all.
    pub fn free() -> Self {
        LinkSpec {
            latency_us: 0.0,
            bandwidth_bps: f64::INFINITY,
        }
    }

    /// A custom link.
    pub fn new(latency_us: f64, bandwidth_bps: f64) -> Self {
        assert!(
            latency_us >= 0.0 && bandwidth_bps > 0.0,
            "invalid link parameters"
        );
        LinkSpec {
            latency_us,
            bandwidth_bps,
        }
    }

    /// Microseconds to move `bytes` one way over this link.
    pub fn transfer_us(&self, bytes: usize) -> f64 {
        if self.bandwidth_bps.is_infinite() {
            return self.latency_us;
        }
        self.latency_us + (bytes as f64 * 8.0) / self.bandwidth_bps * 1e6
    }
}

#[derive(Debug, Default)]
struct Tallies {
    cpu_us: f64,
    transfer_us: f64,
    bytes_sent: u64,
    messages: u64,
}

/// A point-in-time report of accumulated simulated costs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimReport {
    /// CPU microseconds, already scaled by machine speed factors.
    pub cpu_us: f64,
    /// Transfer microseconds (latency + bandwidth-limited serialization).
    pub transfer_us: f64,
    /// Total bytes sent across the link.
    pub bytes_sent: u64,
    /// Number of messages sent.
    pub messages: u64,
}

impl SimReport {
    /// Total simulated elapsed microseconds (synchronous exchange: CPU
    /// and transfer time add).
    pub fn total_us(&self) -> f64 {
        self.cpu_us + self.transfer_us
    }

    /// Total simulated elapsed milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_us() / 1000.0
    }
}

/// Shared simulated-cost accumulator for one experiment.
///
/// Clone handles freely; all clones share one clock. Transfers are
/// charged as frames are sent, CPU when a run's work counts are priced;
/// benchmarks snapshot with [`SimEnv::report`] and reset between
/// measurements with [`SimEnv::reset`].
#[derive(Clone, Debug, Default)]
pub struct SimEnv {
    inner: Arc<Mutex<Tallies>>,
}

impl SimEnv {
    /// Creates a fresh environment with the clock at zero.
    pub fn new() -> Self {
        SimEnv::default()
    }

    /// Charges `us` microseconds of CPU work executed on `machine`.
    pub fn charge_cpu(&self, machine: &MachineSpec, us: f64) {
        debug_assert!(us >= 0.0);
        self.inner.lock().cpu_us += us * machine.speed_factor;
    }

    /// Charges a one-way transfer of `bytes` over `link`.
    pub fn charge_transfer(&self, link: &LinkSpec, bytes: usize) {
        let mut t = self.inner.lock();
        t.transfer_us += link.transfer_us(bytes);
        t.bytes_sent += bytes as u64;
        t.messages += 1;
    }

    /// Snapshots the accumulated costs.
    pub fn report(&self) -> SimReport {
        let t = self.inner.lock();
        SimReport {
            cpu_us: t.cpu_us,
            transfer_us: t.transfer_us,
            bytes_sent: t.bytes_sent,
            messages: t.messages,
        }
    }

    /// Resets the clock and counters to zero.
    pub fn reset(&self) {
        *self.inner.lock() = Tallies::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_specs_match_paper_hardware() {
        let fast = MachineSpec::fast();
        let slow = MachineSpec::slow();
        assert_eq!(fast.speed_factor, 1.0);
        assert!((slow.speed_factor - 1.7045).abs() < 0.001);
    }

    #[test]
    #[should_panic(expected = "speed factor must be positive")]
    fn zero_speed_rejected() {
        let _ = MachineSpec::new("broken", 0.0);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let lan = LinkSpec::lan_100mbps();
        // 12,500 bytes = 100,000 bits = 1 ms at 100 Mbps, plus latency.
        let us = lan.transfer_us(12_500);
        assert!((us - (200.0 + 1000.0)).abs() < 1e-6, "{us}");
        // Free link: everything is latency (zero).
        assert_eq!(LinkSpec::free().transfer_us(1_000_000), 0.0);
    }

    #[test]
    fn same_machine_link_is_much_faster_than_lan() {
        let bytes = 50_000;
        assert!(
            LinkSpec::same_machine().transfer_us(bytes)
                < LinkSpec::lan_100mbps().transfer_us(bytes) / 10.0
        );
    }

    #[test]
    fn cpu_charges_scale_by_machine() {
        let env = SimEnv::new();
        env.charge_cpu(&MachineSpec::fast(), 100.0);
        env.charge_cpu(&MachineSpec::slow(), 100.0);
        let r = env.report();
        assert!((r.cpu_us - (100.0 + 100.0 * 750.0 / 440.0)).abs() < 1e-9);
    }

    #[test]
    fn transfer_accounting_and_reset() {
        let env = SimEnv::new();
        env.charge_transfer(&LinkSpec::lan_100mbps(), 1000);
        env.charge_transfer(&LinkSpec::lan_100mbps(), 2000);
        let r = env.report();
        assert_eq!(r.bytes_sent, 3000);
        assert_eq!(r.messages, 2);
        assert!(r.transfer_us > 0.0);
        assert!(r.total_ms() > 0.0);
        env.reset();
        assert_eq!(env.report(), SimReport::default());
    }

    #[test]
    fn clones_share_the_clock() {
        let env = SimEnv::new();
        let clone = env.clone();
        clone.charge_cpu(&MachineSpec::fast(), 42.0);
        assert_eq!(env.report().cpu_us, 42.0);
    }
}
