//! Runtime cost profiles: the simulated-time model of middleware CPU work.
//!
//! The paper evaluates four middleware stacks — RMI on JDK 1.3, RMI on
//! JDK 1.4, and NRMI in a *portable* (reflection-based) and an
//! *optimized* (`Unsafe`-based) implementation (§5.3.1). None of those
//! stacks exist here, so their processing costs are modelled: each stack
//! is a [`RuntimeProfile`] yielding a [`CostModel`] of per-call,
//! per-object, and per-byte CPU microseconds.
//!
//! The model observes; it is not on the call path. Every node counts
//! the work its middleware really does — calls, dispatches, objects
//! (de)serialized, bytes, linear-map entries, restores, callbacks — into
//! its [`WorkCounts`] tally, and nothing else. [`CostModel::price`] turns
//! a tally into 2003-hardware microseconds; the simulated session prices
//! each node's tally on that node's machine into its
//! [`SimEnv`](nrmi_transport::SimEnv) once the run is over (real
//! serialization still runs — the model only prices it).
//!
//! Constants are calibrated so that the benchmark harness reproduces the
//! *shape* of Tables 1–6: JDK 1.4 roughly 50–60% faster than 1.3,
//! optimized NRMI ≈ 20% over JDK 1.4 RMI-with-restore, portable NRMI
//! ≤ 30% over, and remote references an order of magnitude slower with
//! per-access round trips. EXPERIMENTS.md records the paper-vs-measured
//! comparison.

/// Which JDK generation's RMI stack is being modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JdkGeneration {
    /// JDK 1.3: layered, reflection-heavy serialization.
    Jdk13,
    /// JDK 1.4: flattened implementation with direct memory access.
    Jdk14,
}

/// Which NRMI implementation's restore machinery is being modelled
/// (§5.3.1). Irrelevant for plain RMI calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NrmiFlavor {
    /// Reflection-based traversal with aggressive caching; works on both
    /// JDK generations.
    Portable,
    /// Direct object access via the JVM's `Unsafe`; JDK 1.4 only.
    Optimized,
}

/// Per-operation CPU costs in microseconds (at reference-machine speed;
/// the [`SimEnv`](nrmi_transport::SimEnv) scales them per machine).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed client-side cost per remote call (stub dispatch, connection
    /// handling, security checks).
    pub call_overhead_us: f64,
    /// Fixed server-side cost per remote call (skeleton dispatch).
    pub dispatch_overhead_us: f64,
    /// Serializing one object.
    pub ser_per_obj_us: f64,
    /// Deserializing one object.
    pub de_per_obj_us: f64,
    /// Per-byte marshalling cost (both directions).
    pub per_byte_us: f64,
    /// NRMI only: recording one object in the linear map during
    /// (de)serialization (§5.2.1 — "the overhead is minuscule").
    pub linear_map_per_obj_us: f64,
    /// NRMI only: client-side restore per old object (matching the maps,
    /// overwriting, pointer conversion — steps 4–6).
    pub restore_per_obj_us: f64,
    /// Remote-pointer mode: processing one callback at the object's
    /// owner (unmarshal request, heap access, marshal reply).
    pub callback_owner_us: f64,
    /// Remote-pointer mode: issuing one callback from the server's heap
    /// proxy (marshal request, block, unmarshal reply).
    pub callback_proxy_us: f64,
}

/// What a node's middleware did, counted in the units [`CostModel`]
/// prices: one field per coefficient. The call path increments these
/// and nothing more; [`CostModel::price`] is the only reader that turns
/// them into time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Client-side remote calls issued ([`CostModel::call_overhead_us`]).
    pub calls: u64,
    /// Server-side calls dispatched ([`CostModel::dispatch_overhead_us`]).
    pub dispatches: u64,
    /// Objects serialized ([`CostModel::ser_per_obj_us`]).
    pub objects_serialized: u64,
    /// Objects deserialized ([`CostModel::de_per_obj_us`]).
    pub objects_deserialized: u64,
    /// Payload bytes marshalled, either direction
    /// ([`CostModel::per_byte_us`]).
    pub bytes: u64,
    /// Linear-map entries recorded
    /// ([`CostModel::linear_map_per_obj_us`]).
    pub linear_map_entries: u64,
    /// Old objects restored in place ([`CostModel::restore_per_obj_us`]).
    pub objects_restored: u64,
    /// Callbacks served as the objects' owner
    /// ([`CostModel::callback_owner_us`]).
    pub owner_callbacks: u64,
    /// Callbacks issued through the server's heap proxy
    /// ([`CostModel::callback_proxy_us`]).
    pub proxy_callbacks: u64,
}

impl WorkCounts {
    /// Counts `objects` serialized into a payload of `bytes`.
    pub fn encode(&mut self, objects: usize, bytes: usize) {
        self.objects_serialized += objects as u64;
        self.bytes += bytes as u64;
    }

    /// Counts `objects` deserialized from a payload of `bytes`.
    pub fn decode(&mut self, objects: usize, bytes: usize) {
        self.objects_deserialized += objects as u64;
        self.bytes += bytes as u64;
    }
}

impl CostModel {
    /// Reference-machine CPU microseconds for `work`: each count times
    /// its coefficient. Linear, so a run's tally prices the same as the
    /// sum of its calls' prices.
    pub fn price(&self, work: &WorkCounts) -> f64 {
        work.calls as f64 * self.call_overhead_us
            + work.dispatches as f64 * self.dispatch_overhead_us
            + work.objects_serialized as f64 * self.ser_per_obj_us
            + work.objects_deserialized as f64 * self.de_per_obj_us
            + work.bytes as f64 * self.per_byte_us
            + work.linear_map_entries as f64 * self.linear_map_per_obj_us
            + work.objects_restored as f64 * self.restore_per_obj_us
            + work.owner_callbacks as f64 * self.callback_owner_us
            + work.proxy_callbacks as f64 * self.callback_proxy_us
    }
}

/// A modelled middleware stack: JDK generation plus NRMI flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RuntimeProfile {
    /// The JDK generation being modelled.
    pub jdk: JdkGeneration,
    /// The NRMI implementation being modelled (ignored by plain RMI
    /// paths).
    pub flavor: NrmiFlavor,
}

impl RuntimeProfile {
    /// RMI/NRMI on JDK 1.3 (portable NRMI — the only one that runs there).
    pub fn jdk13() -> Self {
        RuntimeProfile {
            jdk: JdkGeneration::Jdk13,
            flavor: NrmiFlavor::Portable,
        }
    }

    /// RMI/NRMI on JDK 1.4 with the portable NRMI implementation.
    pub fn jdk14_portable() -> Self {
        RuntimeProfile {
            jdk: JdkGeneration::Jdk14,
            flavor: NrmiFlavor::Portable,
        }
    }

    /// RMI/NRMI on JDK 1.4 with the optimized NRMI implementation.
    pub fn jdk14_optimized() -> Self {
        RuntimeProfile {
            jdk: JdkGeneration::Jdk14,
            flavor: NrmiFlavor::Optimized,
        }
    }

    /// The cost model for this stack.
    pub fn cost(&self) -> CostModel {
        // JDK 1.4 base costs, calibrated against Table 2 (one-way RMI):
        // ser+de of a 1024-node tree plus fixed overheads ≈ 33 ms.
        let base = CostModel {
            call_overhead_us: 700.0,
            dispatch_overhead_us: 300.0,
            ser_per_obj_us: 10.0,
            de_per_obj_us: 11.0,
            per_byte_us: 0.02,
            linear_map_per_obj_us: 0.4,
            restore_per_obj_us: match self.flavor {
                // Reflection-driven field updates, mitigated by caching.
                NrmiFlavor::Portable => 12.0,
                // Direct access through Unsafe.
                NrmiFlavor::Optimized => 6.0,
            },
            callback_owner_us: 160.0,
            callback_proxy_us: 160.0,
        };
        match self.jdk {
            JdkGeneration::Jdk14 => base,
            // JDK 1.3: the paper measures 1.4 as 50-60% faster overall;
            // serialization-heavy costs scale up accordingly, and the
            // portable NRMI reflection path is pricier still.
            JdkGeneration::Jdk13 => CostModel {
                call_overhead_us: base.call_overhead_us * 1.6,
                dispatch_overhead_us: base.dispatch_overhead_us * 1.6,
                ser_per_obj_us: base.ser_per_obj_us * 1.8,
                de_per_obj_us: base.de_per_obj_us * 1.8,
                per_byte_us: base.per_byte_us * 2.0,
                linear_map_per_obj_us: base.linear_map_per_obj_us * 2.0,
                restore_per_obj_us: 13.0,
                callback_owner_us: base.callback_owner_us * 1.3,
                callback_proxy_us: base.callback_proxy_us * 1.3,
            },
        }
    }
}

impl Default for RuntimeProfile {
    fn default() -> Self {
        RuntimeProfile::jdk14_optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jdk13_is_uniformly_slower_for_marshalling() {
        let c13 = RuntimeProfile::jdk13().cost();
        let c14 = RuntimeProfile::jdk14_optimized().cost();
        assert!(c13.ser_per_obj_us > c14.ser_per_obj_us);
        assert!(c13.de_per_obj_us > c14.de_per_obj_us);
        assert!(c13.call_overhead_us > c14.call_overhead_us);
    }

    #[test]
    fn optimized_restore_beats_portable() {
        let portable = RuntimeProfile::jdk14_portable().cost();
        let optimized = RuntimeProfile::jdk14_optimized().cost();
        assert!(optimized.restore_per_obj_us < portable.restore_per_obj_us);
        // Only the NRMI-specific path differs between flavors on 1.4.
        assert_eq!(optimized.ser_per_obj_us, portable.ser_per_obj_us);
    }

    #[test]
    fn linear_map_overhead_is_minuscule() {
        // §5.2.1: the map is a by-product of serialization; its cost must
        // be a small fraction of serialization itself.
        let c = RuntimeProfile::default().cost();
        assert!(c.linear_map_per_obj_us < c.ser_per_obj_us / 10.0);
    }

    #[test]
    fn price_is_linear_in_the_counts() {
        let a = WorkCounts {
            calls: 1,
            dispatches: 2,
            objects_serialized: 1023,
            objects_deserialized: 517,
            bytes: 11_967,
            linear_map_entries: 1024,
            objects_restored: 1000,
            owner_callbacks: 3,
            proxy_callbacks: 5,
        };
        let b = WorkCounts {
            calls: 7,
            objects_deserialized: 3,
            bytes: 11,
            objects_restored: 2,
            proxy_callbacks: 64,
            ..WorkCounts::default()
        };
        let sum = WorkCounts {
            calls: a.calls + b.calls,
            dispatches: a.dispatches + b.dispatches,
            objects_serialized: a.objects_serialized + b.objects_serialized,
            objects_deserialized: a.objects_deserialized + b.objects_deserialized,
            bytes: a.bytes + b.bytes,
            linear_map_entries: a.linear_map_entries + b.linear_map_entries,
            objects_restored: a.objects_restored + b.objects_restored,
            owner_callbacks: a.owner_callbacks + b.owner_callbacks,
            proxy_callbacks: a.proxy_callbacks + b.proxy_callbacks,
        };
        for profile in [
            RuntimeProfile::jdk13(),
            RuntimeProfile::jdk14_portable(),
            RuntimeProfile::jdk14_optimized(),
        ] {
            let c = profile.cost();
            let (whole, parts) = (c.price(&sum), c.price(&a) + c.price(&b));
            assert!((whole - parts).abs() <= 1e-9 * whole, "{whole} vs {parts}");
            assert_eq!(c.price(&WorkCounts::default()), 0.0);
        }
    }

    #[test]
    fn each_count_prices_at_its_own_coefficient() {
        let c = RuntimeProfile::jdk13().cost();
        let one = |f: fn(&mut WorkCounts)| {
            let mut w = WorkCounts::default();
            f(&mut w);
            c.price(&w)
        };
        assert_eq!(one(|w| w.calls = 1), c.call_overhead_us);
        assert_eq!(one(|w| w.dispatches = 1), c.dispatch_overhead_us);
        assert_eq!(one(|w| w.objects_serialized = 1), c.ser_per_obj_us);
        assert_eq!(one(|w| w.objects_deserialized = 1), c.de_per_obj_us);
        assert_eq!(one(|w| w.bytes = 1), c.per_byte_us);
        assert_eq!(one(|w| w.linear_map_entries = 1), c.linear_map_per_obj_us);
        assert_eq!(one(|w| w.objects_restored = 1), c.restore_per_obj_us);
        assert_eq!(one(|w| w.owner_callbacks = 1), c.callback_owner_us);
        assert_eq!(one(|w| w.proxy_callbacks = 1), c.callback_proxy_us);
    }

    #[test]
    fn default_is_modern_optimized() {
        assert_eq!(RuntimeProfile::default(), RuntimeProfile::jdk14_optimized());
    }
}
