//! The replicated testbed: a thin builder and report over reflex-core's
//! [`Testbed`] in its N-site mode.

use std::sync::Arc;

use reflex_core::{
    AddrPattern, LoadPattern, MixProcess, ReflexServer, ServerConfig, TenantRecovery, Testbed,
    TestbedError, WorkloadReport, WorkloadSpec, World,
};
use reflex_faults::{FaultPlan, FaultStats};
use reflex_flash::DeviceProfile;
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::TenantClass;
use reflex_sim::{SimDuration, SimTime};
use reflex_telemetry::{Telemetry, TelemetrySnapshot};

use crate::spec::ReplWorkloadSpec;

/// Errors from [`ReplTestbed::add_workload`] (the core testbed's errors:
/// invalid spec, unknown client, replica placement, admission).
pub type ReplError = TestbedError;

/// The measurement report of a replicated run.
#[derive(Debug)]
pub struct ReplReport {
    /// Length of the measured window.
    pub window: SimDuration,
    /// One report per workload, in registration order. Latencies are
    /// whole-op: issue → ack quorum reached.
    pub workloads: Vec<WorkloadReport>,
    /// Failover timeline: one entry per (tenant, failover) pair.
    pub recoveries: Vec<TenantRecovery>,
    /// Total events dispatched since the testbed was built.
    pub engine_events: u64,
    /// Telemetry snapshot, when telemetry is enabled.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ReplReport {
    /// Finds a workload report by name.
    ///
    /// # Panics
    ///
    /// Panics if no workload has that name.
    pub fn workload(&self, name: &str) -> &WorkloadReport {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no workload named {name}"))
    }
}

/// Builder for a [`ReplTestbed`].
#[derive(Debug)]
pub struct ReplTestbedBuilder {
    sites: usize,
    replication: usize,
    device: DeviceProfile,
    link: LinkConfig,
    client_stacks: Vec<StackProfile>,
    detect_delay: SimDuration,
    resync_bytes_per_sec: f64,
    seed: u64,
}

impl Default for ReplTestbedBuilder {
    fn default() -> Self {
        ReplTestbedBuilder {
            sites: 3,
            replication: 3,
            device: reflex_flash::device_a(),
            link: LinkConfig::default(),
            client_stacks: vec![StackProfile::ix_tcp()],
            detect_delay: SimDuration::from_millis(30),
            // Background re-sync copies at 2 GiB/s — a deliberately
            // throttled fraction of device bandwidth so re-sync does not
            // starve foreground IO.
            resync_bytes_per_sec: 2.0 * (1u64 << 30) as f64,
            seed: 42,
        }
    }
}

impl ReplTestbedBuilder {
    /// Starts from defaults: three sites on device A, replication 3, one
    /// IX client machine, 30 ms failure detection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of server sites.
    pub fn sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }

    /// Sets the replication factor R (each tenant's set size).
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Sets the Flash device profile (every site gets its own device).
    pub fn device(mut self, profile: DeviceProfile) -> Self {
        self.device = profile;
        self
    }

    /// Sets the fabric link configuration.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Replaces the client machines (one entry per machine).
    pub fn client_machines(mut self, stacks: Vec<StackProfile>) -> Self {
        self.client_stacks = stacks;
        self
    }

    /// Sets the coordinator's failure-detection delay (death → failover).
    pub fn detect_delay(mut self, delay: SimDuration) -> Self {
        self.detect_delay = delay;
        self
    }

    /// Sets the modelled background re-sync copy rate in bytes/second.
    pub fn resync_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.resync_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Sets the RNG seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the testbed: one single-thread ReFlex server per site, no
    /// auto-scaling, so routes never rebalance at runtime and sharded
    /// runs stay byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured, or if the replication
    /// factor is 0, exceeds [`reflex_core::MAX_REPLICAS`], or exceeds the
    /// site count.
    pub fn build(self) -> ReplTestbed {
        let tb = Testbed::builder()
            .device(self.device)
            .link(self.link)
            .client_machines(self.client_stacks)
            .server(ServerConfig {
                threads: 1,
                max_threads: 1,
                auto_scale: false,
                ..ServerConfig::default()
            })
            .seed(self.seed)
            .build_replicated(
                self.sites,
                self.replication,
                self.detect_delay,
                self.resync_bytes_per_sec,
            );
        ReplTestbed { tb }
    }
}

/// The assembled replicated simulation. See the crate documentation.
#[derive(Debug)]
pub struct ReplTestbed {
    tb: Testbed<ReflexServer>,
}

impl ReplTestbed {
    /// Starts building a replicated testbed.
    pub fn builder() -> ReplTestbedBuilder {
        ReplTestbedBuilder::new()
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.tb.now()
    }

    /// Number of shards the simulation runs on.
    pub fn shards(&self) -> usize {
        self.tb.shards()
    }

    /// Shared access to the world (shard 0 — the sites' shard).
    pub fn world(&self) -> &World {
        self.tb.world()
    }

    /// Exclusive access to the world (shard 0 when sharded).
    pub fn world_mut(&mut self) -> &mut World {
        self.tb.world_mut()
    }

    /// Site indices of workload `w_idx`'s current members, slot order
    /// (membership changes only via failover, which runs on shard 0).
    pub fn member_sites(&self, w_idx: usize) -> Vec<usize> {
        self.tb.world().member_sites(w_idx)
    }

    /// Splits the world by machine across up to `n` OS threads exactly
    /// like [`Testbed::with_shards`]: shard 0 keeps every server site and
    /// the coordinator, and results are byte-identical to the
    /// single-shard run.
    ///
    /// # Panics
    ///
    /// Panics if called after a workload was added or after the
    /// simulation has started running.
    pub fn with_shards(self, n: usize) -> Self {
        ReplTestbed {
            tb: self.tb.with_shards(n),
        }
    }

    /// Registers a replicated workload: places its replica set, admits
    /// the tenant on every member site, binds per-member connections and
    /// starts the open-loop generator.
    ///
    /// # Errors
    ///
    /// See [`ReplError`]. An admission failure partway through leaves
    /// the tenant registered on earlier members (like the core testbed,
    /// the builder-phase API does not roll back).
    pub fn add_workload(&mut self, spec: ReplWorkloadSpec) -> Result<(), ReplError> {
        spec.validate().map_err(ReplError::InvalidSpec)?;
        let core = WorkloadSpec {
            name: spec.name,
            tenant: spec.tenant,
            class: TenantClass::LatencyCritical(spec.slo),
            pattern: LoadPattern::OpenLoop { iops: spec.iops },
            read_pct: spec.read_pct,
            io_size: spec.io_size,
            conns: spec.conns,
            client_threads: spec.client_threads,
            client_machine: spec.client_machine,
            shards: 1,
            arrival: spec.arrival,
            // A deterministic read/write interleaving: every run (and
            // every shard count) sees the same sequence.
            mix: MixProcess::Deterministic,
            addr_pattern: AddrPattern::UniformRandom,
            namespace: spec.namespace,
            trace: None,
            retry: spec.retry,
        };
        self.tb.add_replicated(core, spec.read_policy)
    }

    /// Installs a fault plan through [`reflex_faults::install`]: each
    /// [`reflex_faults::FaultKind::ServerDeath`] arms the victim site's
    /// device-death hook and a permanent link blackout on its machine,
    /// and schedules the death plus coordinator failover (death +
    /// detection delay).
    ///
    /// # Panics
    ///
    /// See [`reflex_faults::install`] (sharded testbeds and deaths of
    /// sites outside the testbed panic).
    pub fn install(&mut self, plan: &FaultPlan) -> Arc<FaultStats> {
        reflex_faults::install(plan, &mut self.tb)
    }

    /// Marks the end of warmup: clears all histograms and counters so the
    /// next [`report`](Self::report) covers only what follows.
    pub fn begin_measurement(&mut self) {
        self.tb.begin_measurement();
    }

    /// Advances the simulation by `span` (all shards in lockstep windows
    /// when sharded).
    pub fn run(&mut self, span: SimDuration) {
        self.tb.run(span);
    }

    /// Produces the measurement report for the window since
    /// [`begin_measurement`](Self::begin_measurement).
    pub fn report(&self) -> ReplReport {
        let report = self.tb.report();
        ReplReport {
            window: report.window,
            workloads: report.workloads,
            recoveries: self.tb.world().timeline().to_vec(),
            engine_events: report.engine_events,
            telemetry: report.telemetry,
        }
    }

    /// Turns on telemetry across every site, the fabric, the coordinator
    /// and the engine probes. Recording is strictly passive, so an
    /// instrumented run is byte-identical to an uninstrumented one.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        self.tb.enable_telemetry()
    }

    /// Installs `telemetry` on every instrumented component (pass
    /// [`Telemetry::disabled`] to switch recording back off).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.tb.set_telemetry(telemetry);
    }

    /// The current telemetry snapshot, when telemetry is enabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.tb.telemetry_snapshot()
    }
}
