//! The Testbed: clients ↔ fabric ↔ ReFlex server ↔ Flash, in one engine.
//!
//! [`Testbed`] wires every component of the reproduction into a single
//! deterministic discrete-event simulation, mirroring the paper's
//! experimental setup (§5.1): client machines running load generators, a
//! 10GbE switch fabric, and a server machine with NVMe Flash running the
//! ReFlex dataplane. Workloads are described declaratively
//! ([`WorkloadSpec`](crate::WorkloadSpec)) and measured with
//! warmup-then-measure windows, exactly like mutilate.

use std::collections::HashMap;

use reflex_dataplane::WireMsg;
use reflex_flash::{DeviceProfile, DeviceStats, FlashDevice};
use reflex_net::{
    ConnId, Delivery, Fabric, Flight, LinkConfig, MachineId, NicQueueId, Opcode, ReflexHeader,
    StackProfile,
};
use reflex_qos::{CostModel, TenantId};
use reflex_sim::{
    Ctx, Engine, EventHandle, LookaheadPolicy, PoolKey, ShardStats, ShardWorld, ShardedEngine,
    SimDuration, SimRng, SimTime, SlabPool, TypedEvent, Zipf,
};
use reflex_telemetry::{ShardCounter, Stage, Telemetry, TelemetrySnapshot, TenantKey};

use crate::capacity::CapacityProfile;
use crate::client::{
    AddrPattern, ArrivalProcess, LoadPattern, MixProcess, OutstandingReq, WorkloadReport,
    WorkloadSpec, WorkloadState,
};
use crate::cluster::{ClusterPlanner, PlacementError, ServerDescriptor, ServerId};
use crate::harness::ServerHarness;
use crate::replica::{ReadPolicy, ReplicaSets};
use crate::replicated::{MemberLink, ReplControl, ReplOp};
use crate::server::{AdmissionError, ReflexServer, ServerConfig};

/// Errors configuring a testbed.
#[derive(Debug)]
pub enum TestbedError {
    /// The workload spec failed validation.
    InvalidSpec(String),
    /// The spec referenced a client machine that does not exist.
    NoSuchClient(usize),
    /// Tenant registration failed.
    Admission(AdmissionError),
    /// The coordinator could not place a replicated workload's replica
    /// set.
    Placement(PlacementError),
}

impl std::fmt::Display for TestbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestbedError::InvalidSpec(s) => write!(f, "invalid workload: {s}"),
            TestbedError::NoSuchClient(i) => write!(f, "no client machine {i}"),
            TestbedError::Admission(e) => write!(f, "admission: {e}"),
            TestbedError::Placement(e) => write!(f, "replica placement failed: {e}"),
        }
    }
}

impl std::error::Error for TestbedError {}

impl From<AdmissionError> for TestbedError {
    fn from(e: AdmissionError) -> Self {
        TestbedError::Admission(e)
    }
}

impl From<PlacementError> for TestbedError {
    fn from(e: PlacementError) -> Self {
        TestbedError::Placement(e)
    }
}

#[derive(Clone)]
pub(crate) struct ClientMachine {
    pub(crate) machine: MachineId,
    stack: StackProfile,
}

/// One server site: a server machine with its own Flash device. A
/// single-server testbed has one site; a replicated testbed has one per
/// replica-hosting server.
pub(crate) struct Site<S> {
    pub(crate) machine: MachineId,
    /// Server and device live on shard 0 only; client shards carry `None`
    /// and route requests through `route_table` instead.
    pub(crate) server: Option<S>,
    pub(crate) device: Option<FlashDevice>,
    /// Index of this site's thread 0 in the world's per-thread tables.
    first_thread: usize,
    /// Worker-thread bound of this site's server.
    threads: usize,
}

/// What a fabric machine is in a [`World`]: a site's server (by site
/// index), a client machine (by client index), or neither.
#[derive(Clone, Copy)]
enum Endpoint {
    Site(usize),
    Client(usize),
    Other,
}

impl<S> Site<S> {
    /// This site's placement, with its server and device moved out of
    /// `self` (a second call finds them gone: shard 0 takes them, every
    /// later shard gets an empty site).
    fn take(&mut self) -> Site<S> {
        Site {
            machine: self.machine,
            server: self.server.take(),
            device: self.device.take(),
            first_thread: self.first_thread,
            threads: self.threads,
        }
    }
}

/// The recurring simulation events, dispatched through the engine's typed
/// event path so the request loop — including the retry/backoff path,
/// which can become hot under adversarial overload — allocates no
/// per-event closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldEvent {
    /// Wake server thread `i` and run its dataplane pump loop.
    PumpThread(usize),
    /// Poll client machine `i` for delivered responses.
    ClientPoll(usize),
    /// Response deadline for the request whose slab key packs to `cookie`.
    /// Generation checking makes a stale deadline (request already
    /// answered, slot reused) a no-op.
    Timeout(u64),
    /// Open-loop generator tick for workload `i`.
    OpenLoopGen(usize),
    /// Replay step `pos` of workload `w_idx`'s trace (replay began at
    /// `started`).
    TraceReplay {
        /// Workload index.
        w_idx: usize,
        /// Position in the trace.
        pos: usize,
        /// Simulated instant replay began.
        started: SimTime,
    },
    /// Periodic control-plane tick.
    Control(SimDuration),
    /// Issue one request on `conn_idx` of workload `w_idx` (closed-loop
    /// kickoff).
    Issue {
        /// Workload index.
        w_idx: usize,
        /// Connection index within the workload.
        conn_idx: usize,
    },
    /// Fire every staged retransmission whose backoff has elapsed, in
    /// canonical order (see [`World::retry_fire_event`]).
    RetryFire,
    /// Site `i`'s server dies (bookkeeping; the armed fault hooks do the
    /// actual damage).
    ServerDeath(usize),
    /// The replica-set coordinator detects site `i`'s death and fails
    /// over every affected set.
    Failover(usize),
    /// Replacement member `slot` of workload `w_idx` finished re-syncing
    /// under membership `epoch`.
    ResyncDone {
        /// Workload index.
        w_idx: usize,
        /// Replica slot.
        slot: usize,
        /// Membership epoch the re-sync started under; a stale epoch
        /// (another failover happened meanwhile) is ignored.
        epoch: u32,
    },
}

/// A staged retransmission. Typed instead of a boxed closure so the retry
/// path neither allocates per attempt nor depends on event insertion
/// order — due records are drained in an order derived from the request
/// itself, which is the same in a mono run and a sharded run.
#[derive(Clone, Copy)]
pub(crate) struct RetryRec {
    pub(crate) fire_at: SimTime,
    /// The attempt to transmit (its `attempt` already incremented).
    pub(crate) req: OutstandingReq,
}

impl<S: ServerHarness + 'static> TypedEvent<World<S>> for WorldEvent {
    fn dispatch(self, world: &mut World<S>, ctx: &mut Ctx<'_, World<S>, WorldEvent>) {
        // Windowed delivery: raise the fabric's resolution horizon to this
        // event's scheduled instant before any handler looks at arrivals.
        // (The event's *scheduled* time, not a busy-advanced one, so the
        // horizon is a pure function of the event timeline.)
        world.fabric.observe(ctx.now());
        match self {
            WorldEvent::PumpThread(i) => world.pump_event(i, ctx),
            WorldEvent::ClientPoll(i) => world.client_poll_event(i, ctx),
            WorldEvent::Timeout(cookie) => world.timeout_event(cookie, ctx),
            WorldEvent::OpenLoopGen(i) => world.open_loop_gen_event(i, ctx),
            WorldEvent::TraceReplay {
                w_idx,
                pos,
                started,
            } => world.trace_replay_event(w_idx, pos, started, ctx),
            WorldEvent::Control(interval) => world.control_event(interval, ctx),
            WorldEvent::Issue { w_idx, conn_idx } => world.issue_request(w_idx, conn_idx, ctx),
            WorldEvent::RetryFire => world.retry_fire_event(ctx),
            WorldEvent::ServerDeath(site) => world.server_death_event(site, ctx),
            WorldEvent::Failover(site) => world.failover_event(site, ctx),
            WorldEvent::ResyncDone { w_idx, slot, epoch } => {
                world.resync_done_event(w_idx, slot, epoch);
            }
        }
    }
}

/// The simulation world: every component plus scheduling bookkeeping.
///
/// Holds 1..N server [sites](Self::site_count). A single-server testbed
/// is the one-site case; a replicated testbed (see
/// [`TestbedBuilder::build_replicated`]) adds a replica-set coordinator
/// and fans each replicated op out over several sites. Accessors that
/// name "the" server or device refer to site 0.
pub struct World<S: ServerHarness = ReflexServer> {
    pub(crate) fabric: Fabric<WireMsg>,
    pub(crate) sites: Vec<Site<S>>,
    /// Static conn → NIC-queue routes cached at bind time, consulted by
    /// shards that do not hold the server (sharding requires servers whose
    /// routing is static — see [`ServerHarness::supports_sharding`]).
    pub(crate) route_table: HashMap<ConnId, NicQueueId>,
    /// Whether client machine `i` is simulated by this world (all true in
    /// a single-shard run).
    client_local: Vec<bool>,
    /// Seed from which per-workload RNG streams derive
    /// ([`SimRng::stream`] keyed by registration index, so a workload's
    /// draws do not depend on what other workloads do).
    gen_seed: u64,
    pub(crate) clients: Vec<ClientMachine>,
    /// Machine id → site or client index, built once at construction so
    /// cross-shard flight delivery routes wakes without a linear search.
    endpoints: Vec<Endpoint>,
    pub(crate) workloads: Vec<WorkloadState>,
    client_threads_busy: Vec<Vec<SimTime>>, // [workload][client thread]
    // In-flight attempts live in a slab; the pool key (slot + generation)
    // packs into the wire cookie, so responses and timeouts look the
    // attempt up by index with no hashing and slot reuse recycles storage.
    // Replicated sub-requests live here too, linked to their op.
    outstanding: SlabPool<OutstandingReq>,
    /// Quorum accounting of in-flight replicated ops.
    pub(crate) ops: SlabPool<ReplOp>,
    // Recycled buffer for client-side response polling (a fresh Vec per
    // poll event would be the last per-IO allocation on the client path).
    poll_scratch: Vec<Delivery<WireMsg>>,
    // Staged retransmissions plus a recycled drain buffer (see
    // `retry_fire_event`). Both keep their capacity across a retry storm,
    // so sustained timeouts stay allocation-free.
    retries_pending: Vec<RetryRec>,
    retry_scratch: Vec<RetryRec>,
    // Pending wake per server thread (all sites' threads, site by site) /
    // client machine: the instant plus a handle to the scheduled event, so
    // re-arming to an earlier instant cancels the old wake instead of
    // leaving a dead event in the queue.
    thread_wake: Vec<Option<(SimTime, EventHandle)>>,
    client_wake: Vec<Option<(SimTime, EventHandle)>>,
    pub(crate) measure_start: Option<SimTime>,
    busy_snapshot: Vec<SimDuration>,
    sched_snapshot: Vec<SimDuration>,
    spent_snapshot: HashMap<TenantId, i64>,
    gen_cursor: Vec<usize>,
    zipf: Vec<Option<Zipf>>,
    // Disabled by default: a single branch on the hot path. When enabled
    // (see [`Testbed::enable_telemetry`]) the same handle is shared by the
    // device, fabric, server threads and the client-side span/SLO probes.
    pub(crate) telemetry: Telemetry,
    /// Replica-set coordinator and failover timeline (replicated testbeds
    /// only, on shard 0 with the sites — fault campaigns pin to a single
    /// shard, so failover only reshapes membership where generators run).
    pub(crate) repl: Option<ReplControl>,
}

impl<S: ServerHarness> std::fmt::Debug for World<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("sites", &self.sites.len())
            .field("workloads", &self.workloads.len())
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

impl<S: ServerHarness + 'static> World<S> {
    /// A world around `sites` with every client machine and thread local
    /// and no workloads yet.
    fn new(
        fabric: Fabric<WireMsg>,
        sites: Vec<Site<S>>,
        clients: Vec<ClientMachine>,
        gen_seed: u64,
        telemetry: Telemetry,
    ) -> Self {
        let n_threads = sites.iter().map(|s| s.threads).sum();
        let mut endpoints = vec![Endpoint::Other; fabric.machines()];
        for (i, c) in clients.iter().enumerate() {
            endpoints[c.machine.0 as usize] = Endpoint::Client(i);
        }
        for (i, st) in sites.iter().enumerate() {
            endpoints[st.machine.0 as usize] = Endpoint::Site(i);
        }
        World {
            fabric,
            sites,
            route_table: HashMap::new(),
            client_local: vec![true; clients.len()],
            gen_seed,
            client_wake: vec![None; clients.len()],
            clients,
            endpoints,
            workloads: Vec::new(),
            client_threads_busy: Vec::new(),
            outstanding: SlabPool::new(),
            ops: SlabPool::new(),
            poll_scratch: Vec::new(),
            retries_pending: Vec::new(),
            retry_scratch: Vec::new(),
            thread_wake: vec![None; n_threads],
            measure_start: None,
            busy_snapshot: Vec::new(),
            sched_snapshot: Vec::new(),
            spent_snapshot: HashMap::new(),
            gen_cursor: Vec::new(),
            zipf: Vec::new(),
            telemetry,
            repl: None,
        }
    }

    /// The simulated Flash device (site 0's).
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the device lives on shard 0).
    pub fn device(&self) -> &FlashDevice {
        self.sites[0]
            .device
            .as_ref()
            .expect("device lives on the server shard")
    }

    /// Exclusive access to the device (fault injection installs hooks
    /// here).
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the device lives on shard 0).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        self.site_device_mut(0)
    }

    /// Exclusive access to site `site`'s device.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range or on a client shard's world.
    pub fn site_device_mut(&mut self, site: usize) -> &mut FlashDevice {
        self.sites[site]
            .device
            .as_mut()
            .expect("device lives on the server shard")
    }

    /// Number of server sites (1 unless built replicated).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Machine id of server site `site` (panics if out of range).
    pub fn site_machine(&self, site: usize) -> MachineId {
        self.sites[site].machine
    }

    /// The network fabric.
    pub fn fabric(&self) -> &Fabric<WireMsg> {
        &self.fabric
    }

    /// Exclusive access to the fabric (fault injection installs hooks and
    /// swaps stack profiles here).
    pub fn fabric_mut(&mut self) -> &mut Fabric<WireMsg> {
        &mut self.fabric
    }

    /// The server under test (site 0's).
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the server lives on shard 0).
    pub fn server(&self) -> &S {
        self.sites[0]
            .server
            .as_ref()
            .expect("server lives on shard 0")
    }

    /// Exclusive access to the server (tests and advanced harnesses).
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the server lives on shard 0).
    pub fn server_mut(&mut self) -> &mut S {
        self.sites[0]
            .server
            .as_mut()
            .expect("server lives on shard 0")
    }

    /// Machine id of client machine `idx` (panics if out of range).
    pub fn client_machine(&self, idx: usize) -> MachineId {
        self.clients[idx].machine
    }

    /// Number of client machines.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Stops every workload generator: open-loop generators cease and
    /// closed-loop connections stop re-issuing, letting queues drain.
    pub fn stop_all_workloads(&mut self) {
        for w in &mut self.workloads {
            w.stopped = true;
        }
    }

    /// The site owning global thread index `thread`.
    fn site_of_thread(&self, thread: usize) -> usize {
        self.sites
            .iter()
            .rposition(|s| s.first_thread <= thread)
            .expect("site 0 owns thread 0")
    }

    fn ensure_thread_wake(
        &mut self,
        ctx: &mut Ctx<World<S>, WorldEvent>,
        thread: usize,
        at: SimTime,
    ) {
        // Every server thread lives on the shard holding the servers
        // (shard 0); client shards never arm server wakes.
        debug_assert!(
            self.sites[0].server.is_some(),
            "thread wake off the server shard"
        );
        let at = at.max(ctx.now());
        if let Some((pending, _)) = self.thread_wake[thread] {
            if at >= pending {
                return; // an earlier (or equal) wake is already armed
            }
        }
        let handle = ctx.schedule_event_at_handle(at, WorldEvent::PumpThread(thread));
        if let Some((_, stale)) = self.thread_wake[thread].replace((at, handle)) {
            ctx.cancel(stale);
        }
    }

    fn ensure_client_wake(&mut self, ctx: &mut Ctx<World<S>, WorldEvent>, client: usize) {
        let machine = self.clients[client].machine;
        let Some(at) = self.fabric.next_arrival(machine) else {
            return;
        };
        let at = at.max(ctx.now());
        if let Some((pending, _)) = self.client_wake[client] {
            if at >= pending {
                return;
            }
        }
        let handle = ctx.schedule_event_at_handle(at, WorldEvent::ClientPoll(client));
        if let Some((_, stale)) = self.client_wake[client].replace((at, handle)) {
            ctx.cancel(stale);
        }
    }

    fn pump_event(&mut self, thread: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        // Canonical same-instant order: wake *insertion* order can differ
        // between a single-shard run (wakes armed at send time) and a
        // sharded run (wakes armed at the window exchange), so one pump
        // event services every thread whose wake is due, in ascending
        // thread order (sites in order), cancelling the siblings' queued
        // events. The pump sequence then depends only on the due set,
        // never on insertion order.
        let now = ctx.now();
        for i in 0..self.thread_wake.len() {
            let due = i == thread || self.thread_wake[i].is_some_and(|(at, _)| at <= now);
            if !due {
                continue;
            }
            if let Some((_, stale)) = self.thread_wake[i].take() {
                if i != thread {
                    ctx.cancel(stale);
                }
            }
            self.pump_one(i, ctx);
        }
    }

    fn pump_one(&mut self, thread: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let site = self.site_of_thread(thread);
        let st = &mut self.sites[site];
        let first = st.first_thread;
        let server = st.server.as_mut().expect("pump runs on the server shard");
        let device = st.device.as_mut().expect("device lives with the server");
        let wake = server.pump_thread(thread - first, ctx.now(), &mut self.fabric, device);
        if let Some(at) = wake {
            self.ensure_thread_wake(ctx, thread, at);
        }
        // Responses (and rebalance forwards) may now be in flight.
        for c in 0..self.clients.len() {
            if self.client_local[c] {
                self.ensure_client_wake(ctx, c);
            }
        }
        // Re-arm every active thread of the pumped site whose queue has
        // pending arrivals — including the thread just pumped. Its own
        // `pump_thread` hint also covers the next arrival, but folded
        // together with the core-busy horizon (`max(next_arrival,
        // core_busy)`), whereas a sharded run's window exchange arms the
        // *raw* arrival bound. Arming the raw bound here too makes the
        // effective wake `min(bound, max(other sources, core_busy))` in
        // both modes, so pump instants are identical at any shard count.
        let machine = self.sites[site].machine;
        let server = self.sites[site].server.as_ref().expect("server shard");
        for i in 0..server.active_threads() {
            let queue = self.sites[site]
                .server
                .as_ref()
                .expect("server shard")
                .nic_queue(i);
            if let Some(at) = self.fabric.next_arrival_queue(machine, queue) {
                self.ensure_thread_wake(ctx, first + i, at);
            }
        }
    }

    fn client_poll_event(&mut self, client: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        self.poll_due_clients(Some(client), ctx);
    }

    /// Same canonicalization as `pump_event`: poll every local client
    /// whose wake is due, ascending, so the poll sequence at an instant
    /// is independent of wake insertion order. `forced` is the client
    /// whose own wake is the currently-dispatching event (its handle is
    /// already consumed, so it must not be cancelled).
    fn poll_due_clients(&mut self, forced: Option<usize>, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let now = ctx.now();
        for c in 0..self.clients.len() {
            if !self.client_local[c] {
                continue;
            }
            let due = forced == Some(c) || self.client_wake[c].is_some_and(|(at, _)| at <= now);
            if !due {
                continue;
            }
            if let Some((_, stale)) = self.client_wake[c].take() {
                if forced != Some(c) {
                    ctx.cancel(stale);
                }
            }
            self.poll_client(c, ctx);
        }
    }

    /// Stages a retransmission and schedules its backoff deadline.
    pub(crate) fn stage_retry(&mut self, rec: RetryRec, ctx: &mut Ctx<World<S>, WorldEvent>) {
        self.retries_pending.push(rec);
        ctx.schedule_event_at(rec.fire_at, WorldEvent::RetryFire);
    }

    /// Fires every staged retransmission whose backoff has elapsed.
    ///
    /// Canonical same-instant order, across event types: completions beat
    /// retransmissions. Both contend for the client thread's send slot
    /// (`client_threads_busy`), and whether a backoff deadline dispatches
    /// before or after a poll wake at the same instant depends on event
    /// insertion order — which differs between a mono run (wakes re-armed
    /// at every send) and a sharded run (wakes armed at the window
    /// exchange). So: drain every due delivery first, then fire due
    /// retries sorted by a key derived from the request itself (a
    /// replicated sub-request adds its replica slot). Records with
    /// identical keys are interchangeable, so the result is a pure
    /// function of the event timeline at any shard count.
    fn retry_fire_event(&mut self, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let now = ctx.now();
        self.poll_due_clients(None, ctx);
        let mut due = std::mem::take(&mut self.retry_scratch);
        let mut i = 0;
        while i < self.retries_pending.len() {
            if self.retries_pending[i].fire_at <= now {
                due.push(self.retries_pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_unstable_by_key(|r| {
            let q = &r.req;
            (
                q.workload, q.conn_idx, q.attempt, q.sent_at, q.addr, q.is_read, q.slot,
            )
        });
        for r in due.drain(..) {
            self.transmit_attempt(r.req, ctx);
        }
        self.retry_scratch = due;
    }

    fn poll_client(&mut self, client: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let machine = self.clients[client].machine;
        let mut deliveries = std::mem::take(&mut self.poll_scratch);
        self.fabric
            .poll_into(ctx.now(), machine, usize::MAX, &mut deliveries);
        for d in deliveries.drain(..) {
            let Ok(header) = ReflexHeader::decode(&d.payload) else {
                continue;
            };
            let Some(req) = self.outstanding.take(PoolKey::from_u64(header.cookie)) else {
                // Duplicate delivery, or the response to an attempt that
                // already timed out — a real client ignores both.
                continue;
            };
            if let Some(op) = req.op {
                self.sub_response(req, op, header.opcode, d.arrived_at, ctx);
                continue;
            }
            let w = &mut self.workloads[req.workload as usize];
            let policy = w.spec.retry;
            if header.opcode == Opcode::Error && req.attempt < policy.max_attempts {
                // Retryable failure: back off and retransmit instead of
                // surfacing the error (the retry keeps closed-loop depth).
                w.retries += 1;
                let fire_at = ctx.now() + policy.backoff_after(req.attempt);
                let req = OutstandingReq {
                    attempt: req.attempt + 1,
                    ..req
                };
                self.stage_retry(RetryRec { fire_at, req }, ctx);
                continue;
            }
            if header.opcode != Opcode::Error && req.attempt > 1 {
                w.retry_success += 1;
            }
            if header.opcode == Opcode::Error && policy.is_active() {
                // Final attempt still failed: the request is abandoned
                // with its retry budget spent.
                w.exhausted += 1;
            }
            let in_window = self.measure_start.is_some_and(|m| d.arrived_at >= m);
            if in_window {
                let since = d
                    .arrived_at
                    .saturating_since(self.measure_start.expect("checked in_window"));
                w.iops_series.add(SimTime::ZERO + since, 1);
                // Throughput counts every in-window completion — under
                // overload, responses to pre-window requests are still
                // served work (mutilate measures goodput the same way).
                if header.opcode == Opcode::Error {
                    w.errors += 1;
                } else if req.is_read {
                    w.completed_reads += 1;
                    w.read_bytes += req.len as u64;
                } else {
                    w.completed_writes += 1;
                    w.write_bytes += req.len as u64;
                }
                // Latency distributions only include requests issued within
                // the window (no warmup contamination).
                if req.measured && header.opcode != Opcode::Error {
                    let latency = d.arrived_at.saturating_since(req.sent_at);
                    if req.is_read {
                        w.read_hist.record(latency);
                        // Feed the SLO monitor: rolling p95 per tenant
                        // against the registered qos::slo target.
                        self.telemetry.slo_observe(
                            TenantKey(w.spec.tenant.0),
                            latency,
                            d.arrived_at,
                        );
                    } else {
                        w.write_hist.record(latency);
                    }
                }
            }
            // Closed-loop: keep the queue depth topped up.
            if matches!(w.spec.pattern, LoadPattern::ClosedLoop { .. }) && !w.stopped {
                self.issue_request(req.workload as usize, req.conn_idx as usize, ctx);
            }
        }
        self.poll_scratch = deliveries;
        self.ensure_client_wake(ctx, client);
    }

    fn next_addr(&mut self, w_idx: usize, conn_idx: usize) -> u64 {
        let w = &mut self.workloads[w_idx];
        let (ns_start, ns_len) = w.spec.namespace;
        let size = w.spec.io_size as u64;
        let slots = (ns_len / size).max(1);
        match w.spec.addr_pattern {
            AddrPattern::UniformRandom => ns_start + w.rng.below(slots) * size,
            AddrPattern::Sequential => {
                let cur = w.seq_cursor[conn_idx];
                w.seq_cursor[conn_idx] = (cur + 1) % slots;
                ns_start + cur * size
            }
            AddrPattern::Zipfian { .. } => {
                let z = self.zipf[w_idx].as_ref().expect("built at add_workload");
                // Scramble the rank so hot blocks scatter over the address
                // space (ranks map to blocks via a fixed permutation).
                let rank = z.sample(&mut w.rng);
                let block = rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) % slots;
                ns_start + block * size
            }
        }
    }

    fn issue_request(
        &mut self,
        w_idx: usize,
        conn_idx: usize,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        if self.workloads[w_idx].members.is_empty() {
            // Fully degraded replica set: nothing to send to.
            self.workloads[w_idx].exhausted += 1;
            return;
        }
        let addr = self.next_addr(w_idx, conn_idx);
        let w = &mut self.workloads[w_idx];
        let spec = &w.spec;
        let read_pct = spec.read_pct;
        let is_read = match spec.mix {
            MixProcess::Bernoulli => w.rng.below(100) < read_pct as u64,
            MixProcess::Deterministic => {
                w.read_debt += spec.read_pct as u32;
                if w.read_debt >= 100 {
                    w.read_debt -= 100;
                    true
                } else {
                    false
                }
            }
        };
        let len = spec.io_size;
        self.issue_explicit(w_idx, conn_idx, is_read, addr, len, ctx);
    }

    /// Issues one fully-specified request (the trace-replay path and the
    /// generated path share everything from here on). A replicated
    /// workload fans the request out as one op over its replica set.
    fn issue_explicit(
        &mut self,
        w_idx: usize,
        conn_idx: usize,
        is_read: bool,
        addr: u64,
        len: u32,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        let now = ctx.now();
        let req = OutstandingReq {
            workload: w_idx as u32,
            conn_idx: conn_idx as u32,
            sent_at: now,
            is_read,
            addr,
            len,
            measured: self.measure_start.is_some_and(|m| now >= m),
            attempt: 1,
            slot: 0,
            op: None,
        };
        if self.workloads[w_idx].read_policy.is_some() {
            self.issue_op(req, ctx);
        } else {
            self.transmit_attempt(req, ctx);
        }
    }

    /// Transmits one attempt of a request: a single-copy request, or one
    /// sub-request of a replicated op (`req.op`) aimed at that slot's
    /// member. `attempt == 1` is a fresh issue; higher attempts are
    /// retransmissions carrying the original request's first-send instant
    /// and measurement flag.
    pub(crate) fn transmit_attempt(
        &mut self,
        req: OutstandingReq,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        let now = ctx.now();
        if let Some(op) = req.op {
            if !self.sub_may_send(&req, op, now) {
                return;
            }
        }
        let w_idx = req.workload as usize;
        let w = &self.workloads[w_idx];
        let spec = &w.spec;
        let tenant = spec.tenant;
        let timeout = spec.retry.timeout;
        let client_idx = spec.client_machine;
        let th = (req.conn_idx % spec.client_threads) as usize;
        let member = &w.members[req.slot as usize];
        let (site, conn) = (member.site, member.conns[req.conn_idx as usize]);

        // Client thread gating: the stack's per-message CPU bounds the
        // thread's message rate (Linux: ~70K msgs/s). Retransmissions and
        // every replicated sub-request cost CPU like any other message,
        // so fan-out inflates client-side serialization as on hardware.
        let per_msg = self.clients[client_idx].stack.per_msg_cpu;
        let busy = &mut self.client_threads_busy[w_idx][th];
        let t_send = now.max(*busy);
        *busy = t_send + per_msg;
        // Ingress span: time the request waited for a client stack thread
        // before hitting the wire.
        self.telemetry.span(
            TenantKey(tenant.0),
            Stage::Ingress,
            t_send.saturating_since(now),
        );

        // Register the attempt first: the slab key becomes the wire cookie
        // (slot + generation), so the response and the timeout both find it
        // by index, and a reused slot invalidates stale cookies.
        let cookie = self.outstanding.insert(req).as_u64();
        let header = ReflexHeader {
            opcode: if req.is_read {
                Opcode::Get
            } else {
                Opcode::Put
            },
            tenant: tenant.0,
            cookie,
            addr: req.addr,
            len: req.len,
        };
        let payload = if req.is_read { 0 } else { req.len };
        let client_machine = self.clients[client_idx].machine;
        let st = &self.sites[site];
        let queue = match &st.server {
            Some(s) => s.route(conn).unwrap_or_default(),
            // Client shard: static route cached at bind time. The
            // server-side wake is armed by the window exchange on the
            // shard that holds the server.
            None => self.route_table.get(&conn).copied().unwrap_or_default(),
        };
        let arrival = self.fabric.send_to_queue(
            t_send,
            client_machine,
            st.machine,
            queue,
            conn,
            payload,
            header.encode_array(),
        );
        if req.op.is_none() && req.measured && req.attempt == 1 {
            self.workloads[w_idx].issued += 1;
        }
        // Unbound connection (link currently down): the message still
        // lands on queue 0 where the dataplane drops it — wake thread 0 so
        // the drop is processed even with no other traffic. No server on
        // this shard: nothing to wake locally.
        let st = &self.sites[site];
        if let Some(thread) = st.server.as_ref().map(|s| s.thread_of_conn(conn)) {
            let thread = st.first_thread + thread.unwrap_or(0);
            self.ensure_thread_wake(ctx, thread, arrival);
        }
        if let Some(timeout) = timeout {
            let deadline = match req.op {
                None => timeout,
                Some(_) => crate::replicated::widened_deadline(timeout, req.attempt),
            };
            ctx.schedule_event_at(t_send + deadline, WorldEvent::Timeout(cookie));
        }
    }

    /// Fires when an attempt's response deadline passes. If the cookie is
    /// still outstanding the attempt is declared lost: retry with backoff
    /// while attempts remain, otherwise abandon the request (topping up
    /// closed-loop depth so the generator does not deflate).
    fn timeout_event(&mut self, cookie: u64, ctx: &mut Ctx<World<S>, WorldEvent>) {
        // Canonical same-instant order: a response that has *arrived* by
        // the timeout instant beats the timeout. Whether the client's poll
        // wake for that arrival dispatches before or after this event
        // depends on wake insertion order, which differs between a mono
        // run (wakes re-armed at every send) and a sharded run (wakes
        // armed at the window exchange) — so drain the owning client's due
        // deliveries first, then decide whether the attempt is lost.
        if let Some(req) = self.outstanding.get(PoolKey::from_u64(cookie)) {
            let client = self.workloads[req.workload as usize].spec.client_machine;
            if self.client_local[client] {
                self.poll_client(client, ctx);
            }
        }
        let Some(req) = self.outstanding.take(PoolKey::from_u64(cookie)) else {
            return; // answered in time — nothing to do
        };
        if let Some(op) = req.op {
            self.sub_timeout(req, op, ctx);
            return;
        }
        let w = &mut self.workloads[req.workload as usize];
        w.timeouts += 1;
        let policy = w.spec.retry;
        if req.attempt < policy.max_attempts {
            w.retries += 1;
            let fire_at = ctx.now() + policy.backoff_after(req.attempt);
            let req = OutstandingReq {
                attempt: req.attempt + 1,
                ..req
            };
            self.stage_retry(RetryRec { fire_at, req }, ctx);
        } else {
            w.exhausted += 1;
            let refill = matches!(w.spec.pattern, LoadPattern::ClosedLoop { .. }) && !w.stopped;
            if refill {
                self.issue_request(req.workload as usize, req.conn_idx as usize, ctx);
            }
        }
    }

    fn open_loop_gen_event(&mut self, w_idx: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let w = &self.workloads[w_idx];
        if w.stopped {
            return;
        }
        let LoadPattern::OpenLoop { iops } = w.spec.pattern else {
            return;
        };
        let conns = w.spec.conns as usize;
        let arrival = w.spec.arrival;
        let conn_idx = self.gen_cursor[w_idx] % conns;
        self.gen_cursor[w_idx] += 1;
        self.issue_request(w_idx, conn_idx, ctx);
        let mean = SimDuration::from_secs_f64(1.0 / iops);
        let w = &mut self.workloads[w_idx];
        let gap = match arrival {
            ArrivalProcess::Poisson => w.rng.exponential(mean),
            // ±10% uniform jitter around the nominal gap.
            ArrivalProcess::Paced => mean.mul_f64(0.9 + 0.2 * w.rng.f64()),
        };
        ctx.schedule_event_after(gap, WorldEvent::OpenLoopGen(w_idx));
    }

    fn trace_replay_event(
        &mut self,
        w_idx: usize,
        pos: usize,
        started: SimTime,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        let w = &self.workloads[w_idx];
        if w.stopped {
            return;
        }
        let trace = w.spec.trace.clone().expect("trace workloads carry a trace");
        let Some(op) = trace.get(pos) else { return };
        let conn_idx = pos % w.spec.conns as usize;
        self.issue_explicit(w_idx, conn_idx, op.is_read, op.addr, op.len, ctx);
        if let Some(next) = trace.get(pos + 1) {
            let due = started + next.at;
            let at = due.max(ctx.now());
            ctx.schedule_event_at(
                at,
                WorldEvent::TraceReplay {
                    w_idx,
                    pos: pos + 1,
                    started,
                },
            );
        }
    }

    fn control_event(&mut self, interval: SimDuration, ctx: &mut Ctx<World<S>, WorldEvent>) {
        for server in self.sites.iter_mut().filter_map(|s| s.server.as_mut()) {
            let _ = server.control_tick(ctx.now(), interval);
        }
        ctx.schedule_event_after(interval, WorldEvent::Control(interval));
    }
}

// Sharded execution: a `World` ships departed cross-shard flights at each
// window boundary and folds arrivals from peer shards back into its own
// fabric, arming the same wakes the sender would have armed locally.
impl<S: ServerHarness + 'static> ShardWorld<WorldEvent> for World<S> {
    type Flight = Flight<WireMsg>;

    fn flush_outbound(&mut self, sink: &mut Vec<(usize, Self::Flight)>) {
        self.fabric.take_outbound(sink);
    }

    fn flight_bound(flight: &Self::Flight) -> Option<SimTime> {
        Some(flight.bound())
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_, Self, WorldEvent>, flights: &mut Vec<Self::Flight>) {
        for flight in flights.drain(..) {
            let to = flight.to();
            let conn = flight.conn();
            let bound = flight.bound();
            self.fabric.accept_flight(flight);
            match self.endpoints[to.0 as usize] {
                Endpoint::Site(i) => {
                    // An unbound connection's message lands on queue 0:
                    // wake thread 0 of the site's server, which, like
                    // every server, lives on this (shard-0) world.
                    let st = &self.sites[i];
                    let thread = st.first_thread
                        + st.server
                            .as_ref()
                            .expect("flights to a server land on the server shard")
                            .thread_of_conn(conn)
                            .unwrap_or(0);
                    self.ensure_thread_wake(ctx, thread, bound);
                }
                Endpoint::Client(c) => self.ensure_client_wake(ctx, c),
                Endpoint::Other => {}
            }
        }
    }
}

/// Per-thread slice of a [`TestbedReport`].
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Fraction of the measurement window the core was busy.
    pub busy_fraction: f64,
    /// Fraction of the window spent in QoS scheduling.
    pub sched_fraction: f64,
    /// Raw dataplane statistics (cumulative, not windowed), when the
    /// server exposes them.
    pub stats: Option<reflex_dataplane::ThreadStats>,
}

/// Results of a measurement window.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// Length of the measured window.
    pub window: SimDuration,
    /// One report per workload, in registration order.
    pub workloads: Vec<WorkloadReport>,
    /// One report per active server thread.
    pub threads: Vec<ThreadReport>,
    /// Total token spend rate across all tenants (tokens/sec).
    pub token_usage_per_sec: f64,
    /// Device statistics (cumulative).
    pub device: DeviceStats,
    /// Tenants the control plane flagged for SLO renegotiation.
    pub renegotiations: Vec<TenantId>,
    /// Total events dispatched by the engine since the testbed was built
    /// (a proxy for simulation work; sweep harnesses report events/sec).
    pub engine_events: u64,
    /// Telemetry snapshot (counters, per-tenant per-stage spans, IO
    /// conservation counters, SLO windows/violations) — `None` unless
    /// [`Testbed::enable_telemetry`] was called.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl TestbedReport {
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

/// Builder for a [`Testbed`].
#[derive(Debug)]
pub struct TestbedBuilder {
    device: DeviceProfile,
    link: LinkConfig,
    server: ServerConfig,
    server_stack: StackProfile,
    client_stacks: Vec<StackProfile>,
    cost_model: Option<CostModel>,
    capacity: Option<CapacityProfile>,
    control_interval: SimDuration,
    seed: u64,
}

impl Default for TestbedBuilder {
    fn default() -> Self {
        TestbedBuilder {
            device: reflex_flash::device_a(),
            link: LinkConfig::default(),
            server: ServerConfig::default(),
            server_stack: StackProfile::dataplane_raw(),
            client_stacks: vec![StackProfile::ix_tcp()],
            cost_model: None,
            capacity: None,
            control_interval: SimDuration::from_millis(10),
            seed: 42,
        }
    }
}

impl TestbedBuilder {
    /// Starts from defaults: device A, 10GbE, one IX client machine, one
    /// server thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the Flash device profile.
    pub fn device(mut self, profile: DeviceProfile) -> Self {
        self.device = profile;
        self
    }

    /// Sets the fabric link configuration.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the server configuration (threads, dataplane costs, scaling).
    pub fn server(mut self, server: ServerConfig) -> Self {
        self.server = server;
        self
    }

    /// Sets the number of active server threads (shorthand).
    pub fn server_threads(mut self, threads: u32) -> Self {
        self.server.threads = threads;
        self.server.max_threads = self.server.max_threads.max(threads);
        self
    }

    /// Replaces the client machines (one entry per machine).
    pub fn client_machines(mut self, stacks: Vec<StackProfile>) -> Self {
        self.client_stacks = stacks;
        self
    }

    /// Sets the server machine's network stack (baseline servers run on
    /// the Linux kernel stack; ReFlex polls raw NIC queues).
    pub fn server_stack(mut self, stack: StackProfile) -> Self {
        self.server_stack = stack;
        self
    }

    /// Overrides the cost model (default: matched to the device profile).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Overrides the capacity profile (default: matched to the device).
    pub fn capacity(mut self, capacity: CapacityProfile) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the RNG seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the testbed around a ReFlex server.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured.
    pub fn build(self) -> Testbed<ReflexServer> {
        self.build_reflex_sites(1, None)
    }

    /// Builds a replicated testbed: `sites` ReFlex servers, each with its
    /// own Flash device, and a replica-set coordinator placing every
    /// replicated workload ([`Testbed::add_replicated`]) on `replication`
    /// distinct sites. A site death fails over after `detect_delay`; a
    /// replacement member re-syncs its namespace at
    /// `resync_bytes_per_sec` before it serves reads.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured, if `replication` is 0
    /// or exceeds `sites` or [`MAX_REPLICAS`](crate::MAX_REPLICAS), or if
    /// the re-sync bandwidth is not positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use reflex_core::{ReadPolicy, RetryPolicy, Testbed, WorkloadSpec};
    /// use reflex_qos::{SloSpec, TenantClass, TenantId};
    /// use reflex_sim::SimDuration;
    ///
    /// let mut tb = Testbed::builder().build_replicated(4, 3, SimDuration::from_millis(30), 2e9);
    /// let slo = SloSpec::new(26_000, 70, SimDuration::from_micros(800));
    /// let class = TenantClass::LatencyCritical(slo);
    /// let spec = WorkloadSpec::open_loop("app", TenantId(1), class, 20_000.0)
    ///     .with_retry(RetryPolicy::standard());
    /// tb.add_replicated(spec, ReadPolicy::Quorum)?;
    /// assert_eq!(tb.world().member_sites(0).len(), 3);
    /// tb.run(SimDuration::from_millis(20));
    /// tb.begin_measurement();
    /// tb.run(SimDuration::from_millis(30));
    /// assert!(tb.report().workload("app").iops > 15_000.0);
    /// # Ok::<(), reflex_core::TestbedError>(())
    /// ```
    pub fn build_replicated(
        self,
        sites: usize,
        replication: usize,
        detect_delay: SimDuration,
        resync_bytes_per_sec: f64,
    ) -> Testbed<ReflexServer> {
        assert!(
            replication >= 1 && replication <= sites,
            "replication factor {replication} needs at least that many sites (have {sites})"
        );
        assert!(
            resync_bytes_per_sec > 0.0,
            "re-sync bandwidth must be positive"
        );
        let (cost, capacity) = self.cost_and_capacity();
        let descriptors = (0..sites)
            .map(|s| ServerDescriptor::new(ServerId(s as u32), capacity.clone(), cost.clone()))
            .collect();
        let control = ReplControl {
            coord: ReplicaSets::new(ClusterPlanner::new(descriptors), replication),
            detect_delay,
            resync_bytes_per_sec,
            death_at: vec![None; sites],
            timeline: Vec::new(),
        };
        self.build_reflex_sites(sites, Some(control))
    }

    fn cost_and_capacity(&self) -> (CostModel, CapacityProfile) {
        let cost = self
            .cost_model
            .clone()
            .unwrap_or_else(|| CostModel::for_profile(&self.device));
        let capacity = self
            .capacity
            .clone()
            .unwrap_or_else(|| CapacityProfile::for_profile(&self.device));
        (cost, capacity)
    }

    fn build_reflex_sites(self, sites: usize, repl: Option<ReplControl>) -> Testbed<ReflexServer> {
        let (cost, capacity) = self.cost_and_capacity();
        let server_cfg = self.server.clone();
        self.build_sites(
            sites,
            |fabric, device, machine| {
                ReflexServer::new(
                    machine,
                    fabric,
                    device,
                    cost.clone(),
                    capacity.clone(),
                    server_cfg.clone(),
                    SimTime::ZERO,
                )
            },
            repl,
        )
    }

    /// Builds the testbed around any [`ServerHarness`] (used by the
    /// baseline servers). The constructor receives the fabric (to add NIC
    /// queues), the device (to create queue pairs) and the server machine.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured.
    pub fn build_with<S, F>(self, make_server: F) -> Testbed<S>
    where
        S: ServerHarness + 'static,
        F: FnOnce(&mut Fabric<WireMsg>, &mut FlashDevice, MachineId) -> S,
    {
        let mut make = Some(make_server);
        self.build_sites(
            1,
            |fabric, device, machine| (make.take().expect("one site"))(fabric, device, machine),
            None,
        )
    }

    fn build_sites<S, F>(
        self,
        n_sites: usize,
        mut make_server: F,
        repl: Option<ReplControl>,
    ) -> Testbed<S>
    where
        S: ServerHarness + 'static,
        F: FnMut(&mut Fabric<WireMsg>, &mut FlashDevice, MachineId) -> S,
    {
        assert!(
            !self.client_stacks.is_empty(),
            "need at least one client machine"
        );
        let mut rng = SimRng::seed(self.seed);
        let mut fabric = Fabric::new(self.link, rng.fork());
        let devices: Vec<FlashDevice> = (0..n_sites)
            .map(|_| {
                let mut device = FlashDevice::new(self.device.clone(), rng.fork());
                device.precondition();
                device
            })
            .collect();
        let clients: Vec<ClientMachine> = self
            .client_stacks
            .into_iter()
            .map(|stack| ClientMachine {
                machine: fabric.add_machine(stack.clone()),
                stack,
            })
            .collect();
        let mut sites = Vec::with_capacity(n_sites);
        let mut first_thread = 0;
        for mut device in devices {
            let machine = fabric.add_machine(self.server_stack.clone());
            let server = make_server(&mut fabric, &mut device, machine);
            // Declare the physical topology: every client talks only to
            // the servers (clients ↔ ToR switch ↔ server, §5.1). The link
            // accounting lets the sharded runner drop unlinked shard pairs
            // from its rendezvous math instead of assuming a full mesh.
            for c in &clients {
                fabric.declare_link(c.machine, machine);
            }
            let threads = server.max_threads();
            sites.push(Site {
                machine,
                server: Some(server),
                device: Some(device),
                first_thread,
                threads,
            });
            first_thread += threads;
        }
        // Windowed delivery is the testbed's delivery model: identical
        // semantics at one shard and at N, so splitting the world never
        // changes results.
        fabric.enable_windowed();
        let gen_seed = rng.next_u64();
        let world = World {
            repl,
            ..World::new(fabric, sites, clients, gen_seed, Telemetry::disabled())
        };
        let mut engine = Engine::with_events(world);
        let interval = self.control_interval;
        engine.schedule_event_at(SimTime::ZERO + interval, WorldEvent::Control(interval));
        Testbed {
            engine: ShardedEngine::single(engine),
            measure_begin: SimTime::ZERO,
            control_interval: interval,
            owner: Vec::new(),
            exported: vec![ShardStats::default()],
            shard_note: None,
        }
    }
}

/// Why [`Testbed::with_shards`] ran on fewer shards than requested (or on
/// one). Recorded on the testbed and queryable via
/// [`Testbed::shard_clamp`]; `None` means the request was honored exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardClamp {
    /// No client machines exist to split off; running single-shard.
    NoClients,
    /// A network fault hook is installed; fault campaigns are single-shard.
    FaultHook,
    /// The server rebalances routes at runtime
    /// ([`ServerHarness::supports_sharding`] is `false`).
    ServerDynamicRouting,
    /// Fewer placement entities than requested shards: clamped.
    Clamped {
        /// Shards the caller asked for.
        requested: usize,
        /// Shards the testbed actually runs on.
        effective: usize,
    },
}

impl std::fmt::Display for ShardClamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardClamp::NoClients => f.write_str("no client machines to split off"),
            ShardClamp::FaultHook => f.write_str("a network fault hook is installed"),
            ShardClamp::ServerDynamicRouting => {
                f.write_str("the server rebalances routes at runtime")
            }
            ShardClamp::Clamped {
                requested,
                effective,
            } => write!(f, "{requested} shards requested, clamped to {effective}"),
        }
    }
}

/// The assembled simulation. See the module documentation.
pub struct Testbed<S: ServerHarness = ReflexServer> {
    engine: ShardedEngine<World<S>, WorldEvent>,
    measure_begin: SimTime,
    control_interval: SimDuration,
    /// Shard that owns each workload's generator, in registration order.
    owner: Vec<usize>,
    /// Per-shard counters already folded into telemetry, so repeated
    /// [`run`](Self::run) calls export deltas rather than double counting.
    exported: Vec<ShardStats>,
    /// Why the last [`with_shards`](Self::with_shards) fell back or
    /// clamped, if it did.
    shard_note: Option<ShardClamp>,
}

impl<S: ServerHarness + 'static> std::fmt::Debug for Testbed<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("shards", &self.engine.shards())
            .field("now", &self.engine.now())
            .finish()
    }
}

impl Testbed<ReflexServer> {
    /// Starts building a testbed.
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::new()
    }
}

/// Shard→core placement. Pins each shard thread to its own core when the
/// host allows at least as many distinct cores as shards; on oversubscribed
/// hosts placement is skipped (stacking spinning shard threads on one core
/// fights the OS scheduler and is slower than floating).
///
/// `REFLEX_SIM_PIN=0`/`off` disables placement, `1`/`on` forces it even
/// when oversubscribed (shards round-robin over the allowed cores). Any
/// other value is a loud error — a typo silently changing the performance
/// envelope is worse than a panic.
fn plan_pinning(shards: usize) -> Option<Vec<usize>> {
    let knob = std::env::var("REFLEX_SIM_PIN").ok();
    let forced = match knob.as_deref() {
        Some("0") | Some("off") => return None,
        Some("1") | Some("on") => true,
        None | Some("") => false,
        Some(other) => panic!("invalid REFLEX_SIM_PIN={other:?} (expected 0/off or 1/on)"),
    };
    let cores = core_affinity::get_core_ids()?;
    if cores.is_empty() || (!forced && cores.len() < shards) {
        return None;
    }
    Some((0..shards).map(|i| cores[i % cores.len()].id).collect())
}

impl<S: ServerHarness + 'static> Testbed<S> {
    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Number of shards the simulation runs on (1 unless
    /// [`with_shards`](Self::with_shards) split it).
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// Why the last [`with_shards`](Self::with_shards) call fell back to
    /// fewer shards than requested; `None` when it was honored exactly
    /// (or never called).
    pub fn shard_clamp(&self) -> Option<ShardClamp> {
        self.shard_note
    }

    /// Shared access to the world (shard 0 — the server's shard — when
    /// sharded).
    pub fn world(&self) -> &World<S> {
        self.engine.engine(0).world()
    }

    /// Exclusive access to the world (shard 0 when sharded).
    pub fn world_mut(&mut self) -> &mut World<S> {
        self.engine.engine_mut(0).world_mut()
    }

    /// Schedules an arbitrary event against the (shard 0) world at instant
    /// `at` — the hook fault injectors use to fire timed events (link
    /// flaps, thread stalls) inside the simulation.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut World<S>, &mut Ctx<World<S>, WorldEvent>) + Send + 'static,
    {
        self.engine.engine_mut(0).schedule_at(at, f);
    }

    /// Schedules a typed event against the (shard 0) world at `at`.
    pub(crate) fn schedule_event_at(&mut self, at: SimTime, event: WorldEvent) {
        self.engine.engine_mut(0).schedule_event_at(at, event);
    }

    /// Splits the simulated world by machine across up to `n` OS threads:
    /// shard 0 keeps the server (and the Flash device); client machines
    /// round-robin over the remaining shards. Shards advance in lockstep
    /// windows equal to the link propagation delay (the conservative-PDES
    /// lookahead) and exchange in-flight messages at window boundaries in
    /// a deterministic total order, so results are **byte-identical** to
    /// the single-shard run.
    ///
    /// Silently stays single-shard when `n <= 1`, when there are no client
    /// machines to split off, when the server rebalances routes at runtime
    /// ([`ServerHarness::supports_sharding`] is `false`), or when a
    /// network fault hook is installed (fault campaigns are single-shard).
    ///
    /// # Panics
    ///
    /// Panics if called after a workload was added or after the simulation
    /// has started running.
    pub fn with_shards(mut self, n: usize) -> Self {
        let world0 = self.engine.engine(0).world();
        let n_clients = world0.clients.len();
        let n_eff = 1 + n.saturating_sub(1).min(n_clients);
        if self.engine.shards() != 1 || n_eff <= 1 {
            if n > 1 && self.engine.shards() == 1 && n_clients == 0 {
                self.shard_note = Some(ShardClamp::NoClients);
                eprintln!(
                    "reflex-sim: {n} shards requested but there are no client machines to \
                     split off; running single-shard"
                );
            }
            return self;
        }
        let shardable = world0
            .sites
            .iter()
            .filter_map(|st| st.server.as_ref())
            .all(|server| server.supports_sharding());
        if !shardable || world0.fabric.has_fault_hook() {
            let clamp = if world0.fabric.has_fault_hook() {
                ShardClamp::FaultHook
            } else {
                ShardClamp::ServerDynamicRouting
            };
            eprintln!("reflex-sim: {n} shards requested but {clamp}; running single-shard");
            self.shard_note = Some(clamp);
            return self;
        }
        if n_eff < n {
            self.shard_note = Some(ShardClamp::Clamped {
                requested: n,
                effective: n_eff,
            });
            eprintln!(
                "reflex-sim: {n} shards requested, clamped to {n_eff} \
                 (1 server shard + {n_clients} client machines)"
            );
        }
        assert!(
            world0.workloads.is_empty(),
            "with_shards must be called before add_workload"
        );
        assert_eq!(
            self.engine.now(),
            SimTime::ZERO,
            "with_shards must be called before the simulation runs"
        );
        let engine = self
            .engine
            .into_engines()
            .pop()
            .expect("single-shard testbed holds one engine");
        let mut world = engine.into_world();
        let mut shard_of = vec![0usize; world.fabric.machines()];
        for (i, c) in world.clients.iter().enumerate() {
            shard_of[c.machine.0 as usize] = 1 + i % (n_eff - 1);
        }
        let window = world.fabric.lookahead();
        let mut engines = Vec::with_capacity(n_eff);
        for s in 0..n_eff {
            // Shard 0 takes every site's server and device (and the
            // replica-set coordinator); client shards get empty sites.
            let sites = world.sites.iter_mut().map(Site::take).collect();
            let shard_world = World {
                client_local: world
                    .clients
                    .iter()
                    .map(|c| shard_of[c.machine.0 as usize] == s)
                    .collect(),
                repl: world.repl.take(),
                ..World::new(
                    world.fabric.split_for_shard(&shard_of, s),
                    sites,
                    world.clients.clone(),
                    world.gen_seed,
                    world.telemetry.clone(),
                )
            };
            let mut eng = Engine::with_events(shard_world);
            if s == 0 {
                // The control plane ticks with the servers.
                eng.schedule_event_at(
                    SimTime::ZERO + self.control_interval,
                    WorldEvent::Control(self.control_interval),
                );
            }
            engines.push(eng);
        }
        let topology = world.fabric.shard_topology(&shard_of, n_eff);
        self.engine = ShardedEngine::new(engines, window);
        self.engine.set_topology(topology);
        self.engine.set_pinning(plan_pinning(n_eff));
        self.exported = vec![ShardStats::default(); n_eff];
        self
    }

    /// Registers a workload: admits its tenant, opens and binds its
    /// connections, and starts its generator.
    ///
    /// # Errors
    ///
    /// See [`TestbedError`].
    pub fn add_workload(&mut self, spec: WorkloadSpec) -> Result<(), TestbedError> {
        self.register(spec, None)
    }

    /// Registers a replicated workload on a testbed built with
    /// [`TestbedBuilder::build_replicated`]: the coordinator places its
    /// replica set, every member site admits the tenant and binds its own
    /// `spec.conns` connections, and the open-loop generator starts. Every
    /// write fans out to all members and completes on a majority of acks;
    /// reads follow `policy`.
    ///
    /// # Errors
    ///
    /// See [`TestbedError`]. Replicated workloads must be open-loop
    /// latency-critical tenants with a per-attempt `retry.timeout`. An
    /// admission failure partway through leaves the tenant registered on
    /// earlier members (the builder-phase API does not roll back).
    pub fn add_replicated(
        &mut self,
        spec: WorkloadSpec,
        policy: ReadPolicy,
    ) -> Result<(), TestbedError> {
        self.register(spec, Some(policy))
    }

    fn register(
        &mut self,
        spec: WorkloadSpec,
        policy: Option<ReadPolicy>,
    ) -> Result<(), TestbedError> {
        let mut spec = spec;
        spec.validate().map_err(TestbedError::InvalidSpec)?;
        let shards = self.engine.shards();
        // Validation and tenant/connection registration run against the
        // servers' shard (shard 0 — the only shard in a single-shard run).
        let world = self.engine.engine_mut(0).world_mut();
        if spec.client_machine >= world.clients.len() {
            return Err(TestbedError::NoSuchClient(spec.client_machine));
        }
        // Clamp the namespace to the device capacity so default specs work
        // on any profile (every site runs the same profile).
        let capacity = world.device().profile().capacity_bytes;
        if spec.namespace.0 >= capacity {
            return Err(TestbedError::InvalidSpec(
                "namespace beyond device capacity".into(),
            ));
        }
        spec.namespace.1 = spec.namespace.1.min(capacity - spec.namespace.0);
        let acl = reflex_dataplane::AclEntry {
            ns_start: spec.namespace.0,
            ns_len: spec.namespace.1,
            allow_read: true,
            allow_write: true,
            allowed_clients: None,
        };
        let member_sites: Vec<usize> = match policy {
            None => vec![0],
            Some(_) => {
                let (Some(slo), LoadPattern::OpenLoop { .. }, None, Some(_)) = (
                    spec.class.slo(),
                    spec.pattern,
                    &spec.trace,
                    spec.retry.timeout,
                ) else {
                    return Err(TestbedError::InvalidSpec(
                        "replicated workloads are open-loop LC tenants with a per-attempt \
                         retry.timeout"
                            .into(),
                    ));
                };
                let ctl = world
                    .repl
                    .as_mut()
                    .ok_or_else(|| TestbedError::InvalidSpec("testbed is not replicated".into()))?;
                let set = ctl.coord.place(spec.tenant, *slo)?;
                set.members.iter().map(|sid| sid.0 as usize).collect()
            }
        };
        let client_machine = world.clients[spec.client_machine].machine;
        let w_idx = world.workloads.len();
        // Each workload draws from its own RNG stream, keyed by its stable
        // registration index — draws never depend on other workloads or on
        // event interleaving, so sharded runs replay the same sequences.
        let mut state =
            WorkloadState::new(spec.clone(), SimRng::stream(world.gen_seed, w_idx as u64));
        state.read_policy = policy;
        state.seq_cursor = vec![0; spec.conns as usize];
        let mut routes = Vec::with_capacity(spec.conns as usize * member_sites.len());
        for &site in &member_sites {
            let server = world.sites[site]
                .server
                .as_mut()
                .expect("shard 0 holds the servers");
            if spec.shards > 1 {
                // Sharded registration goes through the concrete ReFlex
                // path; harness servers without sharding treat it as an
                // error.
                server.register_tenant_sharded(
                    spec.tenant,
                    spec.class,
                    acl.clone(),
                    spec.io_size,
                    spec.shards,
                )?;
            } else {
                server.register_tenant(spec.tenant, spec.class, acl.clone(), spec.io_size)?;
            }
            let mut conns = Vec::with_capacity(spec.conns as usize);
            for _ in 0..spec.conns {
                let conn = world.fabric.new_conn();
                let server = world.sites[site].server.as_mut().expect("server shard");
                server.bind_connection(conn, spec.tenant, client_machine)?;
                routes.push((conn, server.route(conn).unwrap_or_default()));
                conns.push(conn);
            }
            state.members.push(MemberLink {
                site,
                conns,
                resyncing: false,
            });
        }
        // Latency-critical tenants get an SLO monitor entry keyed on their
        // p95 read-latency target (no-op while telemetry is disabled).
        if let Some(slo) = spec.class.slo() {
            world
                .telemetry
                .slo_register(TenantKey(spec.tenant.0), slo.p95_read_latency);
        }
        let zipf = match spec.addr_pattern {
            AddrPattern::Zipfian { theta_permille } => {
                let slots = (spec.namespace.1 / spec.io_size as u64).max(2);
                Some(Zipf::new(
                    slots,
                    f64::from(theta_permille.clamp(1, 999)) / 1000.0,
                ))
            }
            _ => None,
        };
        // Open-loop kickoff offset comes out of the workload's own stream
        // *before* the state is replicated, so every shard's copy agrees
        // on the stream position.
        let open_loop_offset = match (&spec.trace, spec.pattern) {
            (None, LoadPattern::OpenLoop { iops }) => Some(
                state
                    .rng
                    .exponential(SimDuration::from_secs_f64(1.0 / iops)),
            ),
            _ => None,
        };

        // Replicate the workload's bookkeeping onto every shard so indices
        // line up everywhere; only the owner shard's copy ever advances.
        for s in 0..shards {
            let w = self.engine.engine_mut(s).world_mut();
            debug_assert_eq!(w.workloads.len(), w_idx);
            w.zipf.push(zipf.clone());
            w.workloads.push(state.clone());
            w.client_threads_busy
                .push(vec![SimTime::ZERO; spec.client_threads as usize]);
            w.gen_cursor.push(0);
            w.route_table.extend(routes.iter().copied());
        }
        // The generator runs on the shard simulating the client machine.
        let owner = (0..shards)
            .find(|&s| self.engine.engine(s).world().client_local[spec.client_machine])
            .expect("every client machine is local to exactly one shard");
        self.owner.push(owner);

        // Kick off the generator (trace replay overrides the pattern).
        let eng = self.engine.engine_mut(owner);
        if let Some(trace) = &spec.trace {
            let start = eng.now();
            let first_at = trace.first().expect("validated non-empty").at;
            eng.schedule_event_at(
                start + first_at,
                WorldEvent::TraceReplay {
                    w_idx,
                    pos: 0,
                    started: start,
                },
            );
            return Ok(());
        }
        match spec.pattern {
            LoadPattern::OpenLoop { .. } => {
                let offset = open_loop_offset.expect("drawn above for open-loop patterns");
                let at = eng.now() + offset;
                eng.schedule_event_at(at, WorldEvent::OpenLoopGen(w_idx));
            }
            LoadPattern::ClosedLoop { queue_depth } => {
                for conn_idx in 0..spec.conns as usize {
                    for q in 0..queue_depth {
                        // Stagger initial issues by a microsecond each so
                        // connections do not start in lockstep.
                        let offset = SimDuration::from_nanos(
                            (conn_idx as u64 * queue_depth as u64 + q as u64) * 1_000,
                        );
                        let at = eng.now() + offset;
                        eng.schedule_event_at(at, WorldEvent::Issue { w_idx, conn_idx });
                    }
                }
            }
        }
        Ok(())
    }

    /// Marks the end of warmup: clears all histograms and counters so the
    /// next [`report`](Self::report) covers only what follows.
    pub fn begin_measurement(&mut self) {
        let now = self.engine.now();
        self.measure_begin = now;
        for s in 0..self.engine.shards() {
            let world = self.engine.engine_mut(s).world_mut();
            world.measure_start = Some(now);
            for w in &mut world.workloads {
                w.reset_measurement();
            }
            if let Some(server) = world.sites[0].server.as_ref() {
                world.busy_snapshot = (0..server.max_threads())
                    .map(|i| server.busy_time(i))
                    .collect();
                world.sched_snapshot = (0..server.max_threads())
                    .map(|i| server.sched_time(i))
                    .collect();
                world.spent_snapshot = server.tenants_spent_millitokens();
            }
        }
    }

    /// Advances the simulation by `span` (all shards in lockstep windows
    /// when sharded).
    pub fn run(&mut self, span: SimDuration) {
        self.engine.run_for(span);
        self.export_shard_counters();
    }

    /// Overrides how the sharded runner picks rendezvous boundaries (no-op
    /// at one shard). Simulated results are byte-identical under every
    /// policy; only barrier counts and wall time change.
    pub fn set_lookahead_policy(&mut self, policy: LookaheadPolicy) {
        self.engine.set_policy(policy);
    }

    /// The active rendezvous policy of the sharded runner.
    pub fn lookahead_policy(&self) -> LookaheadPolicy {
        self.engine.policy()
    }

    /// Cumulative runner counters for shard `s` (barrier waits, committed
    /// windows, extended commits, wall time).
    pub fn shard_stats(&self, s: usize) -> ShardStats {
        self.engine.shard_stats(s)
    }

    /// Folds per-shard runner counters into telemetry as deltas since the
    /// last export. Single-shard runs take no barriers and export nothing,
    /// so figure TSVs (and the allocation budget) are untouched.
    fn export_shard_counters(&mut self) {
        let shards = self.engine.shards();
        if shards <= 1 {
            return;
        }
        let telemetry = self.engine.engine(0).world().telemetry.clone();
        for s in 0..shards {
            let stats = self.engine.shard_stats(s);
            let last = &mut self.exported[s];
            telemetry.count_shard(
                ShardCounter::BarrierWaits,
                s,
                stats.barrier_waits - last.barrier_waits,
            );
            telemetry.count_shard(
                ShardCounter::WindowsCommitted,
                s,
                stats.windows_committed - last.windows_committed,
            );
            telemetry.count_shard(
                ShardCounter::ExtendedCommits,
                s,
                stats.extended_commits - last.extended_commits,
            );
            *last = stats;
        }
    }

    /// Produces the measurement report for the window since
    /// [`begin_measurement`](Self::begin_measurement).
    pub fn report(&self) -> TestbedReport {
        let world = self.engine.engine(0).world();
        let window = self.engine.now().saturating_since(self.measure_begin);
        // Workload state advances only on its owner shard — read it there.
        let workloads: Vec<WorkloadReport> = (0..world.workloads.len())
            .map(|i| {
                let s = self.owner.get(i).copied().unwrap_or(0);
                self.engine.engine(s).world().workloads[i].report(window)
            })
            .collect();
        // Server, thread and token state live with the servers on shard 0.
        let server = world.server();
        let mut threads = Vec::new();
        for i in 0..server.active_threads() {
            let busy0 = world
                .busy_snapshot
                .get(i)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            let sched0 = world
                .sched_snapshot
                .get(i)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            let secs = window.as_secs_f64().max(1e-12);
            threads.push(ThreadReport {
                busy_fraction: server.busy_time(i).saturating_sub(busy0).as_secs_f64() / secs,
                sched_fraction: server.sched_time(i).saturating_sub(sched0).as_secs_f64() / secs,
                stats: server.thread_stats(i),
            });
        }
        let spent_delta: i64 = server
            .tenants_spent_millitokens()
            .into_iter()
            .map(|(id, now_mt)| now_mt - world.spent_snapshot.get(&id).copied().unwrap_or(0))
            .sum();
        let token_usage_per_sec = spent_delta as f64 / 1_000.0 / window.as_secs_f64().max(1e-12);
        TestbedReport {
            window,
            workloads,
            threads,
            token_usage_per_sec,
            device: world.device().stats(),
            renegotiations: server.renegotiations(),
            engine_events: (0..self.engine.shards())
                .map(|s| self.engine.engine(s).dispatched())
                .sum(),
            telemetry: world.telemetry.snapshot(),
        }
    }

    /// Turns on telemetry: installs one shared [`Telemetry`] sink on the
    /// device, fabric, server threads, the engine's dispatch probe and the
    /// client-side span/SLO probes. Recording is strictly passive — it
    /// draws no randomness and schedules nothing, so an instrumented run
    /// produces byte-identical results to an uninstrumented one. Returns a
    /// clone of the handle for direct inspection.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        let telemetry = Telemetry::enabled();
        self.set_telemetry(telemetry.clone());
        telemetry
    }

    /// Installs `telemetry` on every instrumented component (pass
    /// [`Telemetry::disabled`] to switch recording back off). SLO targets
    /// of workloads added before this call are re-registered.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        // One shared handle across every shard: its counters and span sinks
        // are commutative merges, so concurrent shard threads recording
        // into it never change the snapshot's value.
        for s in 0..self.engine.shards() {
            let eng = self.engine.engine_mut(s);
            if let Some(probe) = telemetry.engine_probe() {
                eng.set_probe(probe);
            } else {
                eng.clear_probe();
            }
            let world = eng.world_mut();
            world.fabric.set_telemetry(telemetry.clone());
            for site in &mut world.sites {
                if let Some(device) = site.device.as_mut() {
                    device.set_telemetry(telemetry.clone());
                }
                if let Some(server) = site.server.as_mut() {
                    server.set_telemetry(telemetry.clone());
                }
            }
            if let Some(ctl) = world.repl.as_mut() {
                ctl.coord.set_telemetry(telemetry.clone());
            }
            world.telemetry = telemetry.clone();
        }
        let world = self.engine.engine(0).world();
        for w in &world.workloads {
            if let Some(slo) = w.spec.class.slo() {
                telemetry.slo_register(TenantKey(w.spec.tenant.0), slo.p95_read_latency);
            }
        }
    }

    /// The current telemetry snapshot, when telemetry is enabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.engine.engine(0).world().telemetry.snapshot()
    }
}
