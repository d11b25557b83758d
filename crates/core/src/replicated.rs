//! The replicated data path: the N-site mode of the testbed [`World`].
//!
//! ReFlex leaves replication to the client (§6.3): a replicated tenant is
//! the same client ↔ fabric ↔ server loop as a single-copy one, aimed at
//! R server sites. The world's shared machinery — canonical wake
//! servicing, observe-first dispatch, the typed `RetryFire` drain,
//! poll-before-timeout, sharding and measurement — runs both. This module
//! holds only what replication adds:
//!
//! - **Fan-out with quorum accounting.** Every op issues one sub-request
//!   per chosen member and completes when its quorum of acks arrives.
//!   `World::ops` holds one [`ReplOp`] per logical request; each
//!   sub-request is an ordinary in-flight attempt in the world's request
//!   slab, tagged with its op and replica slot, so its slab key is the
//!   wire cookie and responses, duplicates and stale timeouts resolve by
//!   index with no per-IO heap allocation.
//! - **Primary-anchored read selection** ([`ReadPolicy`]).
//! - **Epoch fencing** of retries that cross a failover, and RTO-style
//!   deadline widening (see [`widened_deadline`]).
//! - **Death → failover → re-sync** events driven by the
//!   [`ReplicaSets`] coordinator.

use reflex_dataplane::AclEntry;
use reflex_net::{ConnId, Opcode};
use reflex_qos::TenantId;
use reflex_sim::{Ctx, PoolKey, SimDuration, SimTime};
use reflex_telemetry::TenantKey;

use crate::client::OutstandingReq;
use crate::cluster::ServerId;
use crate::harness::ServerHarness;
use crate::replica::{quorum, ReadPolicy, ReplicaSets, MAX_REPLICAS};
use crate::testbed::{RetryRec, Testbed, World, WorldEvent};

/// One member of a workload's replica set, as the data path sees it.
#[derive(Debug, Clone)]
pub(crate) struct MemberLink {
    /// Site hosting this member.
    pub site: usize,
    /// Client connections to that site, one ring per member.
    pub conns: Vec<ConnId>,
    /// A freshly-placed replacement serves writes immediately but is not
    /// read-eligible until its background re-sync completes.
    pub resyncing: bool,
}

/// Quorum accounting for one logical request. Freed when the last
/// sub-request concludes (`pending == 0`), which may be after the op
/// itself completed or failed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplOp {
    /// Membership epoch at issue. Retries are fenced on epoch change: an
    /// attempt issued under the old membership must not silently migrate
    /// onto a replacement member.
    pub epoch: u32,
    /// Acks required (the quorum).
    pub needed: u8,
    /// Acks received so far.
    pub acks: u8,
    /// Sub-requests still in flight (including retries).
    pub pending: u8,
    /// Concluded (completed or failed); stragglers only decrement
    /// `pending` from here on.
    pub done: bool,
}

/// What failover did for one tenant, stamped with simulated instants —
/// the raw material for the recovery-time figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRecovery {
    /// The affected tenant.
    pub tenant: TenantId,
    /// Instant its member's server died.
    pub died_at: SimTime,
    /// Instant the coordinator ran failover (death + detection delay).
    pub failover_at: SimTime,
    /// Instant the replacement member finished re-syncing and became
    /// read-eligible (`None` if the set degraded instead).
    pub resync_done_at: Option<SimTime>,
    /// Replacement site (`None` if the set degraded).
    pub new_site: Option<usize>,
}

/// Replica-set control state of a replicated testbed. Lives on shard 0
/// with the sites.
pub(crate) struct ReplControl {
    pub coord: ReplicaSets,
    /// Death → failover delay (the coordinator's detection time).
    pub detect_delay: SimDuration,
    /// Modelled background re-sync copy rate for replacement members.
    pub resync_bytes_per_sec: f64,
    pub death_at: Vec<Option<SimTime>>,
    pub timeline: Vec<TenantRecovery>,
}

/// RTO-style deadline widening: attempt `k` of a sub-request waits
/// `2^(k-1)` × the base deadline. A member that is healthy but
/// queue-delayed (e.g. a fresh replacement absorbing the post-failover
/// inrush) answers late; fixed deadlines would declare every such
/// response stale and retransmit, and at R=2 — where the quorum needs
/// *every* member — that feedback loop multiplies the arrival rate past
/// the member's service rate and the queue never drains. Widening lets a
/// late attempt accept the delayed response, which caps the
/// retransmission rate and lets the backlog clear.
pub(crate) fn widened_deadline(base: SimDuration, attempt: u32) -> SimDuration {
    base.mul_f64((1u64 << (attempt - 1).min(16)) as f64)
}

type WorldCtx<'a, S> = Ctx<'a, World<S>, WorldEvent>;

impl<S: ServerHarness + 'static> World<S> {
    /// Site indices of workload `w_idx`'s current members, slot order.
    pub fn member_sites(&self, w_idx: usize) -> Vec<usize> {
        self.workloads[w_idx]
            .members
            .iter()
            .map(|m| m.site)
            .collect()
    }

    /// Current primary slot of workload `w_idx`.
    pub fn primary_slot(&self, w_idx: usize) -> usize {
        self.workloads[w_idx].primary
    }

    /// Current membership epoch of workload `w_idx`. Bumped by every
    /// failover action; in-flight operations issued under an older epoch
    /// are fenced (fail fast) rather than redirected, so observers must
    /// only ever see this value increase.
    pub fn epoch(&self, w_idx: usize) -> u32 {
        self.workloads[w_idx].epoch
    }

    /// The failover timeline so far (empty unless replicated).
    pub fn timeline(&self) -> &[TenantRecovery] {
        self.repl.as_ref().map_or(&[], |c| &c.timeline)
    }

    /// Issues one replicated op described by `req` (attempt 1, no op):
    /// picks fan-out targets, registers the op and transmits one
    /// sub-request per target.
    pub(crate) fn issue_op(&mut self, req: OutstandingReq, ctx: &mut WorldCtx<'_, S>) {
        let w = &mut self.workloads[req.workload as usize];
        let r = w.members.len();
        // Fan-out targets live in a fixed array — the hot path allocates
        // nothing per IO.
        let mut targets = [0usize; MAX_REPLICAS];
        let (n_targets, needed) = match w.read_policy {
            Some(ReadPolicy::Primary) if req.is_read => {
                targets[0] = w.primary;
                (1, 1)
            }
            Some(ReadPolicy::Quorum) if req.is_read => {
                // The primary anchors every read quorum (it sees every
                // quorum write, so anchored reads are read-your-writes
                // across promotions); the remaining Q-1 members rotate so
                // secondary read load spreads. Re-syncing members are used
                // only when too few eligible members remain (keeps ops
                // flowing while degraded — the simulation carries no data
                // contents to go stale).
                let q = quorum(r);
                let start = (w.op_rr % r as u64) as usize;
                let mut selected = [false; MAX_REPLICAS];
                let mut n = 0;
                if !w.members[w.primary].resyncing {
                    targets[0] = w.primary;
                    selected[w.primary] = true;
                    n = 1;
                }
                for eligible_only in [true, false] {
                    for off in 0..r {
                        let s = (start + off) % r;
                        if n < q && !selected[s] && !(eligible_only && w.members[s].resyncing) {
                            targets[n] = s;
                            selected[s] = true;
                            n += 1;
                        }
                    }
                }
                (n, q)
            }
            // Writes fan out to every member; a majority of acks completes
            // the op.
            _ => {
                for (s, t) in targets.iter_mut().enumerate().take(r) {
                    *t = s;
                }
                (r, quorum(r))
            }
        };
        w.op_rr += 1;
        if req.measured {
            w.issued += 1;
        }
        let op = self.ops.insert(ReplOp {
            epoch: w.epoch,
            needed: needed as u8,
            acks: 0,
            pending: n_targets as u8,
            done: false,
        });
        for &slot in targets.iter().take(n_targets) {
            let sub = OutstandingReq {
                slot: slot as u8,
                op: Some(op),
                ..req
            };
            self.transmit_attempt(sub, ctx);
        }
    }

    /// Gate before a sub-request attempt goes on the wire. The member is
    /// resolved from the workload's *current* membership at send time;
    /// returns `false` — after releasing the sub's pending slot — when
    /// the op already concluded, the slot no longer exists, or a retry
    /// crosses a failover.
    pub(crate) fn sub_may_send(
        &mut self,
        req: &OutstandingReq,
        op_key: PoolKey,
        now: SimTime,
    ) -> bool {
        let Some(op) = self.ops.get(op_key).copied() else {
            return false; // op already freed — stale retry, nothing to do
        };
        let w = &self.workloads[req.workload as usize];
        // Epoch fence. Every op in flight when the set reshaped would
        // otherwise retry onto the fresh replacement at the failover
        // instant — a thundering herd that pushes the replacement past
        // its token reservation right as new ops start arriving, and (at
        // R=2, where the quorum needs every member) can keep its queue in
        // a retransmission-fed overload that never drains. Failing the
        // old-epoch attempt fast is also the honest semantics: the
        // replacement learns pre-failover writes from re-sync, not from
        // replayed wire messages.
        let fenced = req.attempt > 1 && op.epoch != w.epoch;
        // A concluded op puts no more attempts on the wire; a degraded
        // set may have dropped this slot.
        if op.done || req.slot as usize >= w.members.len() || fenced {
            self.conclude_sub(req, op_key, false, now);
            return false;
        }
        true
    }

    /// A response arrived for sub-request attempt `req`.
    pub(crate) fn sub_response(
        &mut self,
        req: OutstandingReq,
        op_key: PoolKey,
        opcode: Opcode,
        at: SimTime,
        ctx: &mut WorldCtx<'_, S>,
    ) {
        let Some(op) = self.ops.get(op_key).copied() else {
            return; // cannot happen while the sub held a pending slot
        };
        if opcode == Opcode::Error && !op.done {
            // Retryable failure: back off and retransmit (same-epoch only
            // — `sub_may_send` fences retries that cross a failover).
            if self.stage_sub_retry(req, ctx) {
                return;
            }
        }
        self.conclude_sub(&req, op_key, opcode != Opcode::Error, at);
    }

    /// Sub-request attempt `req` missed its deadline.
    pub(crate) fn sub_timeout(
        &mut self,
        req: OutstandingReq,
        op_key: PoolKey,
        ctx: &mut WorldCtx<'_, S>,
    ) {
        let Some(op) = self.ops.get(op_key).copied() else {
            return;
        };
        self.workloads[req.workload as usize].timeouts += 1;
        if op.done || !self.stage_sub_retry(req, ctx) {
            self.conclude_sub(&req, op_key, false, ctx.now());
        }
    }

    /// Stages the next attempt of `req` if its retry budget allows.
    fn stage_sub_retry(&mut self, req: OutstandingReq, ctx: &mut WorldCtx<'_, S>) -> bool {
        let w = &mut self.workloads[req.workload as usize];
        let policy = w.spec.retry;
        if req.attempt >= policy.max_attempts {
            return false;
        }
        w.retries += 1;
        let fire_at = ctx.now() + policy.backoff_after(req.attempt);
        let req = OutstandingReq {
            attempt: req.attempt + 1,
            ..req
        };
        self.stage_retry(RetryRec { fire_at, req }, ctx);
        true
    }

    /// Folds one concluded sub-request into its op's quorum accounting
    /// and records the op's completion or failure when it tips over.
    fn conclude_sub(&mut self, req: &OutstandingReq, op_key: PoolKey, acked: bool, at: SimTime) {
        let Some(op) = self.ops.get_mut(op_key) else {
            return;
        };
        op.pending -= 1;
        let done_before = op.done;
        if acked {
            op.acks += 1;
        }
        let completes = !done_before && op.acks >= op.needed;
        let fails = !done_before && !completes && op.acks + op.pending < op.needed;
        op.done |= completes || fails;
        if op.pending == 0 {
            self.ops.take(op_key);
        }
        let measure_start = self.measure_start;
        let w = &mut self.workloads[req.workload as usize];
        if acked && req.attempt > 1 && !done_before {
            w.retry_success += 1;
        }
        let tenant = TenantKey(w.spec.tenant.0);
        let latency = at.saturating_since(req.sent_at);
        if completes {
            if let Some(start) = measure_start.filter(|&m| at >= m) {
                w.iops_series
                    .add(SimTime::ZERO + at.saturating_since(start), 1);
                if req.is_read {
                    w.completed_reads += 1;
                    w.read_bytes += req.len as u64;
                } else {
                    w.completed_writes += 1;
                    w.write_bytes += req.len as u64;
                }
                // Latency covers the whole op: issue → quorum reached
                // (for quorum reads that is the max of the quorum).
                if req.measured {
                    if req.is_read {
                        w.read_hist.record(latency);
                        self.telemetry.slo_observe(tenant, latency, at);
                    } else {
                        w.write_hist.record(latency);
                    }
                }
            }
        } else if fails {
            w.exhausted += 1;
            if measure_start.is_some_and(|m| at >= m) {
                w.errors += 1;
            }
            // A failed read still held the application from issue to
            // exhaustion; account that wait against the tenant's SLO
            // windows so an outage shows up as violations, not silence.
            // (The latency histograms stay completions-only.)
            if req.measured && req.is_read {
                self.telemetry.slo_observe(tenant, latency, at);
            }
        }
    }

    pub(crate) fn server_death_event(&mut self, site: usize, ctx: &mut WorldCtx<'_, S>) {
        if let Some(ctl) = self.repl.as_mut() {
            ctl.death_at[site] = Some(ctx.now());
        }
        self.telemetry.count("replication.server_deaths", 1);
        // The armed hooks do the damage: the site's NIC links went dark
        // (messages to/from it are black-holed at send time, so they are
        // never device-submitted) and its device aborts every queued and
        // future command. The dead site keeps being pumped so queued work
        // drains into counted failures — conservation holds.
    }

    /// The coordinator detects the death and re-shapes every affected
    /// replica set: promotion, replacement placement, connection binding
    /// and the re-sync timer.
    pub(crate) fn failover_event(&mut self, site: usize, ctx: &mut WorldCtx<'_, S>) {
        let Some(ctl) = self.repl.as_mut() else {
            return;
        };
        let Ok(fo) = ctl.coord.fail_server(ServerId(site as u32)) else {
            return;
        };
        let now = ctx.now();
        let died_at = ctl.death_at[site].unwrap_or(now);
        let resync_rate = ctl.resync_bytes_per_sec;
        for action in fo.actions {
            let Some(w_idx) = self
                .workloads
                .iter()
                .position(|w| w.spec.tenant == action.tenant)
            else {
                continue;
            };
            let mut recovery = TenantRecovery {
                tenant: action.tenant,
                died_at,
                failover_at: now,
                resync_done_at: None,
                new_site: None,
            };
            if let Some(sid) = action.new_member {
                let new_site = sid.0 as usize;
                let spec = &self.workloads[w_idx].spec;
                let acl = AclEntry {
                    ns_start: spec.namespace.0,
                    ns_len: spec.namespace.1,
                    allow_read: true,
                    allow_write: true,
                    allowed_clients: None,
                };
                let client_machine = self.clients[spec.client_machine].machine;
                let server = self.sites[new_site]
                    .server
                    .as_mut()
                    .expect("failover runs on the server shard");
                let _ = server.register_tenant(spec.tenant, spec.class, acl, spec.io_size);
                let mut conns = Vec::with_capacity(spec.conns as usize);
                for _ in 0..spec.conns {
                    let conn = self.fabric.new_conn();
                    if server
                        .bind_connection(conn, spec.tenant, client_machine)
                        .is_ok()
                    {
                        let queue = server.route(conn).unwrap_or_default();
                        self.route_table.insert(conn, queue);
                        conns.push(conn);
                    }
                }
                // Re-sync: control-plane re-admission (the action's queued
                // estimate) plus copying the namespace at the modelled
                // background rate. Write-eligible immediately, read-eligible
                // when done.
                let bytes = spec.namespace.1 as f64;
                let done_at = now
                    + (action.latency_estimate + SimDuration::from_secs_f64(bytes / resync_rate));
                self.workloads[w_idx].members[action.replaced_slot] = MemberLink {
                    site: new_site,
                    conns,
                    resyncing: true,
                };
                ctx.schedule_event_at(
                    done_at,
                    WorldEvent::ResyncDone {
                        w_idx,
                        slot: action.replaced_slot,
                        epoch: action.epoch,
                    },
                );
                recovery.resync_done_at = Some(done_at);
                recovery.new_site = Some(new_site);
            } else {
                self.workloads[w_idx].members.remove(action.replaced_slot);
            }
            let w = &mut self.workloads[w_idx];
            w.primary = action.promoted_primary;
            w.epoch = action.epoch;
            let ctl = self.repl.as_mut().expect("checked above");
            ctl.timeline.push(recovery);
        }
    }

    pub(crate) fn resync_done_event(&mut self, w_idx: usize, slot: usize, epoch: u32) {
        let w = &mut self.workloads[w_idx];
        if w.epoch == epoch && slot < w.members.len() {
            w.members[slot].resyncing = false;
            self.telemetry.count("replication.resyncs_done", 1);
        }
    }
}

impl<S: ServerHarness + 'static> Testbed<S> {
    /// Schedules site `site`'s death at `at` and the coordinator's
    /// failover one detection delay later; returns that delay. Fault
    /// injection (`reflex_faults::install`) arms the death's device and
    /// link hooks.
    ///
    /// # Panics
    ///
    /// Panics unless the testbed was built replicated
    /// ([`TestbedBuilder::build_replicated`](crate::TestbedBuilder::build_replicated)).
    pub fn schedule_server_death(&mut self, site: usize, at: SimTime) -> SimDuration {
        let detect = self
            .world()
            .repl
            .as_ref()
            .expect("server death needs a replicated testbed")
            .detect_delay;
        self.schedule_event_at(at, WorldEvent::ServerDeath(site));
        self.schedule_event_at(at + detect, WorldEvent::Failover(site));
        detect
    }
}
