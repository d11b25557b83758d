//! Host time per operation of each crate's public entry points, driven
//! directly with an operation stream generated from the workload's spec:
//! the same op count per tenant, read share, request size and address
//! pattern, spread evenly over the measured window.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use reflex_cache::DramCache;
use reflex_core::{AddrPattern, WorkloadSpec};
use reflex_flash::{
    device_a, CmdId, FlashDevice, IoType, NvmeCommand, NvmeCompletion, SubmitError,
};
use reflex_net::{Opcode, ReflexHeader};
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosScheduler, ScheduleOutcome,
    SchedulerParams, TenantClass, TokenRate,
};
use reflex_sim::{Ctx, Engine, SimDuration, SimRng, SimTime, TypedEvent, Zipf};

use crate::workloads::Workload;

/// One generated operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Instant the operation is due.
    pub at: SimTime,
    /// Index of its tenant in the workload's spec list.
    pub tenant: usize,
    /// Read (`true`) or write.
    pub read: bool,
    /// Byte address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
}

/// Generates the stream: `counts[i]` ops for spec `i`, evenly spaced over
/// `window`, merged in time order. Addresses follow each spec's pattern
/// over its namespace; reads are drawn with the spec's read share.
pub fn stream(specs: &[WorkloadSpec], counts: &[u64], window: SimDuration, seed: u64) -> Arc<[Op]> {
    let mut ops = Vec::new();
    for (t, (spec, &n)) in specs.iter().zip(counts).enumerate() {
        let mut rng = SimRng::stream(seed, t as u64);
        let blocks = (spec.namespace.1 / u64::from(spec.io_size)).max(1);
        let zipf = match spec.addr_pattern {
            AddrPattern::Zipfian { theta_permille } => {
                Some(Zipf::new(blocks, f64::from(theta_permille) / 1000.0))
            }
            _ => None,
        };
        let gap = window.as_nanos() / n.max(1);
        for k in 0..n {
            let block = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.below(blocks),
            };
            ops.push(Op {
                at: SimTime::from_nanos(k * gap),
                tenant: t,
                read: rng.chance(f64::from(spec.read_pct) / 100.0),
                addr: spec.namespace.0 + block * u64::from(spec.io_size),
                len: spec.io_size,
            });
        }
    }
    ops.sort_by_key(|op| (op.at, op.tenant));
    ops.into()
}

/// Host nanoseconds per op of every layer driver, medians over `reps`.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// `FlashDevice::{submit, poll_completions}`.
    pub flash: f64,
    /// `QosScheduler::{enqueue, schedule_into}`.
    pub qos: f64,
    /// `DramCache::{lookup, fill, invalidate_write}`; 0 without a cache.
    pub cache: f64,
    /// `ReflexHeader::{encode_array, decode}`.
    pub net: f64,
    /// `Engine` typed schedule + dispatch.
    pub sim: f64,
}

/// Times every driver `reps` times over `ops` and keeps the medians.
pub fn measure(
    workload: Workload,
    specs: &[WorkloadSpec],
    ops: &Arc<[Op]>,
    seed: u64,
    reps: usize,
) -> LayerCosts {
    let per_op = |f: &dyn Fn() -> u64| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                let n = f();
                if n == 0 {
                    0.0
                } else {
                    start.elapsed().as_nanos() as f64 / n as f64
                }
            })
            .collect();
        crate::stats::median(&samples)
    };
    LayerCosts {
        flash: per_op(&|| flash(specs.len(), ops, seed)),
        qos: per_op(&|| qos(specs, ops)),
        cache: per_op(&|| workload.cache().map_or(0, |cfg| cache(cfg, ops))),
        net: per_op(&|| net(ops)),
        sim: per_op(&|| sim(ops)),
    }
}

fn cmd(i: usize, op: &Op) -> NvmeCommand {
    let id = CmdId(i as u64);
    if op.read {
        NvmeCommand::read(id, op.addr, op.len)
    } else {
        NvmeCommand::write(id, op.addr, op.len)
    }
}

/// Submits every op on its tenant's queue pair at its due time (or when
/// the queue next has room) and polls completions as it goes.
fn flash(tenants: usize, ops: &[Op], seed: u64) -> u64 {
    let mut dev = FlashDevice::new(device_a(), SimRng::seed(seed));
    let qps: Vec<_> = (0..tenants).map(|_| dev.create_queue_pair()).collect();
    let mut done: Vec<NvmeCompletion> = Vec::with_capacity(64);
    let mut now = SimTime::ZERO;
    for (i, op) in ops.iter().enumerate() {
        now = now.max(op.at);
        let qp = qps[op.tenant];
        loop {
            match dev.submit(now, qp, cmd(i, op)) {
                Ok(at) => {
                    black_box(at);
                    break;
                }
                Err(SubmitError::QueueFull) => {
                    let next = dev
                        .next_completion_time(qp)
                        .expect("a full queue completes");
                    now = now.max(next);
                    dev.poll_completions_into(now, qp, usize::MAX, &mut done);
                    done.clear();
                }
                Err(e) => panic!("flash driver: {e}"),
            }
        }
        dev.poll_completions_into(now, qp, 64, &mut done);
        black_box(done.len());
        done.clear();
    }
    ops.len() as u64
}

/// Enqueues every op with its tenant's class and runs a scheduling round
/// at each op's due time.
fn qos(specs: &[WorkloadSpec], ops: &[Op]) -> u64 {
    let mut sched: QosScheduler<u32> = QosScheduler::new(
        0,
        Arc::new(GlobalBucket::new(1)),
        CostModel::for_device_a(),
        SchedulerParams::default(),
        SimTime::ZERO,
    );
    // BE tenants share a rate ample enough that queues stay bounded.
    sched.set_be_rate(TokenRate::per_sec(2_000_000));
    for spec in specs {
        match spec.class {
            TenantClass::LatencyCritical(slo) => sched.register_lc(spec.tenant, slo, spec.io_size),
            TenantClass::BestEffort => sched.register_be(spec.tenant),
        }
        .expect("distinct tenants admit");
    }
    let mut out = ScheduleOutcome::default();
    for (i, op) in ops.iter().enumerate() {
        let req = CostedRequest {
            op: if op.read { IoType::Read } else { IoType::Write },
            len: op.len,
            payload: i as u32,
        };
        sched
            .enqueue(specs[op.tenant].tenant, req)
            .expect("registered tenant");
        sched.schedule_into(op.at, LoadMix::Mixed, &mut out);
        black_box(out.submitted.len());
    }
    ops.len() as u64
}

/// Probes the cache for every read, fills on a miss, and invalidates on
/// every write.
fn cache(cfg: reflex_cache::CacheConfig, ops: &[Op]) -> u64 {
    let mut cache = DramCache::new(cfg);
    for op in ops {
        let tenant = op.tenant as u32;
        if op.read {
            if !cache.lookup(tenant, op.addr, op.len) {
                let (clock, gen) = (cache.clock(), cache.generation(tenant));
                black_box(cache.fill(tenant, op.addr, op.len, clock, gen));
            }
        } else {
            black_box(cache.invalidate_write(tenant, op.addr, op.len));
        }
    }
    ops.len() as u64
}

/// Encodes and decodes every op's wire header.
fn net(ops: &[Op]) -> u64 {
    for (i, op) in ops.iter().enumerate() {
        let hdr = ReflexHeader {
            opcode: if op.read { Opcode::Get } else { Opcode::Put },
            tenant: op.tenant as u32,
            cookie: i as u64,
            addr: op.addr,
            len: op.len,
        };
        let bytes = black_box(hdr.encode_array());
        black_box(ReflexHeader::decode(&bytes).expect("round trip"));
    }
    ops.len() as u64
}

/// A generator chain on the typed engine: each arrival schedules the
/// next arrival and its own completion a modelled service time later.
struct Chain {
    ops: Arc<[Op]>,
    completed: u64,
}

#[derive(Clone, Copy)]
enum ChainEvent {
    Arrive(u32),
    Complete,
}

impl TypedEvent<Chain> for ChainEvent {
    fn dispatch(self, w: &mut Chain, ctx: &mut Ctx<'_, Chain, ChainEvent>) {
        match self {
            ChainEvent::Arrive(i) => {
                let op = w.ops[i as usize];
                let service = if op.read { 100 } else { 30 };
                ctx.schedule_event_after(SimDuration::from_micros(service), ChainEvent::Complete);
                if let Some(next) = w.ops.get(i as usize + 1) {
                    ctx.schedule_event_at(next.at.max(ctx.now()), ChainEvent::Arrive(i + 1));
                }
            }
            ChainEvent::Complete => w.completed += 1,
        }
    }
}

/// Dispatches two engine events per op; returns the op count.
fn sim(ops: &Arc<[Op]>) -> u64 {
    let Some(first) = ops.first() else {
        return 0;
    };
    let mut engine = Engine::with_events(Chain {
        ops: Arc::clone(ops),
        completed: 0,
    });
    engine.schedule_event_at(first.at, ChainEvent::Arrive(0));
    engine.run_to_completion();
    assert_eq!(engine.world().completed, ops.len() as u64);
    ops.len() as u64
}
